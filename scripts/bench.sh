#!/usr/bin/env bash
# Records the perf baselines with the `baseline` binary, one suite at a
# time: serial-vs-pooled solver/FL timings (BENCH_solvers.json),
# naive-vs-blocked GEMM kernels (BENCH_gemm.json), the market engine
# (BENCH_engine.json) and thousand-silo scaling (BENCH_scale.json).
#
# Full mode writes the committed baselines at the repo root; --fast
# (or TRADEFL_BENCH_FAST=1) runs smoke scale and writes under target/
# so CI never clobbers the recorded files. The solver smoke shrinks
# instance sizes; the GEMM and engine smokes keep the same shapes and
# only cut repeats, so their fast output gates like-for-like against
# the committed files; the scale smoke drops the N=1000/10,000 rows.
# Either way every emitted file is re-validated with `baseline
# --check`, which fails on malformed JSON and on any suite invariant
# (the scale bounds, bit-identity, speedup consistency).
#
# Usage: scripts/bench.sh [--fast]
set -euo pipefail
cd "$(dirname "$0")/.."

FAST="${TRADEFL_BENCH_FAST:-}"
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "bench.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

cargo build --release -q -p tradefl-bench --bin baseline
BASELINE=target/release/baseline

outs=()
for suite in solvers gemm engine scale; do
  if [ -n "$FAST" ]; then
    out="target/BENCH_${suite}.fast.json"
    "$BASELINE" "$suite" --fast --out "$out"
  else
    out="BENCH_${suite}.json"
    "$BASELINE" "$suite" --out "$out"
  fi
  outs+=("$out")
done

"$BASELINE" --check "${outs[@]}"
echo "bench.sh: baselines at ${outs[*]}"
