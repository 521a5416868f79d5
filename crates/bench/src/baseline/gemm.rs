//! The `gemm` suite (`BENCH_gemm.json`): GEMM kernel timings.
//!
//! Each row is one of the paper's actual layer shapes, timed through
//! the naive reference product, the cache-blocked kernel, and — where
//! the shape is tall enough to split on MC-aligned row boundaries —
//! the pooled kernel. The blocked and naive results are checked for
//! numerical agreement before anything is timed, so the recorded
//! speedups always describe two implementations of the same product.
//!
//! Unlike the `solvers` suite, `--fast` keeps the *same shapes* and
//! only cuts the repeat count, so the CI gate compares fast-mode
//! medians against the committed full-mode file like-for-like.

use super::{Row, Suite};
use crate::timing::{time_interleaved_ms, time_ms};
use tradefl_fl_sim::linalg::{kernel, Matrix};
use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};
use tradefl_runtime::sync::pool::Pool;

/// Pooled worker count (mirrors the `solvers` suite).
const WORKERS: usize = 4;

pub(super) const SUITE: Suite = Suite {
    name: "gemm",
    schema: "tradefl-bench-gemm/v1",
    workers: Some(WORKERS),
    repeats: ["median of 15, interleaved", "median of 3, interleaved (fast)"],
    run,
    invariants,
};

/// Every row carries shape counts `m`, `k`, `n` ≥ 1 and positive
/// `naive_ms`, `blocked_ms` and `blocked_speedup` (within 5% of
/// `naive_ms / blocked_ms`). The pooled columns are optional — only
/// tall `A · B` rows carry them — but a positive `pooled_ms` needs a
/// `pooled_speedup` within 5% of `naive_ms / pooled_ms`.
fn invariants(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        for key in ["m", "k", "n"] {
            row.count(key)?;
        }
        let naive = row.positive("naive_ms")?;
        let blocked = row.positive("blocked_ms")?;
        let speedup = row.positive("blocked_speedup")?;
        row.consistent("blocked_speedup", speedup, naive / blocked)?;
        if row.get("pooled_ms").is_some() {
            let pooled = row.positive("pooled_ms")?;
            let speedup = row
                .get("pooled_speedup")
                .ok_or_else(|| format!("bench '{}': pooled_ms without pooled_speedup", row.name))?;
            row.consistent("pooled_speedup", speedup, naive / pooled)?;
        }
    }
    Ok(())
}

/// Which of the three kernel products a row exercises.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    /// `A · B` — forward passes.
    MatMul,
    /// `A · Bᵀ` — backprop delta through a layer's weights.
    MatMulTransposed,
    /// `Aᵀ · B` — weight gradients.
    TransposedMatMul,
}

/// One benchmark shape: `out` is `m × n` with inner dimension `k`.
struct Spec {
    name: &'static str,
    op: Op,
    m: usize,
    k: usize,
    n: usize,
    /// Zero ~half of the left operand, like post-ReLU activations —
    /// the case the naive kernel's exact-zero skip was tuned for.
    sparse: bool,
    /// Also time the pooled kernel (only meaningful for `MatMul` rows
    /// tall enough to split; short rows fall back to the serial path).
    pooled: bool,
}

/// The paper's layer shapes (ResNet-analog 64→96→48→10 on the dim-64
/// datasets, MobileNet-analog 36→32→10 on EuroSAT-like; batch 32 for
/// training, 1500 test rows for evaluation — `train_at_equilibrium`'s
/// figure scale).
const SPECS: &[Spec] = &[
    // Largest shape in any figure run: full-test-set evaluation
    // through the ResNet-analog's first layer. The >=3x blocked-kernel
    // acceptance bar is stated on this row.
    Spec { name: "eval_forward_1500x64x96", op: Op::MatMul, m: 1500, k: 64, n: 96, sparse: false, pooled: true },
    Spec { name: "train_forward_32x64x96", op: Op::MatMul, m: 32, k: 64, n: 96, sparse: false, pooled: false },
    Spec { name: "train_forward_32x36x32", op: Op::MatMul, m: 32, k: 36, n: 32, sparse: false, pooled: false },
    // Weight gradient dW = actsᵀ · delta for the 64→96 layer.
    Spec { name: "grad_weights_64x32x96", op: Op::TransposedMatMul, m: 64, k: 32, n: 96, sparse: false, pooled: false },
    // Backprop delta_prev = delta · Wᵀ through the 96→48 layer.
    Spec { name: "backprop_delta_32x48x96", op: Op::MatMulTransposed, m: 32, k: 48, n: 96, sparse: false, pooled: false },
    // Same gradient shape with ~50% exact zeros in the activations:
    // the one regime where the naive kernel's sparsity skip shines,
    // recorded honestly so the speedup table shows its best case too.
    Spec { name: "grad_weights_relu_sparse_64x32x96", op: Op::TransposedMatMul, m: 64, k: 32, n: 96, sparse: true, pooled: false },
];

/// Deterministic operand pair for a spec (values in `[-1, 1)`).
fn inputs(spec: &Spec, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6765_6d6d);
    let mut fill = |rows: usize, cols: usize, sparse: bool| {
        Matrix::from_fn(rows, cols, |_, _| {
            let v = rng.gen_range(-1.0..1.0) as f32;
            if sparse && rng.gen_bool(0.5) {
                0.0
            } else {
                v
            }
        })
    };
    match spec.op {
        Op::MatMul => {
            let a = fill(spec.m, spec.k, spec.sparse);
            let b = fill(spec.k, spec.n, false);
            (a, b)
        }
        Op::MatMulTransposed => {
            let a = fill(spec.m, spec.k, spec.sparse);
            let bt = fill(spec.n, spec.k, false);
            (a, bt)
        }
        Op::TransposedMatMul => {
            let at = fill(spec.k, spec.m, spec.sparse);
            let b = fill(spec.k, spec.n, false);
            (at, b)
        }
    }
}

fn naive(op: Op, a: &Matrix, b: &Matrix) -> Matrix {
    match op {
        Op::MatMul => kernel::matmul_reference(a, b),
        Op::MatMulTransposed => kernel::matmul_transposed_reference(a, b),
        Op::TransposedMatMul => kernel::transposed_matmul_reference(a, b),
    }
}

fn blocked(op: Op, a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut kernel::Workspace) {
    match op {
        Op::MatMul => kernel::matmul_into(a, b, out, ws),
        Op::MatMulTransposed => kernel::matmul_transposed_into(a, b, out, ws),
        Op::TransposedMatMul => kernel::transposed_matmul_into(a, b, out, ws),
    }
}

/// Asserts the blocked product of `spec`'s operands matches the naive
/// reference: same product, different summation order, so a
/// per-element ULP-scale bound.
fn assert_blocked_agrees(spec: &Spec, a: &Matrix, b: &Matrix) {
    let want = naive(spec.op, a, b);
    let mut out = Matrix::zeros(0, 0);
    blocked(spec.op, a, b, &mut out, &mut kernel::Workspace::new());
    assert_eq!((out.rows(), out.cols()), (spec.m, spec.n), "{}", spec.name);
    let tol = 1e-5 * spec.k as f32;
    for r in 0..out.rows() {
        for (got, want) in out.row(r).iter().zip(want.row(r)) {
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "{}: blocked kernel disagrees with reference ({got} vs {want})",
                spec.name
            );
        }
    }
}

fn run(fast: bool) -> Vec<Row> {
    let repeats = if fast { 3 } else { 15 };
    let pool = Pool::new(WORKERS);
    let mut rows = Vec::new();
    for spec in SPECS {
        let (a, b) = inputs(spec, 42);
        assert_blocked_agrees(spec, &a, &b);
        // Each timed variant owns its output so the closures can
        // coexist; capacity is reused after the first call.
        let mut ws = kernel::Workspace::new();
        let mut out_blocked = Matrix::zeros(0, 0);
        let mut out_pooled = Matrix::zeros(0, 0);
        // The variants are timed interleaved, not back-to-back: the
        // recorded numbers are consumed as ratios, and interleaving
        // keeps shared-host slow periods from landing on one side of
        // the ratio only (see `timing::time_interleaved_ms`).
        let mut run_naive = || {
            let _ = naive(spec.op, &a, &b);
        };
        let mut run_blocked = || {
            blocked(spec.op, &a, &b, &mut out_blocked, &mut ws);
        };
        let ms = time_interleaved_ms(repeats, &mut [&mut run_naive, &mut run_blocked]);
        let (naive_ms, blocked_ms) = (ms[0], ms[1]);
        let mut nums = vec![
            ("m", spec.m as f64),
            ("k", spec.k as f64),
            ("n", spec.n as f64),
            ("naive_ms", naive_ms),
            ("blocked_ms", blocked_ms),
            ("blocked_speedup", naive_ms / blocked_ms),
        ];
        // The pooled variant is timed apart from the interleave set:
        // its worker threads spin down across the batch boundary and
        // would contaminate whichever serial batch runs next.
        if spec.pooled {
            let pooled_ms = time_ms(repeats, || {
                kernel::matmul_into_pooled(&a, &b, &mut out_pooled, &pool);
            });
            nums.push(("pooled_ms", pooled_ms));
            nums.push(("pooled_speedup", naive_ms / pooled_ms));
        }
        rows.push(Row::new(spec.name, &nums));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::super::check;
    use super::*;

    fn row(extra: &[(&str, f64)]) -> Row {
        let mut nums = vec![
            ("m", 8.0),
            ("k", 8.0),
            ("n", 8.0),
            ("naive_ms", 4.0),
            ("blocked_ms", 1.0),
            ("blocked_speedup", 4.0),
        ];
        nums.extend_from_slice(extra);
        Row::new("x", &nums)
    }

    fn check_rows(rows: &[Row]) -> Result<usize, String> {
        check(&SUITE.render(rows, true)).map(|(_, n)| n)
    }

    #[test]
    fn checker_accepts_emitted_shape() {
        let rows = vec![row(&[("pooled_ms", 2.0), ("pooled_speedup", 2.0)]), row(&[])];
        assert_eq!(check_rows(&rows), Ok(2));
    }

    #[test]
    fn checker_rejects_inconsistent_blocked_speedup_and_empty_shapes() {
        let mut r = row(&[]);
        r.nums[5].1 = 2.0;
        assert!(check_rows(&[r]).unwrap_err().contains("blocked_speedup 2 inconsistent"));
        let mut r = row(&[]);
        r.nums[1].1 = 0.0;
        assert!(check_rows(&[r]).unwrap_err().contains("\"k\" = 0 < 1"));
    }

    #[test]
    fn checker_requires_a_consistent_pooled_speedup_with_pooled_ms() {
        let err = check_rows(&[row(&[("pooled_ms", 2.0)])]).unwrap_err();
        assert!(err.contains("pooled_ms without pooled_speedup"), "{err}");
        let err = check_rows(&[row(&[("pooled_ms", 2.0), ("pooled_speedup", 4.0)])]).unwrap_err();
        assert!(err.contains("pooled_speedup 4 inconsistent with 2.000"), "{err}");
        let err = check_rows(&[row(&[("pooled_ms", -2.0), ("pooled_speedup", -2.0)])]).unwrap_err();
        assert!(err.contains("\"pooled_ms\" = -2 not positive"), "{err}");
    }

    #[test]
    fn every_spec_agrees_with_the_reference() {
        for spec in SPECS {
            let (a, b) = inputs(spec, 7);
            assert_blocked_agrees(spec, &a, &b);
        }
    }
}
