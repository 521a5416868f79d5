//! The `solvers` suite (`BENCH_solvers.json`): serial vs pooled.
//!
//! Each bench runs the same workload once on a single-worker pool
//! (serial semantics) and once on a multi-worker pool, reporting the
//! median wall-clock of several repeats. Results are bit-compatible by
//! the determinism contract (DESIGN.md §6), so the comparison is pure
//! wall-clock. The CGBD traversal additionally contrasts the reference
//! odometer scan with the pooled table scan — the algorithmic half of
//! that speedup (per-cut lookup tables) applies even on single-core
//! hosts, which is why `host_parallelism` is recorded alongside
//! `workers`: read speedups against it.
//!
//! Rows whose work sits below the pool thresholds (`dbr_solve`,
//! `best_response`, `fedavg_round` at these sizes) execute the *same*
//! inline code on both pools, so their true ratio is 1.0 by
//! construction; they are timed with interleaved sampling
//! ([`time_interleaved_ms`]) so shared-host drift cannot open a fake
//! gap between two disjoint measurement windows. The rows that
//! genuinely engage worker threads stay on separate [`time_ms`]
//! windows — interleaving a multi-worker workload with a serial one
//! lets workers spinning down bleed into the serial batches (see the
//! `gemm` suite).
//!
//! `--fast` shrinks instance sizes and repeat counts to smoke-test
//! scale, so its `--gate` only catches order-of-magnitude regressions.

use super::{Row, Suite};
use crate::timing::{time_interleaved_ms, time_ms};
use std::collections::BTreeSet;
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_core::strategy::StrategyProfile;
use tradefl_fl_sim::data::{generate, DatasetKind};
use tradefl_fl_sim::fed::{train_federated_with, FedConfig};
use tradefl_fl_sim::model::{Mlp, ModelKind};
use tradefl_runtime::sync::pool::Pool;
use tradefl_solver::bestresponse::{best_response_with, Objective};
use tradefl_solver::cgbd::exhaustive_optimum_with;
use tradefl_solver::dbr::DbrSolver;
use tradefl_solver::gbd::{traverse_pooled, traverse_reference, Cut};

/// Pooled worker count; the acceptance bar for the CGBD traversal
/// speedup is stated at 4+ workers.
const WORKERS: usize = 4;

pub(super) const SUITE: Suite = Suite {
    name: "solvers",
    schema: "tradefl-bench-baseline/v1",
    workers: Some(WORKERS),
    repeats: [
        "median of 15, paired rows interleaved",
        "median of 3, paired rows interleaved (fast)",
    ],
    run,
    invariants,
};

/// Every row carries positive `serial_ms`, `pooled_ms` and `speedup`,
/// with the speedup within 5% of `serial_ms / pooled_ms`.
fn invariants(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        let serial = row.positive("serial_ms")?;
        let pooled = row.positive("pooled_ms")?;
        let speedup = row.positive("speedup")?;
        row.consistent("speedup", speedup, serial / pooled)?;
    }
    Ok(())
}

fn game(n: usize, seed: u64) -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().with_orgs(n).build(seed).unwrap();
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

fn row(name: &str, serial_ms: f64, pooled_ms: f64) -> Row {
    Row::new(
        name,
        &[("serial_ms", serial_ms), ("pooled_ms", pooled_ms), ("speedup", serial_ms / pooled_ms)],
    )
}

/// A realistic mid-solve cut stack: several optimality anchors plus a
/// feasibility cut, like CGBD holds a few iterations in.
fn cut_stack(g: &CoopetitionGame<SqrtAccuracy>) -> Vec<Cut> {
    let n = g.market().len();
    let d_min = g.market().params().d_min;
    let mut cuts = Vec::new();
    for (k, d) in [0.1, 0.2, 0.35, 0.5, 0.7, 0.9].into_iter().enumerate() {
        let u = vec![0.02 * k as f64; n];
        cuts.push(Cut::optimality(g, vec![d; n], u));
    }
    cuts.push(Cut::Feasibility {
        d: vec![d_min; n],
        lambda: vec![1.0 / n as f64; n],
    });
    cuts
}

fn run(fast: bool) -> Vec<Row> {
    let repeats = if fast { 3 } else { 15 };
    let mut rows = Vec::new();
    let serial_pool = Pool::new(1);
    let pooled_pool = Pool::new(WORKERS);

    // CGBD master traversal: reference odometer scan vs pooled table
    // scan over the full ladder product space.
    {
        let n = if fast { 6 } else { 8 };
        let g = game(n, 7);
        let cuts = cut_stack(&g);
        let visited = BTreeSet::new();
        let cap = 1u128 << 40;
        let reference = traverse_reference(&g, &cuts, &visited, cap).unwrap();
        let pooled = traverse_pooled(&g, &cuts, &visited, cap, &pooled_pool).unwrap();
        assert_eq!(reference.levels, pooled.levels, "traversal paths disagree");
        assert!(
            (reference.phi - pooled.phi).abs() <= 1e-9 * reference.phi.abs().max(1.0),
            "traversal phi mismatch: {} vs {}",
            reference.phi,
            pooled.phi
        );
        rows.push(row(
            "cgbd_traversal",
            time_ms(repeats, || {
                traverse_reference(&g, &cuts, &visited, cap).unwrap();
            }),
            time_ms(repeats, || {
                traverse_pooled(&g, &cuts, &visited, cap, &pooled_pool).unwrap();
            }),
        ));
    }

    // Exhaustive primal oracle over every ladder assignment.
    {
        let g = game(if fast { 3 } else { 4 }, 11);
        rows.push(row(
            "exhaustive_optimum",
            time_ms(repeats, || {
                exhaustive_optimum_with(&g, 1e-9, &serial_pool).unwrap();
            }),
            time_ms(repeats, || {
                exhaustive_optimum_with(&g, 1e-9, &pooled_pool).unwrap();
            }),
        ));
    }

    // Full DBR solve (Algorithm 2) on the paper-scale market.
    {
        let g = game(if fast { 6 } else { 10 }, 42);
        let mut serial = || {
            DbrSolver::new().solve_with(&g, &serial_pool).unwrap();
        };
        let mut pooled = || {
            DbrSolver::new().solve_with(&g, &pooled_pool).unwrap();
        };
        let ms = time_interleaved_ms(repeats, &mut [&mut serial, &mut pooled]);
        rows.push(row("dbr_solve", ms[0], ms[1]));
    }

    // One organization's best response at the minimal profile.
    {
        let g = game(if fast { 6 } else { 10 }, 42);
        let profile = StrategyProfile::minimal(g.market());
        let mut serial = || {
            best_response_with(&g, &profile, 0, Objective::Full, &serial_pool).unwrap();
        };
        let mut pooled = || {
            best_response_with(&g, &profile, 0, Objective::Full, &pooled_pool).unwrap();
        };
        let ms = time_interleaved_ms(repeats * 10, &mut [&mut serial, &mut pooled]);
        rows.push(row("best_response", ms[0], ms[1]));
    }

    // FedAvg rounds with per-silo local training.
    {
        let (orgs, per_shard, test_n) = if fast { (3, 120, 200) } else { (4, 260, 400) };
        let all = generate(DatasetKind::EurosatLike, per_shard * orgs + test_n, 11);
        let mut sizes = vec![per_shard; orgs];
        sizes.push(test_n);
        let mut shards = all.shard(&sizes);
        let test = shards.pop().unwrap();
        let fractions = vec![1.0; orgs];
        let config = FedConfig {
            rounds: if fast { 1 } else { 2 },
            local_epochs: 1,
            batch_size: 32,
            lr: 0.1,
            seed: 1,
        };
        let mk = || Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 3);
        let mut serial = || {
            train_federated_with(mk(), &shards, &test, &fractions, &config, &serial_pool)
                .unwrap();
        };
        let mut pooled = || {
            train_federated_with(mk(), &shards, &test, &fractions, &config, &pooled_pool)
                .unwrap();
        };
        let ms = time_interleaved_ms(repeats, &mut [&mut serial, &mut pooled]);
        rows.push(row("fedavg_round", ms[0], ms[1]));
    }

    rows
}

#[cfg(test)]
mod tests {
    use super::super::check;
    use super::*;

    #[test]
    fn checker_accepts_emitted_shape() {
        let rows = vec![row("a", 2.0, 1.0), row("b", 3.0, 3.0)];
        let (suite, n) = check(&SUITE.render(&rows, true)).unwrap();
        assert_eq!((suite.name, n), ("solvers", 2));
    }

    #[test]
    fn checker_rejects_missing_nonpositive_and_inconsistent_fields() {
        let bad = |row: Row| check(&SUITE.render(&[row], false)).unwrap_err();
        let err = bad(Row::new("x", &[("serial_ms", 10.0), ("pooled_ms", 1.0), ("speedup", 2.0)]));
        assert!(err.contains("speedup 2 inconsistent with 10.000"), "{err}");
        let err = bad(Row::new("x", &[("serial_ms", 10.0), ("pooled_ms", 1.0)]));
        assert!(err.contains("missing \"speedup\""), "{err}");
        let err = bad(Row::new("x", &[("serial_ms", 0.0), ("pooled_ms", 1.0), ("speedup", 0.0)]));
        assert!(err.contains("\"serial_ms\" = 0 not positive"), "{err}");
        let text = SUITE.render(&[row("x", 5.0, 1.0)], false);
        let overflow = text.replace("\"serial_ms\":5", "\"serial_ms\":1e999");
        assert!(check(&overflow).unwrap_err().contains("\"serial_ms\" = inf not positive"));
    }
}
