//! The `scale` suite (`BENCH_scale.json`): thousand-silo scaling.
//!
//! Four scaling surfaces, each timed at N = 10 / 100 / 1000 silos
//! where applicable:
//!
//! * `dbr_solve_nN` — one full discrete-best-response equilibrium
//!   solve on the Table-II market scaled to N organizations. The
//!   incremental evaluator makes one sweep O(N·log N), so the solve
//!   time must stay *sub-quadratic* in N: the checker enforces
//!   `dbr_solve_n1000 ≤ 20 × dbr_solve_n100` (a quadratic sweep
//!   would put the ratio near 100). The `dbr_solve_n10000` row runs a
//!   ten-thousand-org market on a ~1%-dense CSR ρ: the checker bounds
//!   its resident ρ bytes at 100 MB (the dense matrix alone is 800 MB)
//!   and its solve time at 25 × `dbr_solve_n1000`.
//! * `dbr_sparse_agreement_n1000` — the same N = 1000 market solved on
//!   its dense ρ and on a CSR twin holding the identical entries; the
//!   `bit_identical` field (gated to 1) pins the zero-skip argument:
//!   sparse iteration changes where time goes, never a single bit of
//!   the equilibrium.
//! * `fedavg_round_nN` — one hierarchical streaming FedAvg round over
//!   N silos (16 samples each, EuroSAT-like, MobileNet-analog model).
//!   The row records `rounds_per_sec` and the aggregation buffer
//!   footprint `agg_buffer_bytes` = O(model × min(workers, groups)),
//!   which is independent of N — the point of the streaming reduce.
//! * `batched_gemm_32x64x96` — the per-silo gradient-shaped products
//!   of a thousand-silo round, serial loop vs
//!   [`kernel::matmul_batch_into_pooled`]'s one pooled dispatch with
//!   per-chunk shared packing buffers.
//!
//! `--fast` drops the N = 1000 rows and shrinks the GEMM batch, so
//! the CI gate compares only the rows both files carry (the gate skips
//! rows present on one side — see [`super::gate`]).

use super::{Row, Suite};
use crate::timing::{time_interleaved_ms, time_ms};
use crate::SEED;
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_fl_sim::data::{generate, DatasetKind};
use tradefl_fl_sim::fed::{train_federated_grouped, FedConfig, EDGE_GROUP_SIZE};
use tradefl_fl_sim::linalg::{kernel, Matrix};
use tradefl_fl_sim::model::{Mlp, ModelKind};
use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};
use tradefl_runtime::sync::pool::Pool;
use tradefl_solver::dbr::DbrSolver;

/// Pooled worker count (mirrors the `solvers` and `gemm` suites).
const WORKERS: usize = 4;
/// Samples per silo in the FedAvg rows: small enough that N = 1000
/// stays affordable, large enough that the N = 1000 round crosses the
/// pool-engagement threshold (16 000 steps ≥ `POOLED_FED_MIN_STEPS`).
const SAMPLES_PER_SILO: usize = 16;
/// Acceptance bound on `dbr_solve_n1000 / dbr_solve_n100`: the sweep
/// is O(N·log N) + one O(N²)-but-tiny trace row per round, so 10×
/// more silos must cost well under the ~100× a quadratic sweep pays.
const DBR_SCALE_BOUND: f64 = 20.0;
/// ρ density of the ten-thousand-org row: ~1% of the off-diagonal
/// entries per row, the cross-silo-competition sparsity the sparse
/// representation targets.
const SPARSE_DENSITY: f64 = 0.01;
/// Acceptance bound on `dbr_solve_n10000 / dbr_solve_n1000`: 10× the
/// orgs at ~2× the stored entries must stay well under quadratic.
const DBR_10K_SCALE_BOUND: f64 = 25.0;
/// Acceptance bound on the ten-thousand-org market's resident ρ bytes
/// (100 MB). The dense matrix alone would be 800 MB.
const RHO_RESIDENT_MAX_BYTES: f64 = (100 * 1024 * 1024) as f64;

pub(super) const SUITE: Suite = Suite {
    name: "scale",
    schema: "tradefl-bench-scale/v1",
    workers: Some(WORKERS),
    repeats: [
        "median of 5; dbr_solve_n10000 and dbr_sparse_agreement_n1000 median of 3",
        "median of 2 (fast)",
    ],
    run,
    invariants,
};

/// Every row carries at least one `_ms` field and every `_ms` field is
/// positive. When the rows are present: the sub-quadratic DBR bound
/// `dbr_solve_n1000 ≤ 20 × dbr_solve_n100`, the ten-thousand-org bound
/// `dbr_solve_n10000 ≤ 25 × dbr_solve_n1000` with at most 100 MB of
/// resident ρ, and a sparse/dense agreement row that is bit-identical.
fn invariants(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        let timed: Vec<&str> =
            row.nums.iter().map(|(k, _)| k.as_str()).filter(|k| k.ends_with("_ms")).collect();
        if timed.is_empty() {
            return Err(format!("bench '{}': no \"_ms\" field", row.name));
        }
        for key in timed {
            row.positive(key)?;
        }
    }
    let find = |name: &str| rows.iter().find(|r| r.name == name);
    let solve = |name: &str| find(name).and_then(|r| r.get("solve_ms"));
    if let (Some(n100), Some(n1000)) = (solve("dbr_solve_n100"), solve("dbr_solve_n1000")) {
        if n1000 > DBR_SCALE_BOUND * n100 {
            return Err(format!(
                "dbr_solve_n1000 ({n1000:.3} ms) exceeds {DBR_SCALE_BOUND}x dbr_solve_n100 \
                 ({n100:.3} ms): the sweep is no longer sub-quadratic"
            ));
        }
    }
    if let (Some(n1000), Some(n10000)) = (solve("dbr_solve_n1000"), solve("dbr_solve_n10000")) {
        if n10000 > DBR_10K_SCALE_BOUND * n1000 {
            return Err(format!(
                "dbr_solve_n10000 ({n10000:.3} ms) exceeds {DBR_10K_SCALE_BOUND}x \
                 dbr_solve_n1000 ({n1000:.3} ms): the sparse sweep is no longer \
                 scaling in stored entries"
            ));
        }
    }
    if let Some(row) = find("dbr_solve_n10000") {
        let bytes = row
            .get("rho_resident_bytes")
            .ok_or("dbr_solve_n10000: missing \"rho_resident_bytes\"")?;
        if bytes > RHO_RESIDENT_MAX_BYTES {
            return Err(format!(
                "dbr_solve_n10000 holds {bytes:.0} resident rho bytes, over the \
                 {RHO_RESIDENT_MAX_BYTES:.0}-byte cap — the sparse representation \
                 has regressed toward dense"
            ));
        }
    }
    if let Some(row) = find("dbr_sparse_agreement_n1000") {
        let flag = row
            .get("bit_identical")
            .ok_or("dbr_sparse_agreement_n1000: missing \"bit_identical\"")?;
        if flag != 1.0 {
            return Err("dbr_sparse_agreement_n1000: sparse and dense equilibria are no longer \
                        bit-identical"
                .into());
        }
    }
    Ok(())
}

fn game_with_orgs(n: usize) -> CoopetitionGame<SqrtAccuracy> {
    let market = MarketConfig::table_ii().with_orgs(n).build(SEED).expect("market builds");
    CoopetitionGame::new(market, SqrtAccuracy::paper_default())
}

fn bench_dbr(n: usize, repeats: usize) -> Row {
    let game = game_with_orgs(n);
    let mut iterations = 0usize;
    let solve_ms = time_ms(repeats, || {
        let eq = DbrSolver::new().solve(&game).expect("dbr converges");
        iterations = eq.iterations;
    });
    Row::new(
        format!("dbr_solve_n{n}"),
        &[("solve_ms", solve_ms), ("orgs", n as f64), ("iterations", iterations as f64)],
    )
}

fn bench_dbr_sparse_10k(repeats: usize) -> Row {
    let n = 10_000;
    let market = MarketConfig::table_ii()
        .with_orgs(n)
        .build_sparse(SEED, SPARSE_DENSITY)
        .expect("sparse market builds");
    let nnz = market.rho_nnz();
    let resident = market.rho_resident_bytes();
    let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
    let mut iterations = 0usize;
    let solve_ms = time_ms(repeats, || {
        let eq = DbrSolver::new().solve(&game).expect("dbr converges");
        iterations = eq.iterations;
    });
    Row::new(
        "dbr_solve_n10000",
        &[
            ("solve_ms", solve_ms),
            ("orgs", n as f64),
            ("iterations", iterations as f64),
            ("rho_nnz", nnz as f64),
            ("rho_resident_bytes", resident as f64),
        ],
    )
}

fn bench_sparse_dense_agreement(n: usize, repeats: usize) -> Row {
    use tradefl_core::market::{Market, RhoMatrix};
    let dense = MarketConfig::table_ii().with_orgs(n).build(SEED).expect("market builds");
    let RhoMatrix::Dense(rows) = dense.rho_matrix() else {
        panic!("table_ii builds a dense rho");
    };
    let sparse_rho = RhoMatrix::from_dense_thresholded(rows, 0.0);
    let sparse_resident = sparse_rho.resident_bytes();
    let dense_resident = dense.rho_resident_bytes();
    let sparse = Market::with_rho(dense.orgs().to_vec(), sparse_rho, dense.params().clone())
        .expect("sparse twin builds");
    let game_dense = CoopetitionGame::new(dense, SqrtAccuracy::paper_default());
    let game_sparse = CoopetitionGame::new(sparse, SqrtAccuracy::paper_default());
    let mut run_dense = || {
        DbrSolver::new().solve(&game_dense).expect("dense dbr converges");
    };
    let mut run_sparse = || {
        DbrSolver::new().solve(&game_sparse).expect("sparse dbr converges");
    };
    let ms = time_interleaved_ms(repeats, &mut [&mut run_dense, &mut run_sparse]);
    let eq_d = DbrSolver::new().solve(&game_dense).expect("dense dbr converges");
    let eq_s = DbrSolver::new().solve(&game_sparse).expect("sparse dbr converges");
    let identical = eq_d.welfare.to_bits() == eq_s.welfare.to_bits()
        && eq_d.potential.to_bits() == eq_s.potential.to_bits()
        && eq_d.iterations == eq_s.iterations
        && eq_d
            .profile
            .iter()
            .zip(eq_s.profile.iter())
            .all(|(a, b)| a.d.to_bits() == b.d.to_bits() && a.level == b.level);
    Row::new(
        format!("dbr_sparse_agreement_n{n}"),
        &[
            ("dense_ms", ms[0]),
            ("sparse_ms", ms[1]),
            ("bit_identical", if identical { 1.0 } else { 0.0 }),
            ("dense_rho_bytes", dense_resident as f64),
            ("sparse_rho_bytes", sparse_resident as f64),
        ],
    )
}

fn bench_fedavg(n: usize, repeats: usize, pool: &Pool) -> Row {
    let total = n * SAMPLES_PER_SILO + 256;
    let corpus = generate(DatasetKind::EurosatLike, total, SEED);
    let mut sizes = vec![SAMPLES_PER_SILO; n];
    sizes.push(256);
    let mut shards = corpus.shard(&sizes);
    let test = shards.pop().expect("test shard");
    let fractions = vec![1.0f64; n];
    let config = FedConfig { rounds: 1, local_epochs: 1, batch_size: 16, ..FedConfig::default() };
    let template = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 1);
    let round_ms = time_ms(repeats, || {
        let outcome = train_federated_grouped(
            template.clone(),
            &shards,
            &test,
            &fractions,
            &config,
            EDGE_GROUP_SIZE,
            pool,
        )
        .expect("round trains");
        assert!(outcome.final_accuracy() >= 0.0);
    });
    // The streaming reduce's live footprint: one f64 partial per
    // active group slot plus the global accumulator — a function of
    // the worker count and the model, never of N.
    let n_groups = n.div_ceil(EDGE_GROUP_SIZE);
    let slots = pool.workers().min(n_groups).max(1);
    let agg_buffer_bytes = (slots + 1) * template.param_count() * 8;
    Row::new(
        format!("fedavg_round_n{n}"),
        &[
            ("round_ms", round_ms),
            ("silos", n as f64),
            ("rounds_per_sec", 1000.0 / round_ms),
            ("agg_buffer_bytes", agg_buffer_bytes as f64),
        ],
    )
}

fn bench_batched_gemm(count: usize, repeats: usize, pool: &Pool) -> Row {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x7363_616c);
    let pairs: Vec<(Matrix, Matrix)> = (0..count)
        .map(|_| {
            let a = Matrix::from_fn(32, 64, |_, _| rng.gen_range(-1.0..1.0));
            let b = Matrix::from_fn(64, 96, |_, _| rng.gen_range(-1.0..1.0));
            (a, b)
        })
        .collect();
    let ops: Vec<(&Matrix, &Matrix)> = pairs.iter().map(|(a, b)| (a, b)).collect();
    let mut outs_serial: Vec<Matrix> = (0..count).map(|_| Matrix::zeros(0, 0)).collect();
    let mut outs_batched: Vec<Matrix> = (0..count).map(|_| Matrix::zeros(0, 0)).collect();
    let mut ws = kernel::Workspace::new();
    let mut run_serial = || {
        for ((a, b), out) in ops.iter().zip(outs_serial.iter_mut()) {
            kernel::matmul_into(a, b, out, &mut ws);
        }
    };
    let mut run_batched = || {
        kernel::matmul_batch_into_pooled(&ops, &mut outs_batched, pool);
    };
    let ms = time_interleaved_ms(repeats, &mut [&mut run_serial, &mut run_batched]);
    Row::new(
        "batched_gemm_32x64x96",
        &[
            ("serial_ms", ms[0]),
            ("batched_ms", ms[1]),
            ("products", count as f64),
            ("batched_speedup", ms[0] / ms[1]),
        ],
    )
}

fn run(fast: bool) -> Vec<Row> {
    let pool = Pool::new(WORKERS);
    let sizes: &[usize] = if fast { &[10, 100] } else { &[10, 100, 1000] };
    let repeats = if fast { 2 } else { 5 };
    let mut rows = Vec::new();
    for &n in sizes {
        rows.push(bench_dbr(n, repeats));
    }
    if !fast {
        rows.push(bench_dbr_sparse_10k(3));
        rows.push(bench_sparse_dense_agreement(1000, 3));
    }
    for &n in sizes {
        rows.push(bench_fedavg(n, repeats, &pool));
    }
    rows.push(bench_batched_gemm(if fast { 200 } else { 1000 }, repeats, &pool));
    rows
}

#[cfg(test)]
mod tests {
    use super::super::check;
    use super::*;

    fn fake_rows() -> Vec<Row> {
        vec![
            Row::new("dbr_solve_n100", &[("solve_ms", 2.0), ("orgs", 100.0), ("iterations", 7.0)]),
            Row::new(
                "dbr_solve_n1000",
                &[("solve_ms", 30.0), ("orgs", 1000.0), ("iterations", 9.0)],
            ),
            Row::new(
                "fedavg_round_n100",
                &[
                    ("round_ms", 12.0),
                    ("silos", 100.0),
                    ("rounds_per_sec", 83.3),
                    ("agg_buffer_bytes", 65536.0),
                ],
            ),
        ]
    }

    fn ten_k_rows() -> Vec<Row> {
        let mut rows = fake_rows();
        rows.push(Row::new(
            "dbr_solve_n10000",
            &[
                ("solve_ms", 200.0),
                ("orgs", 10000.0),
                ("iterations", 9.0),
                ("rho_nnz", 2_000_000.0),
                ("rho_resident_bytes", 33_000_000.0),
            ],
        ));
        rows.push(Row::new(
            "dbr_sparse_agreement_n1000",
            &[
                ("dense_ms", 3.0),
                ("sparse_ms", 2.5),
                ("bit_identical", 1.0),
                ("dense_rho_bytes", 8_000_000.0),
                ("sparse_rho_bytes", 6_000_000.0),
            ],
        ));
        rows
    }

    fn check_rows(rows: &[Row]) -> Result<usize, String> {
        check(&SUITE.render(rows, false)).map(|(_, n)| n)
    }

    #[test]
    fn checker_accepts_emitted_shape() {
        assert_eq!(check_rows(&fake_rows()), Ok(3));
        assert_eq!(check_rows(&ten_k_rows()), Ok(5));
    }

    #[test]
    fn checker_enforces_the_sub_quadratic_dbr_bound() {
        let mut rows = fake_rows();
        rows[1].nums[0].1 = DBR_SCALE_BOUND * rows[0].nums[0].1;
        assert_eq!(check_rows(&rows), Ok(3), "the bound itself passes");
        rows[1].nums[0].1 += 0.01;
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("exceeds 20x dbr_solve_n100"), "{err}");
        assert!(err.contains("sub-quadratic"), "{err}");
    }

    #[test]
    fn checker_enforces_the_ten_k_scale_bound() {
        let mut rows = ten_k_rows();
        rows[3].nums[0].1 = DBR_10K_SCALE_BOUND * rows[1].nums[0].1;
        assert_eq!(check_rows(&rows), Ok(5), "the bound itself passes");
        rows[3].nums[0].1 += 0.01;
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("dbr_solve_n10000 (750.010 ms) exceeds 25x"), "{err}");
    }

    #[test]
    fn checker_enforces_the_resident_rho_cap() {
        let mut rows = ten_k_rows();
        rows[3].nums[4].1 = 100.0 * 1024.0 * 1024.0;
        assert_eq!(check_rows(&rows), Ok(5), "exactly 100 MB passes");
        rows[3].nums[4].1 += 1.0;
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("resident rho bytes"), "{err}");
        // The field itself is mandatory on the ten-thousand-org row.
        rows[3].nums.remove(4);
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("missing \"rho_resident_bytes\""), "{err}");
    }

    #[test]
    fn checker_enforces_sparse_dense_bit_identity() {
        let mut rows = ten_k_rows();
        rows[4].nums[2].1 = 0.0;
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("bit-identical"), "{err}");
        // The field itself is mandatory on the agreement row.
        rows[4].nums.remove(2);
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("bit_identical"), "{err}");
    }

    #[test]
    fn checker_rejects_nonpositive_and_missing_timings() {
        let bad = |row: Row| check_rows(&[row]).unwrap_err();
        let err = bad(Row::new("x", &[("solve_ms", -1.0)]));
        assert!(err.contains("\"solve_ms\" = -1 not positive"), "{err}");
        assert!(bad(Row::new("x", &[("orgs", 10.0)])).contains("no \"_ms\" field"));
    }

    #[test]
    fn fast_mode_rows_are_a_subset_of_full_mode_rows() {
        // The CI gate compares fast-mode output against the committed
        // full-mode file; every fast row name must exist there.
        let fast_names = ["dbr_solve_n10", "dbr_solve_n100", "fedavg_round_n10",
            "fedavg_round_n100", "batched_gemm_32x64x96"];
        let full_names = ["dbr_solve_n10", "dbr_solve_n100", "dbr_solve_n1000",
            "dbr_solve_n10000", "dbr_sparse_agreement_n1000",
            "fedavg_round_n10", "fedavg_round_n100", "fedavg_round_n1000",
            "batched_gemm_32x64x96"];
        for name in fast_names {
            assert!(full_names.contains(&name), "{name} missing from full mode");
        }
    }
}
