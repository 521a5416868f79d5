//! The `engine` suite (`BENCH_engine.json`): the market engine.
//!
//! Each row boots the persistent engine ([`tradefl_engine::Engine`])
//! on a workload shape — single session, multi-session, multi-session
//! under a seeded fault schedule — runs it to settlement, and records:
//!
//! * `setup_ms` — plan building (equilibrium solves) + network boot,
//! * `run_ms` — draining the whole event loop to settlement,
//! * `round_p99_ms` — p99 wall-clock latency of a block-producing
//!   event-loop step (sync + mine + archive apply + gossip fan-out)
//!   within one run, median over the repeats — each run's p99 is at
//!   most that run's time, so the median p99 is at most the median
//!   `run_ms`, which the checker requires,
//! * `settlements_per_sec` — scripted settlement transactions landed
//!   on-chain per wall-clock second of run time.
//!
//! Every run asserts full settlement and survivor convergence before
//! anything is recorded, so the baseline never times a broken engine.
//! `--fast` keeps the same workloads and only cuts the repeat count,
//! so the CI gate compares fast-mode medians against the committed
//! full-mode file like-for-like.

use super::{Row, Suite};
use crate::timing::{median_ms, p99_ms};
use std::time::Instant;
use tradefl_engine::{Engine, EngineConfig, SessionSpec};
use tradefl_runtime::sim::faults::FaultConfig;

const HORIZON: u64 = 1 << 10;
const SEED: u64 = 42;

pub(super) const SUITE: Suite = Suite {
    name: "engine",
    schema: "tradefl-bench-engine/v1",
    workers: None,
    repeats: ["median of 9", "median of 3 (fast)"],
    run,
    invariants,
};

/// Every row carries shape counts `sessions`, `validators`, `blocks`
/// and `txs` ≥ 1; positive `setup_ms`, `run_ms`, `round_p99_ms` and
/// `settlements_per_sec`, the last within 5% of `txs / run_ms`; and a
/// `round_p99_ms` no larger than the whole `run_ms`.
fn invariants(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        for key in ["sessions", "validators", "blocks"] {
            row.count(key)?;
        }
        let txs = row.count("txs")?;
        row.positive("setup_ms")?;
        let run_ms = row.positive("run_ms")?;
        let p99 = row.positive("round_p99_ms")?;
        let rate = row.positive("settlements_per_sec")?;
        row.consistent("settlements_per_sec", rate, txs / (run_ms / 1e3))?;
        if p99 > run_ms {
            return Err(format!(
                "bench '{}': round_p99_ms {p99} exceeds run_ms {run_ms}",
                row.name
            ));
        }
    }
    Ok(())
}

struct Spec {
    name: &'static str,
    sessions: usize,
    validators: usize,
    faulty: bool,
}

const SPECS: &[Spec] = &[
    Spec { name: "single_session_3v", sessions: 1, validators: 3, faulty: false },
    Spec { name: "multi_session_4v", sessions: 3, validators: 4, faulty: false },
    Spec { name: "multi_session_4v_faulty", sessions: 3, validators: 4, faulty: true },
];

fn config_for(spec: &Spec) -> EngineConfig {
    EngineConfig {
        validators: spec.validators,
        sessions: (0..spec.sessions)
            .map(|s| SessionSpec {
                name: format!("bench-{s}"),
                orgs: 3 + s % 3,
                seed: SEED.wrapping_add(s as u64),
            })
            .collect(),
        batch_interval: 8,
        mean_arrival_gap: 3.0,
        admission_capacity: 32,
        horizon: HORIZON,
        faults: if spec.faulty {
            FaultConfig::from_seed(SEED, spec.validators, HORIZON)
        } else {
            FaultConfig::none()
        },
        ..EngineConfig::default()
    }
}

fn run(fast: bool) -> Vec<Row> {
    let repeats = if fast { 3 } else { 9 };
    let mut rows = Vec::new();
    for spec in SPECS {
        let mut setup_samples = Vec::with_capacity(repeats);
        let mut run_samples = Vec::with_capacity(repeats);
        let mut round_p99_samples = Vec::with_capacity(repeats);
        let mut blocks = 0u64;
        // The Fig. 3 script length per session.
        let txs: usize = (0..spec.sessions).map(|s| 4 * (3 + s % 3) + 2).sum();
        for _ in 0..repeats {
            let t0 = Instant::now();
            let mut engine = Engine::new(config_for(spec), SEED).expect("bench engine boots");
            setup_samples.push(t0.elapsed().as_secs_f64() * 1e3);

            let mut round_samples = Vec::new();
            let t0 = Instant::now();
            loop {
                let height_before = engine.height();
                let ts = Instant::now();
                let more = engine.step().expect("bench run completes");
                if engine.height() > height_before {
                    round_samples.push(ts.elapsed().as_secs_f64() * 1e3);
                }
                if !more {
                    break;
                }
            }
            run_samples.push(t0.elapsed().as_secs_f64() * 1e3);
            let report = engine.report().expect("bench report");
            assert!(
                report.fully_settled(),
                "{}: bench workload must settle and converge: {report:?}",
                spec.name
            );
            blocks = report.blocks;
            round_p99_samples.push(p99_ms(round_samples));
        }
        let run_ms = median_ms(run_samples);
        rows.push(Row::new(
            spec.name,
            &[
                ("sessions", spec.sessions as f64),
                ("validators", spec.validators as f64),
                ("blocks", blocks as f64),
                ("txs", txs as f64),
                ("setup_ms", median_ms(setup_samples)),
                ("run_ms", run_ms),
                ("round_p99_ms", median_ms(round_p99_samples)),
                ("settlements_per_sec", txs as f64 / (run_ms / 1e3)),
            ],
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::super::check;
    use super::*;

    fn row(txs: f64, run_ms: f64, round_p99_ms: f64) -> Row {
        Row::new(
            "x",
            &[
                ("sessions", 1.0),
                ("validators", 3.0),
                ("blocks", 9.0),
                ("txs", txs),
                ("setup_ms", 5.0),
                ("run_ms", run_ms),
                ("round_p99_ms", round_p99_ms),
                ("settlements_per_sec", txs / (run_ms / 1e3)),
            ],
        )
    }

    fn check_rows(rows: &[Row]) -> Result<usize, String> {
        check(&SUITE.render(rows, true)).map(|(_, n)| n)
    }

    #[test]
    fn checker_accepts_emitted_shape() {
        assert_eq!(check_rows(&[row(14.0, 2.0, 0.5), row(48.0, 6.0, 0.9)]), Ok(2));
        // The header carries no `workers`: the engine runs no pool.
        assert!(!SUITE.render(&[row(14.0, 2.0, 0.5)], true).contains("workers"));
    }

    #[test]
    fn checker_rejects_inconsistent_settlement_rates() {
        let mut r = row(14.0, 2.0, 0.5);
        r.nums[7].1 = 1.0;
        let err = check_rows(&[r]).unwrap_err();
        assert!(err.contains("settlements_per_sec 1 inconsistent with 7000.0"), "{err}");
    }

    #[test]
    fn checker_rejects_a_round_p99_longer_than_the_run() {
        let err = check_rows(&[row(14.0, 2.0, 2.5)]).unwrap_err();
        assert!(err.contains("round_p99_ms 2.5 exceeds run_ms 2"), "{err}");
        assert_eq!(check_rows(&[row(14.0, 2.0, 2.0)]), Ok(1));
    }

    #[test]
    fn checker_rejects_empty_shapes() {
        for (i, key) in ["sessions", "validators", "blocks", "txs"].into_iter().enumerate() {
            let mut r = row(14.0, 2.0, 0.5);
            r.nums[i].1 = 0.0;
            let err = check_rows(&[r]).unwrap_err();
            assert!(err.contains(&format!("\"{key}\" = 0 < 1")), "{key}: {err}");
        }
    }
}
