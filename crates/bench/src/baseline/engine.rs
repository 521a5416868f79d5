//! The `engine` suite (`BENCH_engine.json`): the market engine.
//!
//! Each row boots the persistent engine ([`tradefl_engine::Engine`])
//! on a workload shape — single session, multi-session, multi-session
//! under a seeded fault schedule — runs it to settlement, and records:
//!
//! * `setup_ms` — plan building (equilibrium solves) + network boot,
//! * `run_ms` — draining the whole event loop to settlement,
//! * `round_p99_ms` — p99 wall-clock latency of a block-producing
//!   event-loop step (proposer catch-up + mine + gossip fan-out)
//!   within one run, median over the repeats — each run's p99 is at
//!   most that run's time, so the median p99 is at most the median
//!   `run_ms`, which the checker requires,
//! * `settlements_per_sec` — scripted settlement transactions landed
//!   on-chain per wall-clock second of run time.
//!
//! The `multi_session_<n>` rows scale the fault-free shape to 30, 100
//! and 300 sessions, and the checker bounds how a settlement's cost
//! grows with them: at the largest session count, `run_ms / txs` may
//! be at most 3× the 3-session `multi_session_4v` row's.
//!
//! Every run asserts full settlement and survivor convergence before
//! anything is recorded, so the baseline never times a broken engine.
//! `--fast` cuts the repeat count and skips the 300-session row (as the
//! scale suite skips its N=1000 rows); the other rows keep their
//! workloads, so the CI gate compares fast-mode medians against the
//! committed full-mode file like-for-like.

use super::{Row, Suite};
use crate::timing::{median_ms, p99_ms};
use std::time::Instant;
use tradefl_engine::{Engine, EngineConfig, SessionSpec};
use tradefl_runtime::sim::faults::FaultConfig;

const HORIZON: u64 = 1 << 10;
const SEED: u64 = 42;
/// Acceptance bound on cost per settlement at the largest session
/// count over the 3-session row's: per-block engine work must not grow
/// with everything ever mined.
const SESSION_SCALE_BOUND: f64 = 3.0;

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
/// `round_p99_ms` no larger than the whole `run_ms`. With any
/// `multi_session_<n>` row present, the largest one's cost per
/// settlement is within [`SESSION_SCALE_BOUND`] of `multi_session_4v`'s.
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
    // Every row's `sessions` count was checked above.
    let sessions = |r: &Row| r.get("sessions").unwrap_or(0.0);
    let top = rows
        .iter()
        .filter(|r| SPECS.iter().any(|s| s.scaling && s.name == r.name))
        .max_by(|a, b| sessions(a).total_cmp(&sessions(b)));
    if let Some(top) = top {
        let base = rows
            .iter()
            .find(|r| r.name == "multi_session_4v")
            .ok_or("scaling rows need the 3-session multi_session_4v row to compare against")?;
        let per_settlement = |r: &Row| -> Result<f64, String> {
            Ok(r.positive("run_ms")? / r.count("txs")?)
        };
        let (big, small) = (per_settlement(top)?, per_settlement(base)?);
        if big > SESSION_SCALE_BOUND * small {
            return Err(format!(
                "bench '{}': {big:.4} ms per settlement exceeds {SESSION_SCALE_BOUND}x \
                 multi_session_4v's {small:.4} ms: engine cost grows with the session count",
                top.name
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
    /// A session-scaling row, bounded against `multi_session_4v`.
    scaling: bool,
}

const SPECS: &[Spec] = &[
    Spec { name: "single_session_3v", sessions: 1, validators: 3, faulty: false, scaling: false },
    Spec { name: "multi_session_4v", sessions: 3, validators: 4, faulty: false, scaling: false },
    Spec {
        name: "multi_session_4v_faulty",
        sessions: 3,
        validators: 4,
        faulty: true,
        scaling: false,
    },
    Spec { name: "multi_session_30", sessions: 30, validators: 4, faulty: false, scaling: true },
    Spec { name: "multi_session_100", sessions: 100, validators: 4, faulty: false, scaling: true },
    Spec { name: "multi_session_300", sessions: 300, validators: 4, faulty: false, scaling: true },
];

/// Fast mode's session cap: the 300-session row runs in full mode only.
const FAST_MAX_SESSIONS: usize = 100;

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
    for spec in SPECS.iter().filter(|s| !fast || s.sessions <= FAST_MAX_SESSIONS) {
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

    /// A well-formed row named `name` with `txs` settlements in `run_ms`.
    fn scaled(name: &str, sessions: f64, txs: f64, run_ms: f64) -> Row {
        let mut r = row(txs, run_ms, 0.5);
        r.name = name.into();
        r.nums[0].1 = sessions;
        r
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
    fn checker_bounds_settlement_cost_growth_at_the_largest_session_count() {
        // 3 sessions: 4 ms for 54 settlements, ~0.074 ms each.
        let base = scaled("multi_session_4v", 3.0, 54.0, 4.0);
        let s30 = scaled("multi_session_30", 30.0, 540.0, 45.0);
        let s100 = scaled("multi_session_100", 100.0, 1796.0, 200.0);
        let within = scaled("multi_session_300", 300.0, 5400.0, 1000.0); // ~2.5x
        let over = scaled("multi_session_300", 300.0, 5400.0, 1300.0); // ~3.25x
        let rows = |top: &Row| vec![base.clone(), s30.clone(), s100.clone(), top.clone()];
        assert_eq!(check_rows(&rows(&within)), Ok(4));
        let err = check_rows(&rows(&over)).unwrap_err();
        assert!(err.contains("bench 'multi_session_300'"), "{err}");
        assert!(err.contains("exceeds 3x multi_session_4v's 0.0741 ms"), "{err}");
        // Fast mode stops at 100 sessions, which is then the row bounded.
        let fast_over = scaled("multi_session_100", 100.0, 1796.0, 500.0);
        let err = check_rows(&[base.clone(), s30, fast_over]).unwrap_err();
        assert!(err.contains("bench 'multi_session_100'"), "{err}");
        // Scaling rows need the 3-session row to compare against.
        let err = check_rows(&[s100]).unwrap_err();
        assert!(err.contains("need the 3-session multi_session_4v row"), "{err}");
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
