//! Tests of the benchmark itself: every output check must reject a
//! deliberately corrupted result, a seed must pin the op inputs, and
//! tracing must not change any output. Shapes are shrunk so the suite
//! runs in seconds (`cargo test --release`).

use std::fmt::Write as _;

use super::*;

fn small(w: Workload) -> Shape {
    let full = w.shape();
    match w {
        Workload::PipelinePaper => Shape {
            orgs: 4,
            rounds: 3,
            test_samples: 200,
            warmups: 1,
            ..full
        },
        Workload::MarketN10k => Shape {
            orgs: 300,
            density: 0.05,
            markets: 2,
            ..full
        },
        Workload::EngineS100 | Workload::EngineFaults => Shape {
            sessions: 3,
            ..full
        },
    }
}

/// The message of a check that must reject its input.
fn rejection<T>(checked: Result<T, String>) -> String {
    checked.err().unwrap_or_else(|| "accepted".into())
}

fn run_units(w: Workload, seed: u64, traced: bool, units: u64) -> Run {
    let mut run = Run::new(seed, small(w), traced, Limit::Units(units));
    drive(w, &mut run);
    run
}

#[test]
fn every_workload_passes_its_checks_and_tracing_changes_no_output() -> Result<(), String> {
    for w in Workload::ALL {
        let plain = run_units(w, 11, false, 2);
        assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.failures);
        assert!(
            !plain.ops.is_empty() && plain.work > 0.0 && !plain.setup.is_empty(),
            "{}",
            w.name()
        );

        let traced = run_units(w, 11, true, 2);
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.failures);
        // The untraced half of the traced run saw the same inputs and
        // reached the same equilibria and state roots.
        assert_eq!(traced.digests, plain.digests, "{}", w.name());
        assert_eq!(traced.ops.len(), traced.traced_ops.len(), "{}", w.name());
        let (mean, _) = traced
            .tr
            .coverage()
            .ok_or("traced ops have no root spans")?;
        assert!(mean > 0.95, "{}: span coverage {mean}", w.name());

        let other = run_units(w, 12, false, 2);
        assert_ne!(
            other.digests,
            plain.digests,
            "{}: another seed, other outputs",
            w.name()
        );
    }
    Ok(())
}

/// The first `n` op inputs of `workload` under `seed`, rendered as
/// bytes (markets and engine configurations in full).
fn op_inputs(workload: Workload, shape: &Shape, seed: u64, n: u64) -> Result<Vec<u8>, String> {
    let mut out = String::new();
    for k in 0..n {
        let _ = match workload {
            Workload::PipelinePaper => {
                let s = pipeline_input(seed, k);
                let market = MarketConfig::table_ii()
                    .with_orgs(shape.orgs)
                    .build(s)
                    .map_err(err)?;
                writeln!(out, "{s} {market:?}")
            }
            Workload::MarketN10k => {
                let m = k % shape.markets as u64;
                writeln!(out, "{m} {:?}", sparse_market(shape, seed, m).map_err(err)?)
            }
            Workload::EngineS100 | Workload::EngineFaults => {
                let (s, config) = engine_input(shape, seed, k, workload == Workload::EngineFaults);
                writeln!(out, "{s} {config:?}")
            }
        };
    }
    Ok(out.into_bytes())
}

#[test]
fn same_seed_gives_byte_identical_op_inputs() -> Result<(), String> {
    for w in Workload::ALL {
        let shape = small(w);
        let a = op_inputs(w, &shape, 5, 3)?;
        assert_eq!(a, op_inputs(w, &shape, 5, 3)?, "{}", w.name());
        assert_ne!(a, op_inputs(w, &shape, 6, 3)?, "{}", w.name());
    }
    Ok(())
}

fn pipeline_output() -> Result<(PipelinePaper, PipelineOutput), String> {
    let p = PipelinePaper::new(small(Workload::PipelinePaper));
    let out = p.run_op(pipeline_input(3, 0), &mut Tracer::new(false))?;
    p.check_output(&out)?;
    Ok((p, out))
}

#[test]
fn pipeline_check_rejects_an_inconsistent_settlement() -> Result<(), String> {
    let (p, mut out) = pipeline_output()?;
    out.settlement.onchain_redistribution[0] += 1.0;
    let e = rejection(p.check_output(&out));
    assert!(e.contains("settlement inconsistent"), "{e}");
    Ok(())
}

#[test]
fn pipeline_check_rejects_a_profile_that_is_not_nash() -> Result<(), String> {
    let (p, mut out) = pipeline_output()?;
    let minimal = StrategyProfile::minimal(out.game.market());
    let i = (0..minimal.len())
        .find(|&i| minimal[i] != out.eq.profile[i])
        .ok_or("profile is minimal")?;
    out.eq.profile.set(i, minimal[i]);
    let e = rejection(p.check_output(&out));
    assert!(e.contains("Nash"), "{e}");
    Ok(())
}

#[test]
fn pipeline_check_rejects_training_that_does_not_lower_the_loss() -> Result<(), String> {
    let (p, mut out) = pipeline_output()?;
    let first = out.training.history[0].loss;
    out.training.history.last_mut().ok_or("no history")?.loss = first;
    let e = rejection(p.check_output(&out));
    assert!(e.contains("loss"), "{e}");
    Ok(())
}

#[test]
fn market_check_rejects_a_perturbed_repeat_a_falling_potential_and_no_convergence(
) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let mut m = MarketN10k::new(7, &small(Workload::MarketN10k), &mut tr, &mut Vec::new())?;
    for _ in 0..2 {
        // The first solve records each market's digest; a faithful
        // repeat matches it.
        let out = m.op((), &mut tr)?;
        m.check(&out, &mut tr)?;
    }
    let mut perturbed = m.op((), &mut tr)?;
    perturbed[1].welfare = f64::from_bits(perturbed[1].welfare.to_bits() ^ 1);
    let e = rejection(m.check(&perturbed, &mut tr));
    assert!(e.contains("market 1: repeated solve differs"), "{e}");

    let mut falling = m.op((), &mut tr)?;
    let trace = &mut falling[0].potential_trace;
    let last = trace.len() - 1;
    trace[last] = trace[last - 1] - 1.0;
    let e = rejection(m.check(&falling, &mut tr));
    assert!(e.contains("potential"), "{e}");

    let mut stuck = m.op((), &mut tr)?;
    stuck[0].converged = false;
    let e = rejection(m.check(&stuck, &mut tr));
    assert!(e.contains("converge"), "{e}");
    Ok(())
}

fn finished_engine(faulted: bool) -> Result<(EngineConfig, Engine, EngineReport), String> {
    let w = if faulted {
        Workload::EngineFaults
    } else {
        Workload::EngineS100
    };
    let (seed, config) = engine_input(&small(w), 9, 0, faulted);
    let mut engine = Engine::new(config.clone(), seed).map_err(err)?;
    let report = engine.run().map_err(err)?;
    check_engine(&engine, &config, seed, &report, &mut Tracer::new(true))?;
    Ok((config, engine, report))
}

#[test]
fn engine_check_rejects_a_tampered_state_root() -> Result<(), String> {
    for faulted in [false, true] {
        let (config, engine, mut report) = finished_engine(faulted)?;
        report.state_root.0[0] ^= 1;
        let e = rejection(check_engine(
            &engine,
            &config,
            engine.seed(),
            &report,
            &mut Tracer::new(false),
        ));
        assert!(e.contains("state root"), "{e}");
    }
    Ok(())
}

#[test]
fn engine_check_rejects_an_unsettled_report() -> Result<(), String> {
    let (config, engine, mut report) = finished_engine(false)?;
    report.sessions_settled -= 1;
    let e = rejection(check_engine(
        &engine,
        &config,
        engine.seed(),
        &report,
        &mut Tracer::new(false),
    ));
    assert!(e.contains("not fully settled"), "{e}");
    Ok(())
}
