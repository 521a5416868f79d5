//! End-to-end and per-layer benchmark of the TradeFL workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `pipeline_paper`, `market_n10k`, `engine_s100`,
//! `engine_faults` (see README.md in this directory). Each is a closed
//! loop driven by one client thread. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` runs every op input twice, traced
//! and untraced, and reports the per-layer metrics, the tracing
//! overhead and the span coverage.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use stats::{median, peak_rss_mb, percentile};
use trace::OP;
use workloads::{drive, Limit, Run, Workload, POOL_WORKERS};

/// End-to-end metrics of an untraced run, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_s_p50", "s"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics of a traced run. `_s` names are mean seconds per
/// call of the span of that name; the others are mean counts.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.market_build_s", "s"),
    ("core.market_build_sparse_s", "s"),
    ("core.incremental_new_s", "s"),
    ("core.rho_nnz", "count"),
    ("core.rho_resident_bytes", "bytes"),
    ("solver.dbr_solve_s", "s"),
    ("solver.dbr_iterations", "count"),
    ("fl.data_gen_s", "s"),
    ("fl.model_init_s", "s"),
    ("fl.train_s", "s"),
    ("fl.samples_trained", "count"),
    ("ledger.deploy_s", "s"),
    ("ledger.settle_s", "s"),
    ("ledger.apply_block_s", "s"),
    ("ledger.receipt_lookup_s", "s"),
    ("ledger.state_root_s", "s"),
    ("ledger.verify_s", "s"),
    ("ledger.encode_chain_s", "s"),
    ("ledger.decode_chain_s", "s"),
    ("ledger.chain_bytes", "bytes"),
    ("engine.new_s", "s"),
    ("engine.block_step_s", "s"),
    ("engine.blocks", "count"),
    ("engine.other_step_s", "s"),
    ("engine.other_steps", "count"),
    ("engine.report_s", "s"),
    ("engine.heals", "count"),
    ("engine.byzantine_rounds", "count"),
    ("engine.requeues", "count"),
    ("engine.blocks_per_term", "ratio"),
    ("engine.checkpoint_s", "s"),
    ("engine.checkpoint_bytes", "bytes"),
    ("engine.restore_s", "s"),
    ("trace.op_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.untraced_op_s_p50", "s"),
    ("trace.traced_op_s_p50", "s"),
];

const USAGE: &str =
    "usage: perfbench --workload <pipeline_paper|market_n10k|engine_s100|engine_faults> \
     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    limit: Limit,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let limit = match seconds {
        Some(s) if s > 0.0 => Limit::Seconds(s),
        _ => return Err("--seconds (positive) is required".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        limit,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shape = args.workload.shape();
    println!(
        "perfbench workload={} seed={} nproc={} pool_workers={POOL_WORKERS} trace={} limit={:?}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(args.trace),
        args.limit,
    );
    println!("shape {}", shape.describe());

    let mut run = Run::new(args.seed, shape, args.trace, args.limit);
    drive(args.workload, &mut run);
    for f in &run.failures {
        eprintln!("FAILED: {f}");
    }

    let metrics = if args.trace {
        print!("{}", layer_table(&run));
        if let Err(e) = write_trace(&run, args.workload) {
            eprintln!("trace not written: {e}");
        }
        per_layer_metrics(&run)
    } else {
        let m = end_to_end_metrics(&run);
        print!("{}", end_to_end_table(&run, args.workload, &m));
        m
    };
    println!("{}", result_json(&run, &metrics));
    ExitCode::SUCCESS
}

/// The name under which a workload's throughput is reported in the
/// human-readable table.
fn work_name(w: Workload) -> &'static str {
    match w {
        Workload::PipelinePaper => "train_samples_per_s",
        Workload::MarketN10k => "org_updates_per_s",
        Workload::EngineS100 | Workload::EngineFaults => "settle_per_s",
    }
}

fn end_to_end_metrics(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let values = [
        median(&run.setup),
        peak_rss_mb().unwrap_or(f64::NAN),
        median(&run.ops),
        run.work / run.work_secs,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn end_to_end_table(run: &Run, w: Workload, m: &[(&'static str, f64, &'static str)]) -> String {
    let mut out = String::new();
    let n = run.ops.len();
    for &(name, value, unit) in m {
        let (label, count) = match name {
            "setup_s" => (name, format!("{} set-up units", run.setup.len())),
            "work_per_s" => (work_name(w), format!("{n} ops")),
            _ => (name, format!("{n} ops")),
        };
        let _ = writeln!(
            out,
            "{:<16} {label:<22} {value:>14.6} {unit:<6} {count}",
            w.name()
        );
    }
    // The p90 needs at least ten ops beyond it.
    let p90 = if n >= 100 {
        format!("{:>14.6}", percentile(&run.ops, 90.0))
    } else {
        "n/a (<100 ops)".into()
    };
    let _ = writeln!(
        out,
        "{:<16} {:<22} {p90:>14} {:<6} {n} ops",
        w.name(),
        "op_s_p90",
        "s"
    );
    out
}

fn per_layer_metrics(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let layers = run.tr.layers();
    let counts = run.tr.count_means();
    let coverage = run.tr.coverage().map_or(0.0, |c| c.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.op_s" => span_mean(&layers, OP),
                "trace.coverage" => coverage,
                "trace.untraced_op_s_p50" => finite_or_zero(median(&run.ops)),
                "trace.traced_op_s_p50" => finite_or_zero(median(&run.traced_ops)),
                _ if unit == "s" => span_mean(&layers, name),
                _ => counts.get(name).copied().unwrap_or(0.0),
            };
            (name, value, unit)
        })
        .collect()
}

fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Mean seconds per call of the spans named `name`, 0 if none ran.
fn span_mean(layers: &[trace::LayerRow], name: &str) -> f64 {
    layers
        .iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.total / r.calls as f64)
}

fn layer_table(run: &Run) -> String {
    let layers = run.tr.layers();
    let op_total = layers
        .iter()
        .find(|r| r.name == OP)
        .map_or(0.0, |r| r.total);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>12} {:>8}",
        "layer (self time)", "calls", "self_s", "mean_s", "op_share"
    );
    for r in &layers {
        let share = if r.in_op && op_total > 0.0 {
            format!("{:>7.2}%", 100.0 * r.self_time / op_total)
        } else {
            "off-op".into()
        };
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.6} {:>12.3e} {share:>8}",
            r.name,
            r.calls,
            r.self_time,
            r.total / r.calls as f64
        );
    }
    for (name, mean) in run.tr.count_means() {
        let _ = writeln!(out, "{name:<28} mean {mean:.6}");
    }
    if let Some((mean, min)) = run.tr.coverage() {
        let _ = writeln!(
            out,
            "span coverage of op time: mean {:.2}%, min {:.2}%",
            100.0 * mean,
            100.0 * min
        );
    }
    let (untraced, traced) = (median(&run.ops), median(&run.traced_ops));
    let _ = writeln!(
        out,
        "tracing overhead: traced op_s_p50 {traced:.6} - untraced op_s_p50 {untraced:.6} = {:+.6} s ({:+.2}%) over {} paired ops",
        traced - untraced,
        100.0 * (traced - untraced) / untraced,
        run.ops.len().min(run.traced_ops.len()),
    );
    let same = if run.failed == 0 {
        "identical"
    } else {
        "see failures"
    };
    let _ = writeln!(
        out,
        "traced vs untraced outputs (equilibria, state roots): {same}"
    );
    out
}

fn write_trace(run: &Run, w: Workload) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", w.name(), run.seed));
    std::fs::write(&path, run.tr.to_jsonl())?;
    println!(
        "trace: {} spans written to {}",
        run.tr.spans().len(),
        path.display()
    );
    Ok(())
}

fn result_json(run: &Run, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN/inf; a metric that could not be measured
            // makes the run incorrect instead.
            let v = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = run.failed == 0 && run.attempted > 0 && metrics.iter().all(|m| m.1.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests;
