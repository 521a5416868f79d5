//! Records and checks the committed perf baselines (`BENCH_*.json`),
//! one suite of [`tradefl_bench::baseline::SUITES`] at a time.
//!
//! Usage:
//!   baseline SUITE [--fast] [--out FILE]  # run a suite, write JSON
//!   baseline --check FILE...              # validate baseline files
//!   baseline --gate CURRENT COMMITTED     # regression gate
//!
//! SUITE is `solvers`, `gemm`, `engine` or `scale`; the default output
//! is `BENCH_<SUITE>.json`. `--fast` runs smoke scale (what each suite
//! shrinks is in its module docs). `--check` and `--gate` pick the
//! suite from each file's `schema` tag; `--gate` fails if a fresh
//! median exceeds [`GATE_TOLERANCE`]× the committed one.
//!
//! Exit codes: `0` success, `1` a file failed its check or the gate,
//! `2` usage or I/O error.

use std::process::ExitCode;
use tradefl_bench::baseline::{check, gate, suite_named, GATE_TOLERANCE, SUITES};

fn usage() -> ExitCode {
    let names: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: baseline SUITE [--fast] [--out FILE]\n\
         \x20      baseline --check FILE...\n\
         \x20      baseline --gate CURRENT COMMITTED\n\
         suites: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("baseline: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

fn check_files(paths: &[String]) -> Result<(), ExitCode> {
    for path in paths {
        match check(&read(path)?) {
            Ok((suite, n)) => {
                println!("baseline --check: {path} OK ({} suite, {n} benches)", suite.name)
            }
            Err(e) => {
                eprintln!("baseline --check: {path} MALFORMED: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(())
}

fn gate_files(cur: &str, com: &str) -> Result<(), ExitCode> {
    match gate(&read(cur)?, &read(com)?, GATE_TOLERANCE) {
        Ok((suite, n)) => {
            println!(
                "baseline --gate: {cur} vs {com} OK ({} suite, {n} medians within \
                 {GATE_TOLERANCE}x)",
                suite.name
            );
            Ok(())
        }
        Err(e) => {
            eprintln!("baseline --gate: {cur} vs {com} REGRESSION: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--check") if args.len() > 1 => check_files(&args[1..]),
        Some("--gate") => match &args[1..] {
            [cur, com] => gate_files(cur, com),
            _ => return usage(),
        },
        Some(name) => {
            let Some(suite) = suite_named(name) else { return usage() };
            let mut fast = false;
            let mut out = suite.default_path();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--fast" => fast = true,
                    "--out" => match it.next() {
                        Some(path) => out = path.clone(),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let rows = (suite.run)(fast);
            let json = suite.render(&rows, fast);
            if let Err(e) = check(&json) {
                eprintln!("baseline: self-emitted {} baseline fails its check: {e}", suite.name);
                return ExitCode::FAILURE;
            }
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("baseline: cannot write {out}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {out}");
            for row in &rows {
                let nums: Vec<String> = row
                    .nums
                    .iter()
                    .map(|(k, v)| format!("{k} {}", (v * 1e4).round() / 1e4))
                    .collect();
                println!("  {:<34} {}", row.name, nums.join("   "));
            }
            Ok(())
        }
        None => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
