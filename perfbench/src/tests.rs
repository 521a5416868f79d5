//! Tests of the command line and the result line.

use super::*;

fn parse(line: &str) -> Result<Args, String> {
    parse_args(
        &line
            .split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>(),
    )
}

#[test]
fn arguments_are_validated() -> Result<(), String> {
    let ok = parse("--workload market_n10k --seed 3 --seconds 10 --trace 1")?;
    assert!(ok.trace && ok.seed == 3 && ok.workload == Workload::MarketN10k);
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 0",
        "--workload market_n10k --seed 3 --trace 0",
        "--workload market_n10k --seed x --seconds 1 --trace 0",
        "--workload market_n10k --seed 3 --seconds 1 --trace 2",
        "--workload market_n10k --seed 3 --seconds 1 --trace",
        "--workload market_n10k --seed 3 --seconds 1 --bogus 1",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
    Ok(())
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut run = Run::new(1, Workload::EngineFaults.shape(), false, Limit::Units(1));
    run.attempted = 3;
    assert_eq!(
        result_json(&run, &[("op_s_p50", 0.25, "s")]),
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"op_s_p50": {"value": 0.25, "unit": "s"}}}"#
    );
    run.failed = 1;
    assert!(result_json(&run, &[]).starts_with(r#"{"correct": false"#));
}

/// `(name, unit)` of every metric BENCHMARK.json declares, in order.
fn declared_metrics(json: &str) -> Vec<(String, String)> {
    let field = |s: &str, key: &str| {
        let rest = &s[s.find(key)? + key.len()..];
        Some(rest[..rest.find('"')?].to_string())
    };
    json.split('{')
        .filter_map(|obj| Some((field(obj, "\"name\": \"")?, field(obj, "\"unit\": \"")?)))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() -> std::io::Result<()> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path)?;
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared_metrics(&json), expected);
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    Ok(())
}
