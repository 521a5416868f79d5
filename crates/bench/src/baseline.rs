//! The perf-baseline harness behind the `baseline` binary and the
//! committed `BENCH_<suite>.json` files.
//!
//! A [`Suite`] is a schema tag, a run function returning named rows of
//! named numbers, and the invariants its files must satisfy. [`SUITES`]
//! is the whole table:
//!
//! | suite | schema | rows |
//! |---|---|---|
//! | `solvers` | `tradefl-bench-baseline/v1` | serial vs pooled solver/FL workloads |
//! | `gemm` | `tradefl-bench-gemm/v1` | naive vs blocked vs pooled GEMM on the paper's layer shapes |
//! | `engine` | `tradefl-bench-engine/v1` | market-engine setup, run, round p99, settlements/s |
//! | `scale` | `tradefl-bench-scale/v1` | DBR at N = 10…10,000, sparse/dense agreement, FedAvg, batched GEMM |
//!
//! Every file shares one layout: a header (`schema`, `mode`, `workers`
//! when the suite uses a pool, `host_parallelism`, `repeats`) and a
//! `benches` array of flat rows, each a `name` plus numeric fields.
//! [`check`] picks the suite from the file's `schema` tag, validates the
//! shared layout, then runs the suite's invariants; [`gate`] compares a
//! fresh recording against a committed one. Both are what
//! `scripts/ci.sh` runs on every build.

mod engine;
mod gemm;
mod scale;
mod solvers;

use tradefl_runtime::json::Json;

/// One recorded row: a name and its named numbers. Keys ending in
/// `_ms` are timings, which [`gate`] compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row name, unique within a file.
    pub name: String,
    /// `(key, value)` pairs in output order.
    pub nums: Vec<(String, f64)>,
}

impl Row {
    /// A row from borrowed keys.
    pub fn new(name: impl Into<String>, nums: &[(&str, f64)]) -> Row {
        Row { name: name.into(), nums: nums.iter().map(|&(k, v)| (k.to_string(), v)).collect() }
    }

    /// The named field, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.nums.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    fn require(&self, key: &str) -> Result<f64, String> {
        self.get(key).ok_or_else(|| format!("bench '{}': missing \"{key}\"", self.name))
    }

    /// The named field, which must be present, finite and positive.
    ///
    /// # Errors
    ///
    /// Names the row and field.
    pub fn positive(&self, key: &str) -> Result<f64, String> {
        let v = self.require(key)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("bench '{}': \"{key}\" = {v} not positive", self.name));
        }
        Ok(v)
    }

    /// The named count, which must be present and at least 1.
    ///
    /// # Errors
    ///
    /// Names the row and field.
    pub fn count(&self, key: &str) -> Result<f64, String> {
        let v = self.require(key)?;
        if v < 1.0 {
            return Err(format!("bench '{}': \"{key}\" = {v} < 1", self.name));
        }
        Ok(v)
    }

    /// Checks that the recorded ratio `key` agrees with the ratio
    /// implied by the row's own timings to within 5%.
    ///
    /// # Errors
    ///
    /// Names the row, field and both values.
    pub fn consistent(&self, key: &str, stated: f64, implied: f64) -> Result<(), String> {
        if (implied - stated).abs() > 0.05 * implied.abs().max(1.0) {
            return Err(format!(
                "bench '{}': {key} {stated} inconsistent with {implied:.3}",
                self.name
            ));
        }
        Ok(())
    }
}

/// One baseline suite.
#[derive(Debug)]
pub struct Suite {
    /// Short name: `baseline <name>` records it, to `BENCH_<name>.json`
    /// by default.
    pub name: &'static str,
    /// The `schema` tag written to, and required of, the suite's files.
    pub schema: &'static str,
    /// Pooled worker count, recorded as the `workers` header field (then
    /// required ≥ 1); `None` for suites that run no pool.
    pub workers: Option<usize>,
    /// The `repeats` header note, full mode then `--fast`.
    pub repeats: [&'static str; 2],
    /// Runs every bench (smoke scale when `fast`) and returns the rows.
    pub run: fn(fast: bool) -> Vec<Row>,
    /// The suite's invariants over every row of a file.
    pub invariants: fn(&[Row]) -> Result<(), String>,
}

/// Every baseline suite.
pub const SUITES: [Suite; 4] = [solvers::SUITE, gemm::SUITE, engine::SUITE, scale::SUITE];

/// The suite called `name`.
pub fn suite_named(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

fn suite_for(schema: &str) -> Result<&'static Suite, String> {
    SUITES
        .iter()
        .find(|s| s.schema == schema)
        .ok_or_else(|| format!("unknown schema '{schema}'"))
}

impl Suite {
    /// The default output file, `BENCH_<name>.json`.
    pub fn default_path(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Renders rows as one of this suite's baseline files.
    pub fn render(&self, rows: &[Row], fast: bool) -> String {
        let host = tradefl_runtime::sync::pool::host_parallelism();
        let mut header = vec![
            ("schema".to_string(), Json::Str(self.schema.into())),
            ("mode".to_string(), Json::Str(if fast { "fast" } else { "full" }.into())),
        ];
        if let Some(workers) = self.workers {
            header.push(("workers".to_string(), Json::Num(workers as f64)));
        }
        header.push(("host_parallelism".to_string(), Json::Num(host as f64)));
        header.push(("repeats".to_string(), Json::Str(self.repeats[usize::from(fast)].into())));
        let rows = rows
            .iter()
            .map(|row| {
                let mut pairs = vec![("name".to_string(), Json::Str(row.name.clone()))];
                pairs.extend(row.nums.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
                Json::Obj(pairs)
            })
            .collect();
        header.push(("benches".to_string(), Json::Arr(rows)));
        let mut out = Json::Obj(header).pretty(2);
        out.push('\n');
        out
    }
}

/// Validates a baseline file: well-formed JSON whose `schema` names a
/// suite, `host_parallelism` (and `workers`, for pooled suites) ≥ 1, a
/// non-empty `benches` array of rows that each carry a string `name`
/// and only numeric fields, and the suite's own invariants. Returns the
/// suite and the row count.
///
/// # Errors
///
/// The first violation.
pub fn check(text: &str) -> Result<(&'static Suite, usize), String> {
    let root = Json::parse(text)?;
    let schema = root.get("schema").and_then(Json::as_str).ok_or("missing \"schema\"")?;
    let suite = suite_for(schema)?;
    let header_counts: &[&str] = match suite.workers {
        Some(_) => &["workers", "host_parallelism"],
        None => &["host_parallelism"],
    };
    for key in header_counts {
        let v = root
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric \"{key}\""))?;
        if v < 1.0 {
            return Err(format!("\"{key}\" = {v} < 1"));
        }
    }
    let benches = match root.get("benches").and_then(Json::as_arr) {
        Some([]) => return Err("\"benches\" is empty".into()),
        Some(rows) => rows,
        None => return Err("missing \"benches\" array".into()),
    };
    let rows: Vec<Row> =
        benches.iter().enumerate().map(|(i, b)| parse_row(i, b)).collect::<Result<_, _>>()?;
    (suite.invariants)(&rows)?;
    Ok((suite, rows.len()))
}

fn parse_row(i: usize, row: &Json) -> Result<Row, String> {
    let name = row
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("bench {i}: missing \"name\""))?;
    let mut nums = Vec::new();
    for (key, value) in row.as_obj().unwrap_or_default() {
        if key != "name" {
            let v = value.as_num().ok_or_else(|| format!("bench '{name}': \"{key}\" not numeric"))?;
            nums.push((key.clone(), v));
        }
    }
    Ok(Row { name: name.to_string(), nums })
}

/// Default multiplicative tolerance for [`gate`]: a freshly measured
/// median may be up to this many times the committed one before the
/// gate fails. Deliberately generous — the CI smoke run shares the
/// host with the rest of the gate and the fast-mode solver instances
/// are smaller than the committed full-mode ones, so the gate exists
/// to catch order-of-magnitude regressions, not percent-level drift.
pub const GATE_TOLERANCE: f64 = 3.0;

/// Compares a freshly measured baseline (`current`) against a
/// committed one (`committed`) of the same suite: `benches[]` rows are
/// matched by `name`, and within matched rows every numeric field whose
/// key ends in `_ms` and that both rows carry is compared. The gate
/// fails if any current median exceeds `tolerance ×` the committed
/// median. Rows or fields present on only one side are skipped
/// (instance sizes and columns may evolve independently), but an empty
/// comparison set is an error so the gate can never pass vacuously.
///
/// Returns the suite and the number of `(row, field)` pairs compared.
///
/// # Errors
///
/// The first parse/shape failure, or the full list of tolerance
/// violations.
pub fn gate(
    current: &str,
    committed: &str,
    tolerance: f64,
) -> Result<(&'static Suite, usize), String> {
    let cur = Json::parse(current).map_err(|e| format!("current baseline: {e}"))?;
    let com = Json::parse(committed).map_err(|e| format!("committed baseline: {e}"))?;
    let cur_schema = cur.get("schema").and_then(Json::as_str).unwrap_or_default();
    let com_schema = com.get("schema").and_then(Json::as_str).unwrap_or_default();
    if cur_schema != com_schema {
        return Err(format!("schema mismatch: '{cur_schema}' vs '{com_schema}'"));
    }
    let suite = suite_for(com_schema)?;
    let cur_rows = cur.get("benches").and_then(Json::as_arr).unwrap_or_default();
    let com_rows = com.get("benches").and_then(Json::as_arr).unwrap_or_default();
    let mut compared = 0usize;
    let mut violations = Vec::new();
    for com_row in com_rows {
        let Some(name) = com_row.get("name").and_then(Json::as_str) else { continue };
        let Some(cur_row) = cur_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for (key, value) in com_row.as_obj().unwrap_or_default() {
            if !key.ends_with("_ms") {
                continue;
            }
            let (Some(com_ms), Some(cur_ms)) =
                (value.as_num(), cur_row.get(key).and_then(Json::as_num))
            else {
                continue;
            };
            compared += 1;
            if cur_ms > tolerance * com_ms {
                violations.push(format!(
                    "{name}.{key}: {cur_ms:.3} ms exceeds {tolerance}x committed {com_ms:.3} ms"
                ));
            }
        }
    }
    if !violations.is_empty() {
        return Err(violations.join("; "));
    }
    if compared == 0 {
        return Err("no comparable (bench, field) pairs — the gate would be vacuous".into());
    }
    Ok((suite, compared))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `solvers`-suite file with the given rows.
    fn baseline(rows: &str) -> String {
        format!(
            "{{\"schema\": \"tradefl-bench-baseline/v1\", \"workers\": 4, \
             \"host_parallelism\": 1, \"benches\": [{rows}]}}"
        )
    }

    #[test]
    fn suites_are_found_by_name_and_schema() {
        for suite in &SUITES {
            assert_eq!(suite_named(suite.name).map(|s| s.schema), Some(suite.schema));
            assert_eq!(suite_for(suite.schema).map(|s| s.name), Ok(suite.name));
            assert_eq!(suite.default_path(), format!("BENCH_{}.json", suite.name));
        }
        assert!(suite_named("nope").is_none());
    }

    #[test]
    fn committed_baselines_pass_their_suites_checks() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for suite in &SUITES {
            let text = std::fs::read_to_string(root.join(suite.default_path())).unwrap();
            let (found, rows) = check(&text).unwrap();
            assert_eq!(found.name, suite.name);
            assert!(rows > 0);
        }
    }

    #[test]
    fn check_rejects_garbage_unknown_schemas_and_bad_headers() {
        assert!(check("not json").is_err());
        assert!(check("{\"schema\": \"other/v9\"}").unwrap_err().contains("unknown schema"));
        assert!(check("{\"benches\": []}").unwrap_err().contains("schema"));
        assert!(check(&baseline("")).unwrap_err().contains("empty"));
        let no_rows =
            "{\"schema\": \"tradefl-bench-baseline/v1\", \"workers\": 4, \"host_parallelism\": 1}";
        assert!(check(no_rows).unwrap_err().contains("benches"));
        let row = "{\"name\": \"x\", \"serial_ms\": 2.0, \"pooled_ms\": 1.0, \"speedup\": 2.0}";
        assert_eq!(check(&baseline(row)).map(|(s, n)| (s.name, n)), Ok(("solvers", 1)));
        let header = |workers: &str, host: &str| {
            format!(
                "{{\"schema\": \"tradefl-bench-baseline/v1\", \"workers\": {workers}, \
                 \"host_parallelism\": {host}, \"benches\": [{row}]}}"
            )
        };
        assert!(check(&header("0", "1")).unwrap_err().contains("\"workers\" = 0 < 1"));
        assert!(check(&header("4", "0")).unwrap_err().contains("\"host_parallelism\" = 0 < 1"));
        assert!(check(&header("\"4\"", "1")).unwrap_err().contains("numeric \"workers\""));
        let unnamed = row.replace("\"name\": \"x\", ", "");
        assert!(check(&baseline(&unnamed)).unwrap_err().contains("missing \"name\""));
        let stringly = row.replace("2.0, \"pooled", "\"2.0\", \"pooled");
        assert!(check(&baseline(&stringly)).unwrap_err().contains("not numeric"));
    }

    #[test]
    fn gate_passes_within_tolerance_and_counts_pairs() {
        let committed = baseline(
            "{\"name\": \"a\", \"serial_ms\": 10.0, \"pooled_ms\": 4.0, \"speedup\": 2.5}, \
             {\"name\": \"b\", \"serial_ms\": 1.0}",
        );
        let current = baseline(
            "{\"name\": \"a\", \"serial_ms\": 25.0, \"pooled_ms\": 2.0, \"speedup\": 12.5}, \
             {\"name\": \"b\", \"serial_ms\": 2.9}",
        );
        // serial_ms/pooled_ms on row a plus serial_ms on row b (3
        // pairs); the non-`_ms` speedup field is ignored even though
        // it blew up.
        assert_eq!(gate(&current, &committed, 3.0).map(|(s, n)| (s.name, n)), Ok(("solvers", 3)));
    }

    #[test]
    fn gate_fails_on_a_regression_and_names_the_field() {
        let committed = baseline("{\"name\": \"a\", \"serial_ms\": 1.0, \"pooled_ms\": 1.0}");
        let current = baseline("{\"name\": \"a\", \"serial_ms\": 1.5, \"pooled_ms\": 40.0}");
        let err = gate(&current, &committed, 3.0).unwrap_err();
        assert!(err.contains("a.pooled_ms"), "{err}");
        assert!(!err.contains("serial_ms"), "{err}");
    }

    #[test]
    fn gate_skips_one_sided_rows_but_rejects_a_vacuous_comparison() {
        let committed = baseline(
            "{\"name\": \"kept\", \"serial_ms\": 1.0, \"extra_ms\": 1.0}, \
             {\"name\": \"retired\", \"serial_ms\": 1.0}",
        );
        let current = baseline("{\"name\": \"kept\", \"serial_ms\": 1.0}");
        assert_eq!(gate(&current, &committed, 3.0).map(|(_, n)| n), Ok(1));
        let disjoint = baseline("{\"name\": \"new\", \"serial_ms\": 1.0}");
        assert!(gate(&disjoint, &committed, 3.0).is_err());
    }

    #[test]
    fn gate_rejects_schema_mismatch_unknown_schemas_and_garbage() {
        let a = baseline("{\"name\": \"x\", \"serial_ms\": 1.0}");
        let other = a.replace("tradefl-bench-baseline/v1", "tradefl-bench-gemm/v1");
        assert!(gate(&a, &other, 3.0).unwrap_err().contains("mismatch"));
        let unknown = a.replace("tradefl-bench-baseline/v1", "s/v1");
        assert!(gate(&unknown, &unknown, 3.0).unwrap_err().contains("unknown schema"));
        assert!(gate("nope", &a, 3.0).is_err());
        assert!(gate(&a, "nope", 3.0).is_err());
    }

    #[test]
    fn a_three_x_regression_trips_the_default_tolerance() {
        let committed = baseline("{\"name\": \"a\", \"serial_ms\": 1.0}");
        let at_bound = baseline("{\"name\": \"a\", \"serial_ms\": 3.0}");
        let over = baseline("{\"name\": \"a\", \"serial_ms\": 3.01}");
        assert!(gate(&at_bound, &committed, GATE_TOLERANCE).is_ok());
        assert!(gate(&over, &committed, GATE_TOLERANCE).is_err());
    }
}
