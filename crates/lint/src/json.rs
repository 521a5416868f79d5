//! Versioned JSON output (`tradefl-lint/v2`) and the in-tree schema
//! checker that CI runs against it.
//!
//! # The v2 contract
//!
//! ```text
//! {
//!   "schema": "tradefl-lint/v2",
//!   "rules": ["allow-span-precision", "bad-allow", …],
//!   "findings": [
//!     {"rule": "…", "file": "crates/…/x.rs", "line": 12, "message": "…"}
//!   ],
//!   "count": 1
//! }
//! ```
//!
//! Invariants the checker enforces (and CI gates on):
//!
//! * top level is an object whose `schema` is exactly `tradefl-lint/v2`;
//! * `rules` lists every known rule id (sorted, deduplicated) so
//!   downstream tooling can detect rule-set drift without running the
//!   binary;
//! * `findings` is an array of objects, each with string `rule`
//!   (drawn from `rules`), `/`-separated string `file`, integer
//!   `line ≥ 1`, and non-empty string `message`;
//! * `count` equals `findings.len()` — a truncated or concatenated
//!   report fails closed.
//!
//! v1 (the old ad-hoc `{"findings": …, "count": …}` shape with no
//! `schema` key) is rejected by the checker; the CLI no longer emits
//! it. Both directions go through the workspace's one JSON module,
//! [`tradefl_runtime::json`] (no registry dependency).

use crate::engine::Finding;
use tradefl_runtime::json::{write_str, Json};

/// Renders findings in the v2 schema (see the module docs).
pub fn render_v2(findings: &[Finding]) -> String {
    let mut rule_ids: Vec<&str> = crate::rules::RULES.iter().map(|r| r.id).collect();
    rule_ids.sort_unstable();
    let mut out = String::from("{\"schema\":\"tradefl-lint/v2\",\"rules\":[");
    for (i, id) in rule_ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&mut out, id);
    }
    out.push_str("],\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        write_str(&mut out, &f.rule);
        out.push_str(",\"file\":");
        write_str(&mut out, &f.file);
        out.push_str(&format!(",\"line\":{},\"message\":", f.line));
        write_str(&mut out, &f.message);
        out.push('}');
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

/// Validates a v2 report. Returns the finding count on success, or the
/// first contract violation. CI feeds the live `--workspace --json`
/// output through this to catch schema drift between the renderer and
/// consumers.
pub fn check_v2(text: &str) -> Result<usize, String> {
    let v = Json::parse(text)?;
    let Json::Obj(_) = &v else {
        return Err("top level is not an object".to_string());
    };
    match v.get("schema").and_then(Json::as_str) {
        Some("tradefl-lint/v2") => {}
        Some(other) => return Err(format!("schema is `{other}`, expected `tradefl-lint/v2`")),
        None => return Err("missing string `schema` key (v1 output?)".to_string()),
    }
    let Some(Json::Arr(rules)) = v.get("rules") else {
        return Err("missing `rules` array".to_string());
    };
    let mut rule_ids = Vec::new();
    for r in rules {
        let id = r.as_str().ok_or("non-string entry in `rules`")?;
        rule_ids.push(id);
    }
    let mut sorted = rule_ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted != rule_ids {
        return Err("`rules` is not sorted and deduplicated".to_string());
    }
    let Some(Json::Arr(findings)) = v.get("findings") else {
        return Err("missing `findings` array".to_string());
    };
    for (i, f) in findings.iter().enumerate() {
        let Json::Obj(_) = f else {
            return Err(format!("findings[{i}] is not an object"));
        };
        let rule = f
            .get("rule")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}] missing string `rule`"))?;
        if !rule_ids.contains(&rule) {
            return Err(format!("findings[{i}] rule `{rule}` not in `rules`"));
        }
        let file = f
            .get("file")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}] missing string `file`"))?;
        if file.contains('\\') {
            return Err(format!("findings[{i}] file `{file}` is not /-separated"));
        }
        let line = f
            .get("line")
            .and_then(Json::as_u64)
            .ok_or(format!("findings[{i}] missing integer `line`"))?;
        if line < 1 {
            return Err(format!("findings[{i}] line {line} is not 1-based"));
        }
        let message = f
            .get("message")
            .and_then(Json::as_str)
            .ok_or(format!("findings[{i}] missing string `message`"))?;
        if message.is_empty() {
            return Err(format!("findings[{i}] has an empty message"));
        }
    }
    let count = v
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("missing integer `count`")?;
    if count != findings.len() as u64 {
        return Err(format!(
            "count {count} does not match findings.len() {}",
            findings.len()
        ));
    }
    Ok(findings.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, line: u32) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: format!("{rule} fired"),
        }
    }

    #[test]
    fn rendered_v2_round_trips_through_the_checker() {
        let findings = vec![
            finding("no-wallclock", "crates/core/src/x.rs", 3),
            finding("unused-allow", "crates/core/src/y.rs", 9),
        ];
        let text = render_v2(&findings);
        assert_eq!(check_v2(&text), Ok(2));
    }

    #[test]
    fn empty_report_is_valid() {
        assert_eq!(check_v2(&render_v2(&[])), Ok(0));
    }

    #[test]
    fn v1_shape_is_rejected() {
        let v1 = "{\"findings\":[],\"count\":0}";
        let err = check_v2(v1).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn count_mismatch_fails_closed() {
        let text = render_v2(&[finding("no-wallclock", "a.rs", 1)]);
        let broken = text.replace("\"count\":1", "\"count\":7");
        assert!(check_v2(&broken).unwrap_err().contains("count"));
    }

    #[test]
    fn unknown_rule_in_findings_is_rejected() {
        let text = render_v2(&[finding("made-up-rule", "a.rs", 1)]);
        let err = check_v2(&text).unwrap_err();
        assert!(err.contains("made-up-rule"), "{err}");
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let f = Finding {
            rule: "no-wallclock".to_string(),
            file: "crates/core/src/x.rs".to_string(),
            line: 2,
            message: "quote \" backslash \\ newline \n cr \r tab \t control \u{1} café".into(),
        };
        let text = render_v2(&[f.clone()]);
        let v = Json::parse(&text).unwrap();
        let Some(Json::Arr(fs)) = v.get("findings") else { panic!() };
        assert_eq!(fs[0].get("message").and_then(Json::as_str), Some(f.message.as_str()));
    }
}
