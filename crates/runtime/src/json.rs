//! JSON: one value type, one parser and one writer for the whole
//! workspace (replacing `serde_json`).
//!
//! Every JSON document the workspace reads or writes goes through this
//! module: the observability exporter ([`crate::obs`]), the
//! `tradefl-lint/v2` report and its `--check-json` schema checker, the
//! committed `BENCH_*.json` baselines, and the `trace_check` validator.
//!
//! **Parser.** [`Json::parse`] reads one complete document (trailing
//! data is an error). Strings decode every JSON escape — `\" \\ \/ \b
//! \f \n \r \t \uXXXX`, with UTF-16 surrogate pairs combined and lone
//! surrogates mapped to U+FFFD — and pass multi-byte UTF-8 scalars
//! through intact. Nesting is capped at [`MAX_DEPTH`], so a file of a
//! million `[` is an error rather than a stack overflow: the parser
//! reads files from disk (`--check`, `--check-json`, `trace_check`).
//!
//! **Duplicate keys: the last occurrence wins.** An object that repeats
//! a key keeps only its last value, at the position of that last
//! occurrence, so [`Json::get`] and [`Json::as_obj`] always agree.
//!
//! **Writer.** [`write_str`] and [`write_f64`] are the one escaper and
//! the one number format. Strings escape `"`, `\`, `\n`, `\r`, `\t` by
//! name and every other control character as `\u00XX`; everything
//! else, including non-ASCII, is written verbatim. Floats use Rust's
//! shortest round-trip `Display` (deterministic across platforms), and
//! the non-finite values JSON cannot carry become the strings `"NaN"`,
//! `"Infinity"` and `"-Infinity"`. [`Json`]'s `Display` writes a
//! compact document; [`Json::pretty`] expands the outer levels onto
//! separate lines.
//!
//! ```
//! use tradefl_runtime::json::Json;
//!
//! let doc = Json::parse(r#"{"name": "café", "ms": [1.5, 2], "ms": 3}"#).unwrap();
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("café"));
//! assert_eq!(doc.get("ms").and_then(Json::as_num), Some(3.0));
//! assert_eq!(doc.to_string(), r#"{"name":"café","ms":3}"#);
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object in source order, duplicate keys resolved last-wins.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, with its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing data"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is integral, non-negative
    /// and exactly representable (`≤ 2^53`): `7.5` is not a line number.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(v) if (0.0..=EXACT).contains(v) && v.trunc() == *v => Some(*v as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders the document with its outer `levels` of arrays and
    /// objects expanded one element per line (two-space indent) and
    /// everything deeper written compactly. `pretty(0)` is the compact
    /// form; the baseline files use `pretty(2)`, one bench row a line.
    pub fn pretty(&self, levels: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, levels, 0);
        out
    }

    fn write(&self, out: &mut String, levels: usize, indent: usize) {
        let inner = levels.saturating_sub(1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, ['[', ']'], items, levels, indent, |out, v| {
                v.write(out, inner, indent + 2);
            }),
            Json::Obj(pairs) => write_seq(out, ['{', '}'], pairs, levels, indent, |out, (k, v)| {
                write_str(out, k);
                out.push_str(if levels > 0 { ": " } else { ":" });
                v.write(out, inner, indent + 2);
            }),
        }
    }
}

/// Writes a bracketed, comma-separated sequence, one item per line
/// when `levels > 0`.
fn write_seq<T>(
    out: &mut String,
    brackets: [char; 2],
    items: &[T],
    levels: usize,
    indent: usize,
    mut item: impl FnMut(&mut String, &T),
) {
    let newline = |out: &mut String, indent: usize| {
        if levels > 0 {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
        }
    };
    out.push(brackets[0]);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, indent + 2);
        item(out, x);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty(0))
    }
}

/// Writes `s` as a quoted JSON string literal (see the module docs for
/// the escaping rules).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an `f64` as a JSON number in shortest round-trip form, or as
/// one of the strings `"NaN"` / `"Infinity"` / `"-Infinity"`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{' | b'[') => {
                if self.depth >= MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = self.container();
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    /// Four hex digits after `\u`; `pos` is on the `u`.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let pair = self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u");
                            let code = if (0xd800..0xdc00).contains(&hi) && pair {
                                let save = self.pos;
                                self.pos += 2;
                                match self.hex4()? {
                                    lo @ 0xdc00..=0xdfff => {
                                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                    }
                                    _ => {
                                        self.pos = save;
                                        hi
                                    }
                                }
                            } else {
                                hi
                            };
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    // One whole UTF-8 scalar; the input is a `&str`, so
                    // the tail always decodes.
                    let tail = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let Some(c) = tail.chars().next() else {
                        return Err(self.error("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// An array or object; `pos` is on the opening bracket.
    fn container(&mut self) -> Result<Json, String> {
        let is_obj = self.bytes.get(self.pos) == Some(&b'{');
        let close = if is_obj { b'}' } else { b']' };
        self.pos += 1;
        let mut items = Vec::new();
        let mut pairs = Vec::new();
        if self.peek() != Some(close) {
            loop {
                if is_obj {
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected object key"));
                    }
                    let key = self.string()?;
                    if self.peek() != Some(b':') {
                        return Err(self.error("expected ':'"));
                    }
                    self.pos += 1;
                    pairs.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.pos += 1;
        Ok(if is_obj { Json::Obj(last_wins(pairs)) } else { Json::Arr(items) })
    }
}

/// Drops every pair whose key occurs again later in the object.
fn last_wins(pairs: Vec<(String, Json)>) -> Vec<(String, Json)> {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0).then(a.cmp(&b)));
    let mut shadowed = vec![false; pairs.len()];
    for w in order.windows(2) {
        if pairs[w[0]].0 == pairs[w[1]].0 {
            shadowed[w[0]] = true;
        }
    }
    if !shadowed.contains(&true) {
        return pairs;
    }
    pairs.into_iter().zip(shadowed).filter(|(_, s)| !s).map(|(p, _)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_of(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap(), &Json::Null);
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": [1, {\"b\": null}, true]}").is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "[1, 2", "{\"a\":}", "{} trailing", "{} extra", "\"unterminated",
            "{1: 2}", "{\"a\" 1}", "tru", "[1 2]", "\"bad \\q escape\"", "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn decodes_every_escape_and_utf8_scalar() {
        let text = r#""q\" b\\ s\/ \b\f\n\r\t \u0001 \u00e9 café \ud83d\ude00""#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \u{8}\u{c}\n\r\t \u{1} é café 😀"));
        // A lone surrogate decodes to U+FFFD instead of failing.
        assert_eq!(Json::parse(r#""\ud800x""#).unwrap().as_str(), Some("\u{fffd}x"));
        assert_eq!(Json::parse(r#""\ud800\u0041""#).unwrap().as_str(), Some("\u{fffd}A"));
    }

    #[test]
    fn escapes_round_trip_through_the_writer() {
        let s = "quote \" backslash \\ newline \n cr \r tab \t control \u{1} \u{1f} café ✓";
        let written = str_of(s);
        assert_eq!(Json::parse(&written).unwrap().as_str(), Some(s));
        assert_eq!(str_of("a\rb\u{1}"), r#""a\rb\u0001""#);
        assert_eq!(str_of("é/"), "\"é/\"");
    }

    #[test]
    fn duplicate_keys_keep_the_last_occurrence() {
        let v = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_num), Some(3.0));
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a"], "the shadowed pair is gone, not just hidden");
        assert_eq!(v.to_string(), r#"{"b":2,"a":3}"#);
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_obj = "{\"a\":".repeat(1_000_000);
        assert!(Json::parse(&deep_obj).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn numbers_write_in_shortest_round_trip_form() {
        let mut s = String::new();
        for v in [3.0, 0.1, -2.5e-7, 1e21, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            write_f64(&mut s, v);
            s.push(' ');
        }
        let want = "3 0.1 -0.00000025 1000000000000000000000 \"NaN\" \"Infinity\" \"-Infinity\" ";
        assert_eq!(s, want);
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn pretty_expands_only_the_outer_levels() {
        let v = Json::parse(r#"{"schema": "s/v1", "rows": [{"n": "a", "x": 1}], "e": []}"#);
        let v = v.unwrap();
        let want = "{\n  \"schema\": \"s/v1\",\n  \"rows\": [\n    {\"n\":\"a\",\"x\":1}\n  ],\n  \
                    \"e\": []\n}";
        assert_eq!(v.pretty(2), want);
        assert_eq!(Json::parse(&v.pretty(2)).unwrap(), v);
        assert_eq!(v.pretty(0), v.to_string());
    }
}
