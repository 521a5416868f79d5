//! In-memory spans and counts for the traced run.
//!
//! A span is a named wall-clock interval with the span that caused it
//! (its parent) and the op it belongs to. Every op has one root span
//! named [`OP`]; layer calls inside it are its descendants. Set-up and
//! off-path probes (chain replay, codec, checkpoint) record spans
//! outside any op. Spans stay in memory and are written out once, when
//! the run ends. When the tracer is off every call is a pass-through.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Stopwatch;

/// Name of the root span of every op.
pub const OP: &str = "op";

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: Option<u64>,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
    counts: BTreeMap<&'static str, (f64, u64)>,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: u64,
    pub total: f64,
    /// Total minus the time covered by direct child spans.
    pub self_time: f64,
    /// Whether the spans ran inside ops (set-up and probes do not).
    pub in_op: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; the paired untraced half of a traced
    /// run switches it off around its ops.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.secs()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Runs op `k` inside its root span.
    pub fn op<R>(&mut self, k: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = Some(k);
        let out = self.span(OP, f);
        self.op = None;
        out
    }

    /// Records an already-timed interval as a child of the innermost
    /// open span (for calls whose layer is known only afterwards).
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        if self.on {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                op: self.op,
                parent,
                start,
                end,
            });
        }
    }

    /// Records an already-timed op `k` that is exactly one `layer` call.
    pub fn op_at(&mut self, k: u64, layer: &'static str, start: f64, end: f64) {
        if self.on {
            let root = self.spans.len();
            self.spans.push(Span {
                name: OP,
                op: Some(k),
                parent: None,
                start,
                end,
            });
            self.spans.push(Span {
                name: layer,
                op: Some(k),
                parent: Some(root),
                start,
                end,
            });
        }
    }

    /// Adds one observation of a count; its metric is the mean
    /// observation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            let e = self.counts.entry(name).or_insert((0.0, 0));
            e.0 += value;
            e.1 += 1;
        }
    }

    /// Mean observation of every count.
    pub fn count_means(&self) -> BTreeMap<&'static str, f64> {
        self.counts
            .iter()
            .map(|(&k, &(sum, n))| (k, sum / n as f64))
            .collect()
    }

    /// Per-name aggregates, sorted by name.
    pub fn layers(&self) -> Vec<LayerRow> {
        let child_secs = self.child_secs();
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_secs) {
            let row = rows.entry(s.name).or_insert(LayerRow {
                name: s.name,
                calls: 0,
                total: 0.0,
                self_time: 0.0,
                in_op: s.op.is_some(),
            });
            row.calls += 1;
            row.total += s.secs();
            row.self_time += s.secs() - covered;
        }
        rows.into_values().collect()
    }

    /// Share of each root op span covered by its child spans:
    /// `(mean, min)` over ops, or `None` without ops.
    pub fn coverage(&self) -> Option<(f64, f64)> {
        let covered = self.child_secs();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == OP && s.secs() > 0.0)
            .map(|(s, c)| c / s.secs())
            .collect();
        let min = shares.iter().copied().reduce(f64::min)?;
        Some((shares.iter().sum::<f64>() / shares.len() as f64, min))
    }

    /// Per span, the seconds its direct children cover.
    fn child_secs(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        covered
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_s\":{},\"end_s\":{}}}",
                s.name,
                opt(s.op),
                opt(s.parent.map(|p| p as u64)),
                s.start,
                s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_and_passes_results_through() {
        let mut t = Tracer::new(false);
        let v = t.op(0, |t| t.span("x", |_| 7));
        t.count("c", 1.0);
        t.record("y", 0.0, 1.0);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty() && t.count_means().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.op(3, |t| {
            t.record("a", 0.0, 2.0);
            t.record("b", 2.0, 3.0);
        });
        // Pin the root's extent so the arithmetic is exact.
        t.spans[0].start = 0.0;
        t.spans[0].end = 4.0;
        let rows = t.layers();
        let op = rows.iter().find(|r| r.name == OP).unwrap();
        assert_eq!((op.calls, op.total, op.self_time), (1, 4.0, 1.0));
        assert!(rows.iter().all(|r| r.in_op));
        assert_eq!(t.coverage(), Some((0.75, 0.75)));
        assert!(t.spans().iter().all(|s| s.op == Some(3)));
    }
}
