//! Zero-dependency observability: logical-clock events, counters,
//! gauges, and fixed-bucket histograms with a JSONL exporter.
//!
//! The workspace's determinism contract (DESIGN.md §6) forbids wall
//! clocks and scheduler-order dependence in replayable code, which
//! rules out every off-the-shelf tracing stack. This module records
//! telemetry **without breaking either invariant**:
//!
//! * **Events** are keyed by a *logical clock* — a monotonic step
//!   counter per [`Subsystem`], never wall time. Instrumentation sites
//!   only emit events from *sequential orchestration code* (a solver's
//!   iteration loop, FedAvg's round loop, a node's mining step), so
//!   the event stream is bit-identical for every worker count and the
//!   determinism suite can diff it directly.
//! * **Counters / gauges / histograms** are order-independent
//!   aggregates (sums, last-write, bucket tallies). They *may* be
//!   bumped from pool workers — totals are stable, per-worker
//!   attribution (e.g. tasks stolen) is inherently scheduling-
//!   dependent and therefore excluded from determinism comparisons.
//! * The optional **duration sink** ([`time_scope`]) is the one place
//!   that reads the wall clock. It is double-opt-in (recorder enabled
//!   *and* [`enable_durations`]), carries an in-place
//!   `lint:allow(no-wallclock)`, and its output lands in histograms,
//!   never in the event stream.
//!
//! **Enablement belongs to the recorder.** The process-global recorder
//! is switched by [`enable`]/[`disable`]; a [`with_local`] recorder is
//! on for exactly its own scope. One scope ending never switches off
//! another thread's recorder, so concurrently running tests each
//! capture their whole stream.
//!
//! **Disabled-path cost.** Nothing is recording by default. Every entry
//! point begins with one relaxed load of a process-wide count of
//! enabled recorders and returns immediately when it is zero: no
//! thread-local access, no allocation, no locking, no formatting.
//! Field values are `Copy` (`&'static str` for strings), so even
//! *building the call arguments* allocates nothing.
//!
//! **Export.** [`export_jsonl`] renders the whole recording as JSON
//! Lines (schema `tradefl-trace/v1`) through [`crate::json`]'s writer:
//! a `meta` line, every event in logical-clock order, then
//! counters/gauges/histograms in `BTreeMap` (byte-wise name) order — a
//! deterministic byte stream for a deterministic run.
//!
//! ```
//! use tradefl_runtime::obs::{self, Subsystem};
//!
//! let (sum, snap) = obs::with_local(|| {
//!     obs::event(Subsystem::Cgbd, "iteration", &[("k", 1u64.into())]);
//!     obs::counter_add("cgbd.cuts_added", 1);
//!     2 + 2
//! });
//! assert_eq!(sum, 4);
//! assert_eq!(snap.events.len(), 1);
//! assert_eq!(snap.counters["cgbd.cuts_added"], 1);
//! ```

use crate::json::{write_f64, write_str};
use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Schema identifier written on the first line of every JSONL export.
pub const TRACE_SCHEMA: &str = "tradefl-trace/v1";

/// Cap on buffered events; beyond it events are counted as dropped
/// instead of growing the buffer without bound (a long-running process
/// with the recorder left on must not OOM).
pub const MAX_EVENTS: usize = 1 << 20;

/// The subsystems that carry a logical clock. Each has an independent
/// monotonic step counter starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// CGBD solver iterations (Algorithm 1).
    Cgbd,
    /// DBR best-response rounds (Algorithm 2).
    Dbr,
    /// Interior-point primal solves.
    Primal,
    /// FedAvg training rounds.
    Fed,
    /// Work-stealing pool scopes.
    Pool,
    /// Ledger block production / application.
    Ledger,
    /// Market-engine event loop (sessions, batches, recoveries).
    Engine,
}

impl Subsystem {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Cgbd => "cgbd",
            Subsystem::Dbr => "dbr",
            Subsystem::Primal => "primal",
            Subsystem::Fed => "fed",
            Subsystem::Pool => "pool",
            Subsystem::Ledger => "ledger",
            Subsystem::Engine => "engine",
        }
    }

    const COUNT: usize = 7;

    fn index(self) -> usize {
        match self {
            Subsystem::Cgbd => 0,
            Subsystem::Dbr => 1,
            Subsystem::Primal => 2,
            Subsystem::Fed => 3,
            Subsystem::Pool => 4,
            Subsystem::Ledger => 5,
            Subsystem::Engine => 6,
        }
    }
}

/// A field value attached to an event. All variants are `Copy` so call
/// sites allocate nothing even while the recorder is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (exported via Rust's shortest-round-trip
    /// formatting, so export bytes are deterministic).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string.
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded event: a named step on a subsystem's logical clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Which subsystem's clock stamped this event.
    pub subsystem: Subsystem,
    /// The logical-clock value (0-based, monotonic per subsystem).
    pub seq: u64,
    /// Event name, e.g. `"iteration"`.
    pub name: &'static str,
    /// Named payload fields in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A fixed-layout histogram: base-2 exponential buckets over `|v|`,
/// plus count/sum/min/max. The layout is identical for every
/// histogram, so exports are comparable across runs and names.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// `buckets[i]` counts values `v` with
    /// `2^(i + BUCKET_MIN_EXP - 1) < |v| <= 2^(i + BUCKET_MIN_EXP)`;
    /// bucket 0 additionally absorbs everything at or below the floor
    /// (including 0), the last bucket everything above the ceiling.
    pub buckets: [u64; Histogram::BUCKETS],
}

impl Histogram {
    /// Number of buckets in the fixed layout.
    pub const BUCKETS: usize = 40;
    /// Exponent of the first bucket's upper bound: bucket 0 holds
    /// `|v| <= 2^BUCKET_MIN_EXP`.
    pub const BUCKET_MIN_EXP: i32 = -20;

    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; Self::BUCKETS],
        }
    }

    /// Index of the bucket a value falls into.
    pub fn bucket_index(v: f64) -> usize {
        let mag = v.abs();
        if !mag.is_finite() {
            return Self::BUCKETS - 1;
        }
        // lint:allow(no-float-eq): exact-zero test — log2(0) is -inf, and ±0.0 both belong in bucket 0
        if mag == 0.0 {
            return 0;
        }
        // ceil(log2(mag)) without libm edge cases: exponent of the
        // smallest power of two >= mag.
        let exp = mag.log2().ceil() as i32;
        let idx = exp - Self::BUCKET_MIN_EXP;
        idx.clamp(0, Self::BUCKETS as i32 - 1) as usize
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }
}

/// Everything a recorder holds, cloned out by [`snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Events in logical-clock emission order.
    pub events: Vec<Event>,
    /// Events not buffered because [`MAX_EVENTS`] was hit.
    pub events_dropped: u64,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// An independent recorder. Most code uses the process-global one via
/// the free functions; tests install their own with [`with_local`] so
/// concurrent tests cannot pollute each other's streams.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Whether recording calls routed here are kept. Flip it only
    /// through [`Recorder::set_enabled`], which keeps
    /// [`ENABLED_RECORDERS`] in step.
    enabled: AtomicBool,
    events: Mutex<EventBuf>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

#[derive(Debug, Default)]
struct EventBuf {
    clocks: [u64; Subsystem::COUNT],
    records: Vec<Event>,
    dropped: u64,
}

impl Recorder {
    /// A fresh, empty, disabled recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    fn set_enabled(&self, on: bool) {
        if self.enabled.swap(on, Ordering::Relaxed) != on {
            if on {
                ENABLED_RECORDERS.fetch_add(1, Ordering::Relaxed);
            } else {
                ENABLED_RECORDERS.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn event(&self, subsystem: Subsystem, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let mut buf = self.events.lock();
        let seq = buf.clocks[subsystem.index()];
        buf.clocks[subsystem.index()] += 1;
        if buf.records.len() >= MAX_EVENTS {
            buf.dropped += 1;
            return;
        }
        buf.records.push(Event { subsystem, seq, name, fields: fields.to_vec() });
    }

    fn counter_add(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock();
        match counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    fn gauge_set(&self, name: &str, v: f64) {
        let mut gauges = self.gauges.lock();
        match gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                gauges.insert(name.to_string(), v);
            }
        }
    }

    fn hist_record(&self, name: &str, v: f64) {
        let mut hists = self.histograms.lock();
        match hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                hists.insert(name.to_string(), h);
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        let buf = self.events.lock();
        let events = buf.records.clone();
        let events_dropped = buf.dropped;
        drop(buf);
        Snapshot {
            events,
            events_dropped,
            counters: self.counters.lock().clone(),
            gauges: self.gauges.lock().clone(),
            histograms: self.histograms.lock().clone(),
        }
    }

    fn reset(&self) {
        *self.events.lock() = EventBuf::default();
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
    }
}

/// How many recorders are enabled, process-wide. Zero ⇒ every entry
/// point is a single relaxed load. Relaxed suffices: the count and the
/// per-recorder flags publish no data (each recorder's contents sit
/// behind its own mutexes), and a `with_local` recorder is enabled on
/// the thread that then records to it.
static ENABLED_RECORDERS: AtomicUsize = AtomicUsize::new(0);
/// Second switch for the wall-clock duration sink ([`time_scope`]).
static DURATIONS: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

thread_local! {
    /// Test-scoped override: when set, this thread's recordings go to
    /// the local recorder instead of the global one, so concurrently
    /// running tests cannot interleave their streams.
    static LOCAL: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's active recorder: the [`with_local`] one
/// if installed, else the global one.
fn with_active<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    LOCAL.with(|local| match local.borrow().as_ref() {
        Some(rec) => f(rec),
        None => f(global()),
    })
}

/// Runs `f` on the active recorder if it is enabled.
#[inline]
fn record(f: impl FnOnce(&Recorder)) {
    if ENABLED_RECORDERS.load(Ordering::Relaxed) == 0 {
        return;
    }
    with_active(|rec| {
        if rec.enabled.load(Ordering::Relaxed) {
            f(rec);
        }
    });
}

/// Turns the process-global recorder on. Threads inside a
/// [`with_local`] scope keep recording to their local recorder.
pub fn enable() {
    global().set_enabled(true);
}

/// Turns the process-global recorder off. Already-recorded data is
/// kept until [`reset`]; [`with_local`] recorders are unaffected.
pub fn disable() {
    global().set_enabled(false);
}

/// Whether this thread's active recorder is on. When no recorder is
/// enabled anywhere this is one relaxed load.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED_RECORDERS.load(Ordering::Relaxed) != 0
        && with_active(|rec| rec.enabled.load(Ordering::Relaxed))
}

/// Opts in to the wall-clock duration sink (see [`time_scope`]).
/// Durations land in histograms only, never in the event stream, so
/// determinism comparisons are unaffected.
pub fn enable_durations() {
    DURATIONS.store(true, Ordering::Relaxed);
}

/// Records an event on `subsystem`'s logical clock. No-op when
/// disabled.
#[inline]
pub fn event(subsystem: Subsystem, name: &'static str, fields: &[(&'static str, FieldValue)]) {
    record(|rec| rec.event(subsystem, name, fields));
}

/// Adds `n` to the named counter. No-op when disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    record(|rec| rec.counter_add(name, n));
}

/// Sets the named gauge (last write wins). No-op when disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    record(|rec| rec.gauge_set(name, v));
}

/// Records `v` into the named histogram. No-op when disabled.
#[inline]
pub fn hist_record(name: &str, v: f64) {
    record(|rec| rec.hist_record(name, v));
}

/// Starts a wall-clock span that records elapsed microseconds into the
/// histogram `name` when dropped. Returns a no-op guard unless **both**
/// [`enable`] and [`enable_durations`] were called — the wall clock is
/// never read on the default path, keeping replayable pipelines clock-
/// free (the `no-wallclock` rule's intent; see DESIGN.md §9).
pub fn time_scope(name: &'static str) -> TimeScope {
    if !DURATIONS.load(Ordering::Relaxed) || !is_enabled() {
        return TimeScope { name, start: None };
    }
    // lint:allow(no-wallclock): opt-in duration sink; off by default, histogram-only, excluded from determinism diffs
    TimeScope { name, start: Some(std::time::Instant::now()) }
}

/// Guard returned by [`time_scope`].
#[derive(Debug)]
pub struct TimeScope {
    name: &'static str,
    start: Option<std::time::Instant>,
}

impl Drop for TimeScope {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let micros = start.elapsed().as_secs_f64() * 1e6;
            hist_record(self.name, micros);
        }
    }
}

/// Clones out everything recorded so far (events + metrics).
pub fn snapshot() -> Snapshot {
    with_active(Recorder::snapshot)
}

/// Clears the active recorder (events, clocks, and metrics). The
/// enabled flags are left as they are.
pub fn reset() {
    with_active(Recorder::reset);
}

/// Runs `f` with a fresh, enabled thread-local recorder installed,
/// then reinstalls the previous one and returns `f`'s result together
/// with everything the closure recorded **on this thread**.
///
/// Only the local recorder is enabled: pool workers spawned inside `f`
/// record to the global recorder, and only if it is enabled itself.
/// Events emitted from sequential orchestration code on the calling
/// thread — the only place events are allowed — are captured exactly,
/// whatever other threads' scopes do meanwhile.
pub fn with_local<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    /// Disables the scope's recorder and reinstalls the previous one,
    /// on unwind too.
    struct Scope(Arc<Recorder>, Option<Arc<Recorder>>);
    impl Drop for Scope {
        fn drop(&mut self) {
            self.0.set_enabled(false);
            let prev = self.1.take();
            LOCAL.with(|local| *local.borrow_mut() = prev);
        }
    }
    let rec = Arc::new(Recorder::new());
    rec.set_enabled(true);
    let prev = LOCAL.with(|local| local.borrow_mut().replace(Arc::clone(&rec)));
    let scope = Scope(Arc::clone(&rec), prev);
    let out = f();
    drop(scope);
    (out, rec.snapshot())
}

// ---- JSONL export ------------------------------------------------------

/// Renders the active recorder's contents as JSON Lines
/// (`tradefl-trace/v1`): one `meta` line, one line per event in
/// logical-clock order, then `counter`/`gauge`/`hist` lines in name
/// order. The output is a pure function of the recording, so a
/// deterministic run exports identical bytes.
pub fn export_jsonl() -> String {
    snapshot().to_jsonl()
}

/// Scans the process arguments for `--trace <path>` (or
/// `--trace=<path>`); when present, enables recording and returns the
/// output path. Call once at the top of a binary, then pass the path to
/// [`write_trace`] at the end:
///
/// ```no_run
/// use tradefl_runtime::obs;
///
/// let trace = obs::trace_path_from_args();
/// // ... run the workload ...
/// if let Some(path) = &trace {
///     obs::write_trace(path).expect("write trace");
/// }
/// ```
pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let path = args.next()?;
            enable();
            return Some(path.into());
        }
        if let Some(path) = arg.strip_prefix("--trace=") {
            enable();
            return Some(path.into());
        }
    }
    None
}

/// Writes the active recorder's JSONL export to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, export_jsonl())
}

impl Snapshot {
    /// Renders this snapshot as `tradefl-trace/v1` JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        let _ = write!(
            out,
            "{{\"kind\":\"meta\",\"schema\":\"{}\",\"events\":{},\"events_dropped\":{}}}\n",
            TRACE_SCHEMA,
            self.events.len(),
            self.events_dropped
        );
        for ev in &self.events {
            let _ = write!(
                out,
                "{{\"kind\":\"event\",\"sub\":\"{}\",\"seq\":{},\"name\":",
                ev.subsystem.name(),
                ev.seq
            );
            write_str(&mut out, ev.name);
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in ev.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(&mut out, k);
                out.push(':');
                json_field(&mut out, *v);
            }
            out.push_str("}}\n");
        }
        for (name, value) in &self.counters {
            out.push_str("{\"kind\":\"counter\",\"name\":");
            write_str(&mut out, name);
            let _ = write!(out, ",\"value\":{value}}}\n");
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"kind\":\"gauge\",\"name\":");
            write_str(&mut out, name);
            out.push_str(",\"value\":");
            write_f64(&mut out, *value);
            out.push_str("}\n");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"kind\":\"hist\",\"name\":");
            write_str(&mut out, name);
            let _ = write!(out, ",\"count\":{}", h.count);
            out.push_str(",\"sum\":");
            write_f64(&mut out, h.sum);
            out.push_str(",\"min\":");
            write_f64(&mut out, if h.count == 0 { 0.0 } else { h.min });
            out.push_str(",\"max\":");
            write_f64(&mut out, if h.count == 0 { 0.0 } else { h.max });
            out.push_str(",\"buckets\":[");
            let mut first = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{i},{c}]");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Only the event lines of [`Snapshot::to_jsonl`] — the portion the
    /// determinism suite compares across worker counts (metrics like
    /// pool-steal counts are legitimately scheduling-dependent).
    pub fn events_jsonl(&self) -> String {
        self.to_jsonl()
            .lines()
            .filter(|l| l.starts_with("{\"kind\":\"event\""))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            })
    }
}

fn json_field(out: &mut String, v: FieldValue) {
    match v {
        FieldValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::I64(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::F64(x) => write_f64(out, x),
        FieldValue::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::Str(s) => write_str(out, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        // Fresh local recorder, *not* enabled: the free functions must
        // not touch it, whatever other recorders are on meanwhile.
        let rec = Arc::new(Recorder::new());
        let prev = LOCAL.with(|l| l.borrow_mut().replace(Arc::clone(&rec)));
        assert!(!is_enabled());
        event(Subsystem::Cgbd, "iteration", &[("k", 1u64.into())]);
        counter_add("c", 1);
        gauge_set("g", 1.0);
        hist_record("h", 1.0);
        LOCAL.with(|l| *l.borrow_mut() = prev);
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn logical_clocks_are_per_subsystem_and_monotonic() {
        let ((), snap) = with_local(|| {
            event(Subsystem::Cgbd, "a", &[]);
            event(Subsystem::Dbr, "b", &[]);
            event(Subsystem::Cgbd, "c", &[]);
        });
        assert_eq!(snap.events.len(), 3);
        assert_eq!((snap.events[0].subsystem, snap.events[0].seq), (Subsystem::Cgbd, 0));
        assert_eq!((snap.events[1].subsystem, snap.events[1].seq), (Subsystem::Dbr, 0));
        assert_eq!((snap.events[2].subsystem, snap.events[2].seq), (Subsystem::Cgbd, 1));
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let ((), snap) = with_local(|| {
            counter_add("n", 2);
            counter_add("n", 3);
            gauge_set("level", 1.0);
            gauge_set("level", -4.5);
            for v in [0.5, 2.0, 2.0, 1e9] {
                hist_record("vals", v);
            }
        });
        assert_eq!(snap.counters["n"], 5);
        assert_eq!(snap.gauges["level"], -4.5);
        let h = &snap.histograms["vals"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1e9);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn bucket_layout_is_fixed_and_total() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), Histogram::BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(f64::INFINITY), Histogram::BUCKETS - 1);
        // Monotone in magnitude.
        let mut prev = 0;
        let mut v = 1e-12;
        while v < 1e12 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= prev, "bucket index not monotone at {v}");
            prev = idx;
            v *= 3.7;
        }
    }

    #[test]
    fn jsonl_export_is_deterministic_and_schema_shaped() {
        let run = || {
            let ((), snap) = with_local(|| {
                event(
                    Subsystem::Fed,
                    "round",
                    &[("round", 1u64.into()), ("loss", 0.25f64.into()), ("tag", "x\"y".into())],
                );
                counter_add("fed.rounds", 1);
                gauge_set("fed.last_accuracy", 0.5);
                hist_record("primal.iterations", 12.0);
            });
            snap.to_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "export must be bit-identical for identical runs");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("tradefl-trace/v1"));
        assert!(lines[1].contains("\"kind\":\"event\""));
        assert!(lines[1].contains("\"sub\":\"fed\""));
        assert!(lines[1].contains("\\\"y"), "string fields are escaped: {}", lines[1]);
        assert!(a.contains("\"kind\":\"counter\""));
        assert!(a.contains("\"kind\":\"gauge\""));
        assert!(a.contains("\"kind\":\"hist\""));
    }

    #[test]
    fn events_jsonl_filters_metrics_out() {
        let ((), snap) = with_local(|| {
            event(Subsystem::Ledger, "block_mined", &[("txs", 3u64.into())]);
            counter_add("ledger.txs", 3);
        });
        let events_only = snap.events_jsonl();
        assert_eq!(events_only.lines().count(), 1);
        assert!(events_only.contains("block_mined"));
        assert!(!events_only.contains("counter"));
    }

    #[test]
    fn event_buffer_is_bounded() {
        let rec = Recorder::new();
        // Synthesize overflow cheaply by pre-filling the buffer.
        {
            let mut buf = rec.events.lock();
            buf.records = Vec::with_capacity(MAX_EVENTS);
            for _ in 0..MAX_EVENTS {
                buf.records.push(Event {
                    subsystem: Subsystem::Pool,
                    seq: 0,
                    name: "x",
                    fields: Vec::new(),
                });
            }
        }
        rec.event(Subsystem::Pool, "overflow", &[]);
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), MAX_EVENTS);
        assert_eq!(snap.events_dropped, 1);
    }

    #[test]
    fn time_scope_is_noop_without_double_opt_in() {
        let ((), snap) = with_local(|| {
            // enabled (with_local) but durations NOT opted in:
            let guard = time_scope("span.micros");
            drop(guard);
        });
        assert!(snap.histograms.is_empty(), "no duration recorded without opt-in");
    }

    #[test]
    fn racing_local_scopes_each_capture_all_their_events() {
        // Scope A opens first, then scope B; A closes while B is still
        // recording. A process-wide on/off toggle would switch B off at
        // that moment and lose every event B emits afterwards.
        use std::sync::Barrier;
        const ROUNDS: u64 = 200;
        let (a_open, b_open, a_closed) = (Barrier::new(2), Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                with_local(|| {
                    a_open.wait();
                    b_open.wait();
                    for k in 0..ROUNDS {
                        event(Subsystem::Dbr, "a", &[("k", k.into())]);
                    }
                })
                .1
            });
            let b = s.spawn(|| {
                a_open.wait();
                with_local(|| {
                    b_open.wait();
                    a_closed.wait();
                    for k in 0..ROUNDS {
                        event(Subsystem::Dbr, "b", &[("k", k.into())]);
                        counter_add("b.events", 1);
                    }
                })
                .1
            });
            let a = a.join().unwrap();
            a_closed.wait();
            let b = b.join().unwrap();
            for (snap, name) in [(&a, "a"), (&b, "b")] {
                assert_eq!(snap.events.len() as u64, ROUNDS, "scope {name} lost events");
                assert!(snap.events.iter().all(|e| e.name == name));
                assert!(snap.events.iter().map(|e| e.seq).eq(0..ROUNDS));
            }
            assert_eq!(b.counters.get("b.events"), Some(&ROUNDS));
        });
    }

    #[test]
    fn with_local_does_not_switch_the_global_recorder() {
        let ((), _) = with_local(|| {
            assert!(is_enabled());
            std::thread::scope(|s| {
                // A thread without a local recorder sees only the
                // global one, which nobody here enabled.
                s.spawn(|| assert!(!global().enabled.load(Ordering::Relaxed)));
            });
        });
        assert!(LOCAL.with(|l| l.borrow().is_none()));
    }
}
