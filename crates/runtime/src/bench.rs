//! A minimal wall-clock benchmark runner — the in-tree replacement for
//! `criterion` on `harness = false` bench targets.
//!
//! The API mirrors the subset of criterion the bench crate uses
//! (`benchmark_group`, `bench_function`, `bench_with_input`,
//! `sample_size`, `throughput`, `Bencher::iter`), so bench files
//! migrate with an import swap plus the [`bench_group!`] /
//! [`bench_main!`] macros in place of `criterion_group!` /
//! `criterion_main!`.
//!
//! Measurement model: each benchmark warms up briefly, picks an
//! iteration count that fills a fixed time slice, then takes
//! `sample_size` timed samples and reports min/mean/max per iteration
//! (plus throughput when declared). Results print to stdout; there is
//! no statistical machinery — the workspace's perf claims are about
//! asymptotic scaling across parameters, which min-of-samples exposes
//! reliably.
//!
//! Set `TRADEFL_BENCH_FAST=1` to shrink time slices ~20x (used by CI,
//! which only needs the binaries to build and smoke-run).
//!
//! [`bench_group!`]: crate::bench_group
//! [`bench_main!`]: crate::bench_main

use std::fmt;
use std::time::{Duration, Instant};

/// Target wall-clock per sample, normal mode.
const SAMPLE_BUDGET: Duration = Duration::from_millis(60);
/// Target wall-clock per sample under `TRADEFL_BENCH_FAST`.
const SAMPLE_BUDGET_FAST: Duration = Duration::from_millis(3);

/// Top-level benchmark context (criterion-compatible shape).
#[derive(Debug, Default)]
pub struct Criterion {
    filters: Vec<String>,
}

impl Criterion {
    /// A fresh context. Non-flag command-line arguments become
    /// substring filters, so `cargo bench -- sha256` runs only the
    /// benchmarks whose full `group/id` name contains `sha256`
    /// (harness flags such as `--bench` are ignored).
    pub fn new() -> Self {
        let filters = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
        Criterion { filters }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Runs a single named benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        if self.selected(name) {
            run_one(name, None, None, |b| f(b));
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (min 2).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        if self.parent.selected(&full) {
            run_one(&full, Some(self.sample_size), self.throughput, |b| f(b));
        }
        self
    }

    /// Runs a benchmark parameterized by an input value.
    pub fn bench_with_input<I>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        if self.parent.selected(&full) {
            run_one(&full, Some(self.sample_size), self.throughput, |b| f(b, input));
        }
        self
    }

    /// Ends the group (no-op; kept for criterion compatibility).
    pub fn finish(&mut self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendered from a parameter value.
    pub fn from_parameter(p: impl fmt::Display) -> Self {
        BenchmarkId(p.to_string())
    }

    /// An id with a function name and a parameter.
    pub fn new(name: impl fmt::Display, p: impl fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{p}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Declared per-iteration work, for derived throughput lines.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Timing handle passed to each benchmark body.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` executions of `f` (the closure's return value is
    /// consumed so the optimizer cannot delete the work).
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Measures one benchmark and prints its report line.
fn run_one(
    name: &str,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
    mut body: impl FnMut(&mut Bencher),
) {
    let budget = if fast_mode() { SAMPLE_BUDGET_FAST } else { SAMPLE_BUDGET };
    let samples = sample_size.unwrap_or(10);

    // Calibrate: run once, scale the iteration count to fill the
    // per-sample budget.
    let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
    body(&mut b);
    let once = b.elapsed.max(Duration::from_nanos(1));
    let iters = (budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        body(&mut b);
        per_iter.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    let min = per_iter[0];
    let max = per_iter[per_iter.len() - 1];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;

    let tp = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  {:>10}/s", human_bytes(n as f64 / min))
        }
        Some(Throughput::Elements(n)) => {
            format!("  {:>10.0} elem/s", n as f64 / min)
        }
        None => String::new(),
    };
    println!(
        "bench {name:<44} min {:>10}  mean {:>10}  max {:>10}  ({samples} samples x {iters} iters){tp}",
        human_time(min),
        human_time(mean),
        human_time(max),
    );
}

fn fast_mode() -> bool {
    std::env::var("TRADEFL_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

fn human_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn human_bytes(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2} GiB", rate / (1u64 << 30) as f64)
    } else if rate >= 1e6 {
        format!("{:.2} MiB", rate / (1u64 << 20) as f64)
    } else {
        format!("{:.2} KiB", rate / (1u64 << 10) as f64)
    }
}

/// Declares a benchmark group function from a list of `fn(&mut
/// Criterion)` benchmarks — the replacement for `criterion_group!`.
#[macro_export]
macro_rules! bench_group {
    ($group:ident, $($bench:path),+ $(,)?) => {
        fn $group(c: &mut $crate::bench::Criterion) {
            $($bench(c);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench target — the
/// replacement for `criterion_main!`.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::new();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runner_times_and_prints() {
        std::env::set_var("TRADEFL_BENCH_FAST", "1");
        // `default()` has no filters — `new()` would adopt the test
        // harness's own filter arguments as benchmark filters.
        let mut c = Criterion::default();
        let mut ran = 0u64;
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("grp");
        group.sample_size(3).throughput(Throughput::Elements(4));
        group.bench_with_input(BenchmarkId::from_parameter(8), &8usize, |b, &n| {
            b.iter(|| {
                ran += 1;
                (0..n).sum::<usize>()
            })
        });
        group.finish();
        assert!(ran > 0, "benchmark body executed");
    }

    #[test]
    fn filters_select_by_substring() {
        std::env::set_var("TRADEFL_BENCH_FAST", "1");
        let mut c = Criterion { filters: vec!["sha".into()] };
        let (mut hit, mut miss) = (false, false);
        c.bench_function("sha256/64", |b| b.iter(|| hit = true));
        c.bench_function("mine_block/10", |b| b.iter(|| miss = true));
        let mut group = c.benchmark_group("sha256");
        let mut group_hit = false;
        group.bench_function("1024", |b| b.iter(|| group_hit = true));
        group.finish();
        assert!(hit && group_hit && !miss);
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::from_parameter(16).0, "16");
        assert_eq!(BenchmarkId::new("f", 2).0, "f/2");
    }
}
