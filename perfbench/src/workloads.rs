//! The four workloads. Each is a closed loop driven by one client
//! thread: the next op starts only after the previous one and its
//! output check have finished. Every op input derives from the
//! workload seed; every solve and training call runs on an explicit
//! single-worker pool.

use tradefl_core::{
    CoopetitionGame, IncrementalEval, Market, MarketConfig, ModelError, SqrtAccuracy,
    StrategyProfile,
};
use tradefl_engine::{Engine, EngineConfig, EngineReport, SessionSpec};
use tradefl_fl_sim::{
    generate, train_federated_with, DatasetKind, FedConfig, FedOutcome, Mlp, ModelKind,
};
use tradefl_ledger::{
    decode_chain, encode_chain, Blockchain, Enclave, ExecStatus, Node, SettlementReport,
    SettlementSession, TradeFlContract,
};
use tradefl_runtime::sim::faults::{ByzantineConfig, FaultConfig};
use tradefl_runtime::sync::pool::Pool;
use tradefl_solver::{certify_nash, DbrSolver, Equilibrium};

use crate::stats::{derive, Digest, Stopwatch};
use crate::trace::Tracer;

/// Pool width for every solve and training call. On a small shared
/// host wider pools measured slower and noisier, so parallel scaling
/// is deliberately outside this benchmark.
pub const POOL_WORKERS: usize = 1;

/// Seed streams, one per kind of op input.
const STREAM_WARMUP: u64 = 1;
const STREAM_PIPELINE: u64 = 2;
const STREAM_MARKET: u64 = 3;
const STREAM_ENGINE: u64 = 4;
const STREAM_FAULTS: u64 = 5;

/// `market_daemon`'s engine cadence.
const BATCH_INTERVAL: u64 = 8;
const MEAN_ARRIVAL_GAP: f64 = 3.0;
const ADMISSION_CAPACITY: usize = 32;
const HORIZON: u64 = 1 << 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelinePaper,
    MarketN10k,
    EngineS100,
    EngineFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PipelinePaper,
        Workload::MarketN10k,
        Workload::EngineS100,
        Workload::EngineFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelinePaper => "pipeline_paper",
            Workload::MarketN10k => "market_n10k",
            Workload::EngineS100 => "engine_s100",
            Workload::EngineFaults => "engine_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::PipelinePaper => Shape {
                orgs: 10,
                density: 1.0,
                rounds: FedConfig::default().rounds,
                test_samples: 1000,
                markets: 0,
                sessions: 0,
                validators: 1,
                warmups: 3,
            },
            Workload::MarketN10k => Shape {
                orgs: 10_000,
                density: 0.01,
                rounds: 0,
                test_samples: 0,
                markets: 8,
                sessions: 0,
                validators: 0,
                warmups: 0,
            },
            Workload::EngineS100 => Shape {
                sessions: 100,
                validators: 4,
                ..Shape::engine()
            },
            Workload::EngineFaults => Shape {
                sessions: 10,
                validators: 4,
                ..Shape::engine()
            },
        }
    }
}

/// Workload shape parameters (0 where one does not apply).
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Organizations per market (per engine session: 3 to 5).
    pub orgs: usize,
    /// Share of org pairs that compete (1 = dense ρ).
    pub density: f64,
    /// FedAvg rounds per op.
    pub rounds: usize,
    pub test_samples: usize,
    /// Markets built in set-up and solved in turn.
    pub markets: usize,
    pub sessions: usize,
    pub validators: usize,
    /// Untimed passes before the first op.
    pub warmups: usize,
}

impl Shape {
    fn engine() -> Self {
        Shape {
            orgs: 0,
            density: 1.0,
            rounds: 0,
            test_samples: 0,
            markets: 0,
            sessions: 0,
            validators: 0,
            warmups: 0,
        }
    }

    pub fn describe(&self) -> String {
        let or_dash = |v: usize| {
            if v == 0 {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        let orgs = if self.sessions > 0 {
            "3-5".to_string()
        } else {
            or_dash(self.orgs)
        };
        format!(
            "orgs={orgs} density={} sessions={} validators={} rounds={}",
            self.density,
            or_dash(self.sessions),
            or_dash(self.validators),
            or_dash(self.rounds)
        )
    }
}

/// When to stop starting units (an op, or one engine on `engine_s100`).
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Start a unit only if it is expected to end within this many
    /// seconds of the first op (always at least one).
    Seconds(f64),
    /// Exactly this many units.
    #[cfg(test)]
    Units(u64),
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    pub seed: u64,
    pub shape: Shape,
    /// Traced run: every input runs twice, once traced and once not.
    pub traced: bool,
    pub tr: Tracer,
    /// Seconds of each set-up unit (warm-up pass, market, engine).
    pub setup: Vec<f64>,
    /// Latency of each untraced op.
    pub ops: Vec<f64>,
    /// Latency of each traced op.
    pub traced_ops: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Throughput numerator (samples trained, org updates, settlements)
    /// and its seconds.
    pub work: f64,
    pub work_secs: f64,
    /// Output digest per untraced op input, in order.
    pub digests: Vec<u64>,
    limit: Limit,
    started: Stopwatch,
    units: u64,
    last_unit: f64,
}

impl Run {
    pub fn new(seed: u64, shape: Shape, traced: bool, limit: Limit) -> Self {
        Self {
            seed,
            shape,
            traced,
            tr: Tracer::new(traced),
            setup: Vec::new(),
            ops: Vec::new(),
            traced_ops: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            work: 0.0,
            work_secs: 0.0,
            digests: Vec::new(),
            limit,
            started: Stopwatch::start(),
            units: 0,
            last_unit: 0.0,
        }
    }

    /// Starts the measuring clock: set-up before the first op does not
    /// eat into the run's seconds.
    fn start_clock(&mut self) {
        self.started = Stopwatch::start();
    }

    fn more(&self) -> bool {
        match self.limit {
            #[cfg(test)]
            Limit::Units(n) => self.units < n,
            Limit::Seconds(s) => self.units == 0 || self.started.secs() + self.last_unit <= s,
        }
    }

    fn unit_done(&mut self, since: Stopwatch) {
        self.units += 1;
        self.last_unit = since.secs();
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Runs `workload` until `run`'s limit.
pub fn drive(workload: Workload, run: &mut Run) {
    match workload {
        Workload::PipelinePaper => {
            let mut p = PipelinePaper::new(run.shape.clone());
            for w in 0..run.shape.warmups as u64 {
                let on = run.tr.is_on();
                run.tr.set_on(false);
                let t = Stopwatch::start();
                let warm = p.run_op(derive(run.seed, STREAM_WARMUP, w), &mut run.tr);
                run.setup.push(t.secs());
                run.tr.set_on(on);
                if let Err(e) = warm.and_then(|out| p.check_output(&out)) {
                    // Not an op, but a wrong output must still fail the run.
                    run.attempted += 1;
                    run.fail(1, format!("warm-up {w}: {e}"));
                }
            }
            drive_ops(run, &mut p);
        }
        Workload::MarketN10k => {
            let mut m = MarketN10k::new(run.seed, &run.shape, &mut run.tr, &mut run.setup);
            match m.as_mut() {
                Ok(m) => drive_ops(run, m),
                Err(e) => {
                    run.attempted += 1;
                    run.fail(1, format!("set-up: {e}"));
                }
            }
        }
        Workload::EngineS100 => drive_engines(run),
        Workload::EngineFaults => {
            let mut f = EngineFaults {
                shape: run.shape.clone(),
            };
            drive_ops(run, &mut f);
        }
    }
}

/// What an op's output check hands back.
struct Checked {
    digest: Digest,
    /// Throughput numerator of this op.
    work: f64,
    /// Throughput seconds of this op (`None`: the op's latency).
    work_secs: Option<f64>,
}

/// A stream of independent ops.
trait OpStream {
    type Input;
    type Output;
    /// Builds op `k`'s input outside the timed region; returns whether
    /// that was set-up work worth a `setup_s` sample.
    fn prepare(
        &mut self,
        seed: u64,
        k: u64,
        tr: &mut Tracer,
    ) -> Result<(Self::Input, bool), String>;
    /// The timed op.
    fn op(&mut self, input: Self::Input, tr: &mut Tracer) -> Result<Self::Output, String>;
    /// The untimed output check.
    fn check(&mut self, out: &Self::Output, tr: &mut Tracer) -> Result<Checked, String>;
}

fn drive_ops<S: OpStream>(run: &mut Run, s: &mut S) {
    run.start_clock();
    let mut k = 0u64;
    while run.more() {
        let unit = Stopwatch::start();
        // A traced run executes each input twice, alternating which
        // half goes first, so the traced-minus-untraced latency is a
        // paired difference and the outputs can be compared bitwise.
        let halves: &[bool] = match (run.traced, k % 2) {
            (false, _) => &[false],
            (true, 0) => &[true, false],
            (true, _) => &[false, true],
        };
        let mut digests = Vec::with_capacity(2);
        for &traced in halves {
            run.tr.set_on(traced);
            run.attempted += 1;
            let res = one_op(run, s, k, traced);
            match res {
                Ok((digest, secs, work, work_secs)) => {
                    if traced {
                        run.traced_ops.push(secs);
                    } else {
                        run.ops.push(secs);
                        run.digests.push(digest.0);
                        run.work += work;
                        run.work_secs += work_secs;
                    }
                    digests.push(digest);
                }
                Err(e) => run.fail(1, format!("op {k}: {e}")),
            }
        }
        run.tr.set_on(run.traced);
        if digests.len() == 2 && digests[0] != digests[1] {
            run.fail(1, format!("op {k}: traced and untraced outputs differ"));
        }
        run.unit_done(unit);
        k += 1;
    }
}

/// Prepares, times and checks op `k`: `(digest, latency, work, work seconds)`.
fn one_op<S: OpStream>(
    run: &mut Run,
    s: &mut S,
    k: u64,
    traced: bool,
) -> Result<(Digest, f64, f64, f64), String> {
    let t = Stopwatch::start();
    let (input, is_setup) = s.prepare(run.seed, k, &mut run.tr)?;
    if is_setup && !traced {
        run.setup.push(t.secs());
    }
    let t = Stopwatch::start();
    let out = run.tr.op(k, |tr| s.op(input, tr));
    let secs = t.secs();
    let c = s.check(&out?, &mut run.tr)?;
    Ok((c.digest, secs, c.work, c.work_secs.unwrap_or(secs)))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- inputs

/// Market seed of `pipeline_paper` op `k`.
fn pipeline_input(seed: u64, k: u64) -> u64 {
    derive(seed, STREAM_PIPELINE, k)
}

/// Set-up market `m` of `market_n10k`.
fn sparse_market(shape: &Shape, seed: u64, m: u64) -> Result<Market, ModelError> {
    MarketConfig::table_ii()
        .with_orgs(shape.orgs)
        .build_sparse(derive(seed, STREAM_MARKET, m), shape.density)
}

/// Seed and configuration of engine `k` (`engine_s100` unit or
/// `engine_faults` op).
fn engine_input(shape: &Shape, seed: u64, k: u64, faulted: bool) -> (u64, EngineConfig) {
    let (stream, faults) = match (faulted, k % 2) {
        (false, _) => (STREAM_ENGINE, Faults::None),
        // Wire faults with crashes, and Byzantine proposers, alternate
        // rather than combine: combined, a few percent of seeds end
        // with sessions unsettled (README.md, "Known defect").
        (true, 0) => (STREAM_FAULTS, Faults::Wire),
        (true, _) => (STREAM_FAULTS, Faults::Byzantine),
    };
    let eseed = derive(seed, stream, k);
    (eseed, engine_config(shape, eseed, faults))
}

// ---------------------------------------------------------------- pipeline

/// `Pipeline::run` at `PipelineConfig::paper()`, stage by stage.
struct PipelinePaper {
    shape: Shape,
    pool: Pool,
    fed: FedConfig,
}

struct PipelineOutput {
    game: CoopetitionGame<SqrtAccuracy>,
    eq: Equilibrium,
    settlement: SettlementReport,
    training: FedOutcome,
    samples: f64,
    train_secs: f64,
}

impl PipelinePaper {
    fn new(shape: Shape) -> Self {
        let fed = FedConfig {
            rounds: shape.rounds,
            ..FedConfig::default()
        };
        Self {
            shape,
            pool: Pool::new(POOL_WORKERS),
            fed,
        }
    }

    fn run_op(&self, seed: u64, tr: &mut Tracer) -> Result<PipelineOutput, String> {
        let game = tr.span("core.market_build_s", |_| {
            let market = MarketConfig::table_ii()
                .with_orgs(self.shape.orgs)
                .build(seed)?;
            Ok::<_, ModelError>(CoopetitionGame::new(market, SqrtAccuracy::paper_default()))
        });
        let game = game.map_err(err)?;
        let eq = tr.span("solver.dbr_solve_s", |_| {
            DbrSolver::new().solve_with(&game, &self.pool)
        });
        let eq = eq.map_err(err)?;
        tr.count("solver.dbr_iterations", eq.iterations as f64);
        let session = tr.span("ledger.deploy_s", |_| {
            SettlementSession::deploy_attested(&game, Enclave::from_label("tradefl-pipeline"))
        });
        let session = session.map_err(err)?;
        let settlement = tr.span("ledger.settle_s", |_| session.settle(&game, &eq.profile));
        let settlement = settlement.map_err(err)?;

        let n = game.market().len();
        let (shards, test) = tr.span("fl.data_gen_s", |_| {
            let mut sizes: Vec<usize> = game.market().orgs().iter().map(|o| o.samples()).collect();
            let total: usize = sizes.iter().sum();
            let pool = generate(
                DatasetKind::SvhnLike,
                total + self.shape.test_samples,
                seed ^ 0xf1,
            );
            sizes.push(self.shape.test_samples);
            let mut shards = pool.shard(&sizes);
            let test = shards.pop();
            (shards, test)
        });
        let test = test.ok_or("no test shard")?;
        let fractions: Vec<f64> = (0..n).map(|i| eq.profile[i].d).collect();
        let global = tr.span("fl.model_init_s", |_| {
            Mlp::for_kind(
                ModelKind::MobilenetLike,
                test.dim(),
                test.classes,
                seed ^ 0xf2,
            )
        });
        let t = Stopwatch::start();
        let training = tr.span("fl.train_s", |_| {
            train_federated_with(global, &shards, &test, &fractions, &self.fed, &self.pool)
        });
        let train_secs = t.secs();
        let training = training.map_err(err)?;
        let passes = (self.fed.rounds * self.fed.local_epochs) as f64;
        let samples = passes
            * shards
                .iter()
                .zip(&fractions)
                .map(|(s, &d)| ((d * s.len() as f64).floor() as usize).min(s.len()) as f64)
                .sum::<f64>();
        tr.count("fl.samples_trained", samples);
        Ok(PipelineOutput {
            game,
            eq,
            settlement,
            training,
            samples,
            train_secs,
        })
    }

    fn check_output(&self, out: &PipelineOutput) -> Result<Checked, String> {
        // The report's own summary and a recomputation from its vectors
        // must both hold.
        let s = &out.settlement;
        let worst = s
            .onchain_redistribution
            .iter()
            .zip(&s.offchain_redistribution)
            .map(|(on, off)| (on - off).abs())
            .fold(0.0, f64::max);
        if !s.consistent(1e-3) || worst > 1e-3 {
            return Err(format!(
                "settlement inconsistent (max abs error {}, recomputed {worst})",
                s.max_abs_error
            ));
        }
        let cert = certify_nash(&out.game, &out.eq.profile).map_err(err)?;
        let tol = 1e-3 * out.eq.welfare.abs();
        if !cert.is_epsilon_nash(tol) {
            return Err(format!(
                "DBR profile is not {tol}-Nash (epsilon {})",
                cert.epsilon
            ));
        }
        let h = &out.training.history;
        match (h.first(), h.last()) {
            (Some(first), Some(last)) if last.loss < first.loss => {}
            _ => return Err("final test loss is not below the round-0 loss".into()),
        }
        let digest = profile_digest(&out.eq)
            .f64s(out.settlement.onchain_redistribution.iter().copied())
            .f64s(h.iter().map(|m| f64::from(m.loss)));
        Ok(Checked {
            digest,
            work: out.samples,
            work_secs: Some(out.train_secs),
        })
    }
}

impl OpStream for PipelinePaper {
    type Input = u64;
    type Output = PipelineOutput;

    fn prepare(&mut self, seed: u64, k: u64, _tr: &mut Tracer) -> Result<(u64, bool), String> {
        Ok((pipeline_input(seed, k), false))
    }

    fn op(&mut self, seed: u64, tr: &mut Tracer) -> Result<PipelineOutput, String> {
        self.run_op(seed, tr)
    }

    fn check(&mut self, out: &PipelineOutput, _tr: &mut Tracer) -> Result<Checked, String> {
        self.check_output(out)
    }
}

fn profile_digest(eq: &Equilibrium) -> Digest {
    let n = eq.profile.len();
    Digest::default()
        .f64s((0..n).map(|i| eq.profile[i].d))
        .f64s((0..n).map(|i| eq.profile[i].level as f64))
        .f64s(eq.potential_trace.iter().copied())
        .f64s([eq.welfare, eq.potential, eq.total_damage])
}

// ---------------------------------------------------------------- market

/// DBR on a few sparse ten-thousand-org markets, solved in turn.
struct MarketN10k {
    games: Vec<CoopetitionGame<SqrtAccuracy>>,
    /// Digest of each market's first solve.
    first: Vec<Option<Digest>>,
    pool: Pool,
}

impl MarketN10k {
    fn new(
        seed: u64,
        shape: &Shape,
        tr: &mut Tracer,
        setup: &mut Vec<f64>,
    ) -> Result<Self, String> {
        let mut games = Vec::with_capacity(shape.markets);
        for m in 0..shape.markets as u64 {
            let t = Stopwatch::start();
            let market = tr.span("core.market_build_sparse_s", |_| {
                sparse_market(shape, seed, m)
            });
            let game = CoopetitionGame::new(market.map_err(err)?, SqrtAccuracy::paper_default());
            setup.push(t.secs());
            tr.count("core.rho_nnz", game.market().rho_nnz() as f64);
            tr.count(
                "core.rho_resident_bytes",
                game.market().rho_resident_bytes() as f64,
            );
            games.push(game);
        }
        let first = vec![None; games.len()];
        Ok(Self {
            games,
            first,
            pool: Pool::new(POOL_WORKERS),
        })
    }
}

impl MarketN10k {
    /// The checks of one solve of market `m`: converged, a
    /// non-decreasing potential trace, and bit-identical to the first
    /// solve of the same market. Returns the solve's digest and its org
    /// updates.
    fn check_solve(
        &mut self,
        m: usize,
        eq: &Equilibrium,
        tr: &mut Tracer,
    ) -> Result<(Digest, f64), String> {
        if !eq.converged {
            return Err(format!("market {m}: DBR did not converge"));
        }
        if eq.potential_trace.windows(2).any(|w| w[1] < w[0]) {
            return Err(format!("market {m}: potential trace decreases"));
        }
        let digest = profile_digest(eq);
        match self.first[m] {
            Some(d) if d != digest => return Err(format!("market {m}: repeated solve differs")),
            Some(_) => {}
            None => self.first[m] = Some(digest),
        }
        if tr.is_on() {
            let game = &self.games[m];
            tr.span("core.incremental_new_s", |_| {
                IncrementalEval::new(game, StrategyProfile::minimal(game.market())).potential()
            });
        }
        Ok((digest, (eq.profile.len() * eq.iterations) as f64))
    }
}

/// One op solves every set-up market once, in order. Markets split
/// roughly evenly between two- and three-round DBR solves (~40 vs
/// ~55 ms), so a single-solve op would have a two-peaked latency whose
/// median jumps between the peaks from seed to seed.
impl OpStream for MarketN10k {
    type Input = ();
    type Output = Vec<Equilibrium>;

    fn prepare(&mut self, _seed: u64, _k: u64, _tr: &mut Tracer) -> Result<((), bool), String> {
        Ok(((), false))
    }

    fn op(&mut self, (): (), tr: &mut Tracer) -> Result<Vec<Equilibrium>, String> {
        let mut out = Vec::with_capacity(self.games.len());
        for game in &self.games {
            let eq = tr.span("solver.dbr_solve_s", |_| {
                DbrSolver::new().solve_with(game, &self.pool)
            });
            let eq = eq.map_err(err)?;
            tr.count("solver.dbr_iterations", eq.iterations as f64);
            out.push(eq);
        }
        Ok(out)
    }

    fn check(&mut self, eqs: &Vec<Equilibrium>, tr: &mut Tracer) -> Result<Checked, String> {
        let mut digest = Digest::default();
        let mut updates = 0.0;
        for (m, eq) in eqs.iter().enumerate() {
            let (d, u) = self.check_solve(m, eq, tr)?;
            digest = digest.word(d.0);
            updates += u;
        }
        Ok(Checked {
            digest,
            work: updates,
            work_secs: None,
        })
    }
}

// ---------------------------------------------------------------- engines

/// Which seeded fault dimension an engine runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    /// `FaultConfig::from_seed`: dropped, duplicated, delayed,
    /// truncated and corrupted gossip plus validator crashes.
    Wire,
    /// `ByzantineConfig::from_seed`: proposers that tamper their blocks.
    Byzantine,
}

/// The engine configuration `market_daemon` runs, plus seeded faults.
fn engine_config(shape: &Shape, seed: u64, faults: Faults) -> EngineConfig {
    EngineConfig {
        validators: shape.validators,
        sessions: (0..shape.sessions)
            .map(|s| SessionSpec {
                name: format!("market-{s}"),
                orgs: 3 + s % 3,
                seed: seed.wrapping_add(s as u64),
            })
            .collect(),
        batch_interval: BATCH_INTERVAL,
        mean_arrival_gap: MEAN_ARRIVAL_GAP,
        admission_capacity: ADMISSION_CAPACITY,
        horizon: HORIZON,
        faults: if faults == Faults::Wire {
            FaultConfig::from_seed(seed, shape.validators, HORIZON)
        } else {
            FaultConfig::none()
        },
        byzantine: if faults == Faults::Byzantine {
            ByzantineConfig::from_seed(seed)
        } else {
            ByzantineConfig::none()
        },
        workers: POOL_WORKERS,
        ..EngineConfig::default()
    }
}

/// Builds one engine under an `engine.new_s` span.
fn new_engine(config: EngineConfig, seed: u64, tr: &mut Tracer) -> Result<Engine, String> {
    tr.span("engine.new_s", |_| Engine::new(config, seed))
        .map_err(err)
}

/// One `Engine::step`, timed: `(more events, mined a block, start, end)`.
fn step(engine: &mut Engine, tr: &Tracer) -> Result<(bool, bool, f64, f64), String> {
    let h0 = engine.height();
    let t0 = tr.now();
    let more = engine.step().map_err(err)?;
    let t1 = tr.now();
    Ok((more, engine.height() > h0, t0, t1))
}

fn count_engine(engine: &Engine, report: &EngineReport, other_steps: u64, tr: &mut Tracer) {
    if tr.is_on() {
        tr.count("engine.blocks", report.blocks as f64);
        tr.count("engine.other_steps", other_steps as f64);
        tr.count("engine.heals", report.heals as f64);
        tr.count("engine.byzantine_rounds", report.byzantine_rounds as f64);
        tr.count("engine.requeues", report.requeues as f64);
        tr.count(
            "engine.blocks_per_term",
            report.blocks as f64 / engine.term().max(1) as f64,
        );
    }
}

/// The end-of-engine checks: fully settled, a `Success` receipt for
/// every scripted transaction, and a replay of the canonical chain into
/// a fresh node that reproduces the reported state root. The traced run
/// also times the ledger and checkpoint layers on the final chain.
/// Returns the output digest and the settled transaction count.
fn check_engine(
    engine: &Engine,
    config: &EngineConfig,
    seed: u64,
    report: &EngineReport,
    tr: &mut Tracer,
) -> Result<(Digest, f64), String> {
    if !report.fully_settled() {
        return Err(format!(
            "not fully settled ({}/{} sessions, converged {})",
            report.sessions_settled, report.sessions_total, report.converged
        ));
    }
    let canonical = &engine.network().validator(report.survivors[0]).node;
    let mut scripted = 0usize;
    let mut settled = 0usize;
    for s in 0..config.sessions.len() {
        let (Some(plan), Some(contract)) = (engine.session_plan(s), engine.contract(s)) else {
            return Err(format!("session {s} missing"));
        };
        for tx in plan.scripted_txs(contract) {
            let hash = tx.hash();
            let ok = tr.span("ledger.receipt_lookup_s", |_| {
                canonical
                    .receipt(hash)
                    .is_some_and(|r| r.status == ExecStatus::Success)
            });
            scripted += 1;
            settled += usize::from(ok);
        }
    }
    if settled != scripted {
        return Err(format!(
            "{settled} of {scripted} scripted txs have a Success receipt"
        ));
    }
    let chain = canonical.chain();
    let replica = replay(engine, config.sessions.len(), chain, tr)?;
    let root = tr.span("ledger.state_root_s", |_| replica.state().root());
    if root != report.state_root || replica.chain().tip_hash() != chain.tip_hash() {
        return Err("replaying the canonical chain does not reproduce the state root".into());
    }
    if tr.is_on() {
        tr.span("ledger.verify_s", |_| chain.verify())
            .map_err(err)?;
        let bytes = tr.span("ledger.encode_chain_s", |_| encode_chain(chain));
        tr.count("ledger.chain_bytes", bytes.len() as f64);
        let decoded = tr
            .span("ledger.decode_chain_s", |_| decode_chain(&bytes))
            .map_err(err)?;
        if decoded != *chain {
            return Err("chain codec round trip differs".into());
        }
        let ck = tr.span("engine.checkpoint_s", |_| engine.checkpoint());
        tr.count("engine.checkpoint_bytes", ck.len() as f64);
        let restored = tr.span("engine.restore_s", |_| {
            Engine::restore(config.clone(), seed, &ck)
        });
        if restored.map_err(err)?.height() != chain.height() {
            return Err("checkpoint restore lands at another height".into());
        }
    }
    let digest = Digest::default()
        .bytes(&report.state_root.0)
        .bytes(&chain.tip_hash().0)
        .word(chain.height() as u64);
    Ok((digest, settled as f64))
}

/// Replays `chain` into a fresh node with the engine's genesis
/// allocations and contracts, one `apply_block` span per block.
fn replay(
    engine: &Engine,
    sessions: usize,
    chain: &Blockchain,
    tr: &mut Tracer,
) -> Result<Node, String> {
    let mut allocations = Vec::new();
    let mut contracts = Vec::new();
    for s in 0..sessions {
        let plan = engine.session_plan(s).ok_or("session missing")?;
        allocations.extend(plan.allocations.iter().copied());
        contracts.push(TradeFlContract::new(plan.params.clone()).map_err(err)?);
    }
    let mut node = Node::new(&allocations);
    for (s, c) in contracts.into_iter().enumerate() {
        if Some(node.deploy(Box::new(c))) != engine.contract(s) {
            return Err(format!("replayed contract {s} lands at another address"));
        }
    }
    let blocks = chain.blocks();
    if blocks.first().map(|b| b.hash()) != Some(node.chain().tip_hash()) {
        return Err("replayed genesis differs".into());
    }
    for b in &blocks[1..] {
        tr.span("ledger.apply_block_s", |_| node.apply_block(b))
            .map_err(err)?;
    }
    Ok(node)
}

/// `engine_s100`: one op is one `Engine::step` that mines a block. Each
/// engine runs to completion (a run holds whole engines only, since
/// later blocks cost more than early ones). A traced run drives a
/// traced and an untraced engine of the same seed in lockstep.
fn drive_engines(run: &mut Run) {
    run.start_clock();
    let mut op_k = 0u64;
    let mut u = 0u64;
    while run.more() {
        let unit = Stopwatch::start();
        let (seed, config) = engine_input(&run.shape, run.seed, u, false);
        let sides: &[bool] = if run.traced { &[true, false] } else { &[false] };
        let mut engines = Vec::new();
        let mut built = Ok(());
        for &traced in sides {
            run.tr.set_on(traced);
            let t = Stopwatch::start();
            match new_engine(config.clone(), seed, &mut run.tr) {
                Ok(engine) => engines.push(Side {
                    traced,
                    engine,
                    other_steps: 0,
                    secs: 0.0,
                    blocks: Vec::new(),
                }),
                Err(e) => built = Err(e),
            }
            if !traced {
                run.setup.push(t.secs());
            }
        }
        let outcome = built.and_then(|()| lockstep(run, &config, &mut engines, &mut op_k, u));
        let blocks = engines
            .iter()
            .map(|e| e.blocks.len() as u64)
            .sum::<u64>()
            .max(1);
        run.attempted += blocks;
        match outcome {
            Ok(()) => {
                for side in engines {
                    if side.traced {
                        run.traced_ops.extend(side.blocks);
                    } else {
                        run.ops.extend(side.blocks);
                    }
                }
            }
            Err(e) => run.fail(blocks, format!("engine {u}: {e}")),
        }
        run.tr.set_on(run.traced);
        run.unit_done(unit);
        u += 1;
    }
}

/// One engine of a lockstep group.
struct Side {
    traced: bool,
    engine: Engine,
    other_steps: u64,
    /// Seconds of the step loop plus `report`.
    secs: f64,
    /// Latency of each block step.
    blocks: Vec<f64>,
}

fn lockstep(
    run: &mut Run,
    config: &EngineConfig,
    engines: &mut [Side],
    op_k: &mut u64,
    u: u64,
) -> Result<(), String> {
    let mut i = 0usize;
    loop {
        let mut outcomes = Vec::with_capacity(2);
        for j in 0..engines.len() {
            // Alternate which side steps first.
            let side = &mut engines[(i + j) % engines.len()];
            run.tr.set_on(side.traced);
            let (more, block, t0, t1) = step(&mut side.engine, &run.tr)?;
            side.secs += t1 - t0;
            if block {
                run.tr.op_at(
                    *op_k + side.blocks.len() as u64,
                    "engine.block_step_s",
                    t0,
                    t1,
                );
                side.blocks.push(t1 - t0);
            } else {
                run.tr.record("engine.other_step_s", t0, t1);
                side.other_steps += 1;
            }
            outcomes.push((more, side.engine.height()));
        }
        if outcomes.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("traced and untraced engines diverge at step {i}"));
        }
        i += 1;
        if !outcomes[0].0 {
            break;
        }
    }
    *op_k += engines[0].blocks.len() as u64;
    let mut digests = Vec::with_capacity(2);
    for side in engines.iter_mut() {
        run.tr.set_on(side.traced);
        let t = Stopwatch::start();
        let report = run
            .tr
            .span("engine.report_s", |_| side.engine.report())
            .map_err(err)?;
        side.secs += t.secs();
        count_engine(&side.engine, &report, side.other_steps, &mut run.tr);
        let seed = side.engine.seed();
        let (digest, settled) = check_engine(&side.engine, config, seed, &report, &mut run.tr)?;
        if !side.traced {
            run.work += settled;
            run.work_secs += side.secs;
            run.digests.push(digest.0);
        }
        digests.push(digest);
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "engine {u}: traced and untraced engines end in different states"
        ));
    }
    Ok(())
}

/// `engine_faults`: one op is `run` plus `report` of a freshly built
/// 10-session engine under seeded wire faults, crashes and Byzantine
/// proposers.
struct EngineFaults {
    shape: Shape,
}

impl OpStream for EngineFaults {
    type Input = (EngineConfig, Engine);
    type Output = (EngineConfig, Engine, EngineReport);

    fn prepare(
        &mut self,
        seed: u64,
        k: u64,
        tr: &mut Tracer,
    ) -> Result<((EngineConfig, Engine), bool), String> {
        let (eseed, config) = engine_input(&self.shape, seed, k, true);
        let engine = new_engine(config.clone(), eseed, tr)?;
        Ok(((config, engine), true))
    }

    fn op(
        &mut self,
        (config, mut engine): (EngineConfig, Engine),
        tr: &mut Tracer,
    ) -> Result<Self::Output, String> {
        if !tr.is_on() {
            let report = engine.run().map_err(err)?;
            return Ok((config, engine, report));
        }
        let mut others = 0u64;
        loop {
            let (more, block, t0, t1) = step(&mut engine, tr)?;
            tr.record(
                if block {
                    "engine.block_step_s"
                } else {
                    "engine.other_step_s"
                },
                t0,
                t1,
            );
            others += u64::from(!block);
            if !more {
                break;
            }
        }
        let report = tr
            .span("engine.report_s", |_| engine.report())
            .map_err(err)?;
        count_engine(&engine, &report, others, tr);
        Ok((config, engine, report))
    }

    fn check(
        &mut self,
        (config, engine, report): &Self::Output,
        tr: &mut Tracer,
    ) -> Result<Checked, String> {
        let (digest, settled) = check_engine(engine, config, engine.seed(), report, tr)
            .map_err(|e| format!("engine seed {}: {e}", engine.seed()))?;
        Ok(Checked {
            digest,
            work: settled,
            work_secs: None,
        })
    }
}

#[cfg(test)]
mod tests;
