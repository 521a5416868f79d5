//! The engine in `market_daemon`'s shape: many sessions on 4 validators.
//!
//! 1. **Pinned digests.** The final tip hash, state root and last
//!    canonical receipts root of a fault-free and a faulted 10-session
//!    run are pinned as hex constants, recorded before the hash-once
//!    mine/apply paths landed. The determinism tests compare two runs
//!    of one build, so only pinned values catch a change in what gets
//!    hashed, or how.
//! 2. **In-flight lost-tx resolution.** Builds with debug assertions
//!    (the default for `cargo test`) check every batch's in-flight
//!    resolution against a full scan of every mined transaction and
//!    assert identical requeue lists. The sweeps below drive that check
//!    through wire faults with crashes, and through Byzantine proposers,
//!    separately; `tests/sim_engine.rs`'s 100 seeded fault schedules
//!    drive it through both at once in the DST shape.

use tradefl_engine::{Engine, EngineConfig, EngineReport, SessionSpec};
use tradefl_ledger::sha256::to_hex;
use tradefl_runtime::sim::faults::{ByzantineConfig, FaultConfig};

const VALIDATORS: usize = 4;
const HORIZON: u64 = 1 << 10;

/// `market_daemon --sessions <sessions> --seed <seed>`, plus `--faults`
/// and `--byzantine` when asked.
fn daemon_config(sessions: usize, seed: u64, faults: bool, byzantine: bool) -> EngineConfig {
    EngineConfig {
        validators: VALIDATORS,
        sessions: (0..sessions)
            .map(|s| SessionSpec {
                name: format!("market-{s}"),
                orgs: 3 + s % 3,
                seed: seed.wrapping_add(s as u64),
            })
            .collect(),
        batch_interval: 8,
        mean_arrival_gap: 3.0,
        admission_capacity: 32,
        horizon: HORIZON,
        faults: if faults {
            FaultConfig::from_seed(seed, VALIDATORS, HORIZON)
        } else {
            FaultConfig::none()
        },
        byzantine: if byzantine { ByzantineConfig::from_seed(seed) } else { ByzantineConfig::none() },
        ..EngineConfig::default()
    }
}

/// Runs to completion; returns the report and the canonical replica's
/// `(tip hash, state root, last receipts root)` in hex.
fn run(config: EngineConfig, seed: u64) -> (EngineReport, [String; 3]) {
    let mut engine = Engine::new(config, seed).expect("engine boots");
    let report = engine.run().expect("run completes");
    let chain = engine.network().validator(report.survivors[0]).node.chain();
    let last = chain.blocks().last().expect("a chain holds its genesis block");
    let digests = [
        to_hex(&chain.tip_hash().0),
        to_hex(&report.state_root.0),
        to_hex(&last.header.receipts_root.0),
    ];
    (report, digests)
}

#[test]
fn fault_free_ten_sessions_hash_to_the_pinned_digests() {
    let (report, digests) = run(daemon_config(10, 1, false, false), 1);
    assert!(report.fully_settled(), "{report:?}");
    assert_eq!(report.final_height, 12);
    assert_eq!(
        digests,
        [
            "425499e1b2649ea5359486469fee2be22ac95f65f3911dfabf0fa1be4c624326",
            "4f75022485f2f6d9d65ceb25f24dc9fe6354971ca6cc9a0d695c20a89fe26867",
            "3459a3185aa4017930947daf5c4a5e1f8b173846cf5a5dd799a39c7c8d4e75d7",
        ]
    );
}

/// Seed 11's fault schedule loses 176 mined transactions with crashed
/// replicas, so the pinned run also covers the requeue path.
#[test]
fn faulted_ten_sessions_hash_to_the_pinned_digests() {
    let (report, digests) = run(daemon_config(10, 11, true, false), 11);
    assert!(report.fully_settled(), "{report:?}");
    assert_eq!((report.final_height, report.requeues, report.heals), (2, 176, 4));
    assert_eq!(
        digests,
        [
            "65734af0daaa40b01eb02299f44bd48c05ec96baf2623c149d3e04b51bec61c6",
            "7a46bb99339aa3b123eee7a2b5dc02b68ca402cad0711539c0782ca29b152fc0",
            "9deb9baa8b186113c5b7d5739a033f436993f6bc1d7ca1f202968b40eb8a74e0",
        ]
    );
}

/// Wire faults with crashes and restarts: the events that make the
/// resolution fall back to a full scan. Some runs must lose mined
/// transactions, or the cross-check compared only empty lists.
#[test]
fn faulted_daemon_runs_resolve_lost_txs_like_a_full_scan() {
    let mut requeued_runs = 0;
    for seed in 0..60u64 {
        let (report, _) = run(daemon_config(10, seed, true, false), seed);
        assert!(report.fully_settled(), "seed {seed}: {report:?}");
        requeued_runs += usize::from(report.requeues > 0);
    }
    assert!(requeued_runs >= 3, "only {requeued_runs}/60 runs re-queued anything");
}

/// Byzantine proposers alone: every lie heals the liar, whose honest
/// block forks off, so the canonical chain keeps changing replicas.
#[test]
fn byzantine_daemon_runs_resolve_lost_txs_like_a_full_scan() {
    let mut byzantine_runs = 0;
    for seed in 0..30u64 {
        let (report, _) = run(daemon_config(10, seed, false, true), seed);
        assert!(report.fully_settled(), "seed {seed}: {report:?}");
        byzantine_runs += usize::from(report.byzantine_rounds > 0);
    }
    assert!(byzantine_runs >= 20, "only {byzantine_runs}/30 runs saw a proposer lie");
}
