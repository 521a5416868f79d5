//! Benchmarks for the beyond-the-paper extensions: consensus rounds,
//! the social-optimum solver, asynchronous training and attestation.

use tradefl_runtime::bench::{BenchmarkId, Criterion};
use tradefl_runtime::{bench_group, bench_main};
use std::hint::black_box;
use tradefl_core::accuracy::SqrtAccuracy;
use tradefl_core::config::MarketConfig;
use tradefl_core::game::CoopetitionGame;
use tradefl_fl_sim::async_fed::{train_async, AsyncConfig, OrgTiming};
use tradefl_fl_sim::data::{dirichlet_shard, generate, DatasetKind};
use tradefl_fl_sim::model::{Mlp, ModelKind};
use tradefl_ledger::attestation::Enclave;
use tradefl_ledger::network::Network;
use tradefl_ledger::tx::{Transaction, TxPayload};
use tradefl_ledger::types::{Address, Fixed, Wei};
use tradefl_solver::social::{solve_social_optimum, SocialOptions};

fn bench_network_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_consensus_round");
    group.sample_size(20);
    for validators in [3usize, 7] {
        group.bench_with_input(
            BenchmarkId::from_parameter(validators),
            &validators,
            |b, &validators| {
                b.iter(|| {
                    let names: Vec<String> =
                        (0..validators).map(|i| format!("v{i}")).collect();
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    let mut net = Network::new(
                        &refs,
                        &[(Address::from_name("a"), Wei(1_000_000))],
                    );
                    // Ten one-transfer blocks, proposers rotating, each
                    // frame re-executed by every other replica.
                    for k in 0..10u64 {
                        let tx = Transaction {
                            from: Address::from_name("a"),
                            nonce: k,
                            value: Wei(1),
                            gas_limit: 21_000,
                            payload: TxPayload::Transfer { to: Address::from_name("b") },
                        };
                        let proposer = k as usize % validators;
                        let frame = net.propose(proposer, vec![tx]).unwrap();
                        for peer in (0..validators).filter(|&i| i != proposer) {
                            net.deliver_frame(peer, &frame).unwrap();
                        }
                    }
                    black_box(net.converged())
                });
            },
        );
    }
    group.finish();
}

fn bench_social_optimum(c: &mut Criterion) {
    let mut group = c.benchmark_group("social_optimum");
    group.sample_size(10);
    for n in [4usize, 8] {
        let market = MarketConfig::table_ii().with_orgs(n).build(5).unwrap();
        let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    solve_social_optimum(&game, SocialOptions::default())
                        .unwrap()
                        .welfare,
                )
            });
        });
    }
    group.finish();
}

fn bench_async_round(c: &mut Criterion) {
    let pool = generate(DatasetKind::EurosatLike, 1200, 1);
    let shards = dirichlet_shard(&pool.take(800), &[400, 400], 1.0, 1);
    let test = pool.shard(&[800, 400]).pop().unwrap();
    let timings =
        vec![OrgTiming { comm: 5.0, compute: 20.0 }, OrgTiming { comm: 5.0, compute: 60.0 }];
    c.bench_function("async_20_updates", |b| {
        b.iter(|| {
            let global = Mlp::for_kind(ModelKind::MobilenetLike, test.dim(), test.classes, 1);
            black_box(
                train_async(
                    global,
                    &shards,
                    &test,
                    &[1.0, 1.0],
                    &timings,
                    &AsyncConfig { updates: 20, ..AsyncConfig::default() },
                )
                .unwrap()
                .final_accuracy(),
            )
        });
    });
}

fn bench_attestation(c: &mut Criterion) {
    let enclave = Enclave::from_label("bench");
    let org = Address::from_name("org");
    c.bench_function("attest_and_verify", |b| {
        b.iter(|| {
            let att = enclave.attest(org, Fixed::from_f64(0.5), Fixed::from_f64(3.0));
            black_box(tradefl_ledger::attestation::verify(
                &enclave.verification_key(),
                org,
                Fixed::from_f64(0.5),
                Fixed::from_f64(3.0),
                &att,
            ))
        });
    });
}

bench_group!(
    benches,
    bench_network_round,
    bench_social_optimum,
    bench_async_round,
    bench_attestation
);
bench_main!(benches);
