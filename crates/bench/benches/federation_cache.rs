//! Answer-cache economics: what a cache hit costs relative to a cold
//! dispatch, and what the cache buys the episode loop.
//!
//! The fixture injects a deterministic per-call latency into both
//! endpoints (FaultProfile, no failures) so dispatch has a realistic
//! network-shaped price; without it an in-process endpoint answers in
//! microseconds and the comparison is meaningless. The episode loop is
//! modeled the way `QueryFeedback` drives the engine: the same workload
//! re-executed pass after pass, links unchanged between passes — exactly
//! the regime the cache is built for (a link mutation only adds probes).
//!
//! In measure mode (`cargo bench`) this target writes `BENCH_cache.json`
//! at the repo root with the hit-path and cold-dispatch per-query costs
//! and the episode-loop speedup, and asserts the speedup stays ≥ 2x so a
//! caching regression shows up in review diffs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use alex_datagen::{generate_pair, Domain, Flavor, GeneratedPair, PairConfig, SideConfig};
use alex_sparql::{parse, DatasetEndpoint, FaultProfile, FaultyEndpoint, FederatedEngine, Query};

/// Injected per-call endpoint latency. Small enough to keep the bench
/// quick, large enough to dominate in-process evaluation noise.
const LATENCY: Duration = Duration::from_micros(200);
const WORKLOAD: usize = 20;
const EPISODE_PASSES: usize = 5;
const CACHE_CAPACITY: usize = 4096;
const SPEEDUP_FLOOR: f64 = 2.0;

fn pair() -> GeneratedPair {
    generate_pair(&PairConfig {
        seed: 42,
        left: SideConfig {
            name: "L".into(),
            ns: "http://l.example.org/".into(),
            flavor: Flavor::Left,
            noise: 0.05,
            drop_prob: 0.1,
            sparse: false,
        },
        right: SideConfig {
            name: "R".into(),
            ns: "http://r.example.org/".into(),
            flavor: Flavor::Right,
            noise: 0.05,
            drop_prob: 0.1,
            sparse: false,
        },
        shared: 120,
        left_only: 80,
        right_only: 40,
        confusable_frac: 0.25,
        domains: vec![Domain::Person, Domain::Organization],
        left_extra_domains: vec![Domain::Place],
    })
}

struct Fixture {
    pair: GeneratedPair,
    queries: Vec<Query>,
}

fn fixture() -> Fixture {
    let pair = pair();
    let queries: Vec<Query> = alex_datagen::federated_queries(&pair, WORKLOAD, 3)
        .iter()
        .map(|q| parse(&q.sparql).expect("generated SPARQL parses"))
        .collect();
    assert!(!queries.is_empty(), "workload must not be empty");
    Fixture { pair, queries }
}

/// Engine over latency-injected endpoints, bridged by the ground-truth
/// links, with or without the answer cache.
fn engine(fx: &Fixture, cache: bool) -> FederatedEngine {
    let profile = |seed: u64| FaultProfile {
        seed,
        latency: LATENCY,
        ..FaultProfile::none()
    };
    let mut engine = FederatedEngine::new();
    engine.add_endpoint(Box::new(FaultyEndpoint::new(
        DatasetEndpoint::new(fx.pair.left.clone()),
        profile(1),
    )));
    engine.add_endpoint(Box::new(FaultyEndpoint::new(
        DatasetEndpoint::new(fx.pair.right.clone()),
        profile(2),
    )));
    engine.set_links(alex_sparql::SameAsLinks::from_pairs(
        fx.pair
            .ground_truth
            .iter()
            .map(|&(l, r)| (fx.pair.left.resolve(l), fx.pair.right.resolve(r))),
    ));
    if cache {
        engine.enable_cache(CACHE_CAPACITY);
    }
    engine
}

/// One workload pass; returns total answers (a cheap correctness anchor).
fn run_pass(engine: &FederatedEngine, queries: &[Query]) -> usize {
    queries
        .iter()
        .map(|q| engine.execute_full(q).expect("evaluates").answers.len())
        .sum()
}

fn bench_federation_cache(c: &mut Criterion) {
    let fx = fixture();

    let mut g = c.benchmark_group("federation_cache");
    g.sample_size(10);
    g.bench_function("cold_dispatch_pass", |b| {
        // A fresh uncached engine per measurement would re-pay setup; the
        // uncached engine re-dispatches every pass anyway, so reuse it.
        let cold = engine(&fx, false);
        b.iter(|| black_box(run_pass(&cold, &fx.queries)))
    });
    g.bench_function("warm_hit_pass", |b| {
        let warm = engine(&fx, true);
        let expected = run_pass(&warm, &fx.queries); // populate the cache
        b.iter(|| {
            let answers = run_pass(&warm, &fx.queries);
            assert_eq!(answers, expected, "hits must reproduce cold answers");
            black_box(answers)
        })
    });
    g.finish();

    write_bench_snapshot(&fx);
}

/// Mean microseconds per iteration of `f` over a small fixed batch.
fn mean_us(iters: u32, mut f: impl FnMut()) -> f64 {
    // One unmeasured warm-up iteration.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_micros() as f64 / iters as f64
}

fn write_bench_snapshot(fx: &Fixture) {
    // Wall-clock measurements; only meaningful (and only worth the sleeps)
    // under `cargo bench`, not the smoke pass.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }

    // Per-query costs: cold dispatch vs warm hit path.
    let cold = engine(fx, false);
    let cold_pass_us = mean_us(3, || {
        black_box(run_pass(&cold, &fx.queries));
    });
    let warm = engine(fx, true);
    let expected = run_pass(&warm, &fx.queries);
    let warm_pass_us = mean_us(3, || {
        assert_eq!(black_box(run_pass(&warm, &fx.queries)), expected);
    });
    let cold_query_us = cold_pass_us / fx.queries.len() as f64;
    let hit_query_us = warm_pass_us / fx.queries.len() as f64;

    // Episode loop: EPISODE_PASSES workload passes, links unchanged. The
    // cached side pays its misses on pass one and hits thereafter — that
    // first pass is *included*, so the speedup is end-to-end honest.
    let uncached = engine(fx, false);
    let loop_cold_us = mean_us(2, || {
        for _ in 0..EPISODE_PASSES {
            black_box(run_pass(&uncached, &fx.queries));
        }
    });
    let loop_warm_us = mean_us(2, || {
        let cached = engine(fx, true);
        for _ in 0..EPISODE_PASSES {
            assert_eq!(black_box(run_pass(&cached, &fx.queries)), expected);
        }
    });
    let speedup = loop_cold_us / loop_warm_us;
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "warm cache must speed the episode loop by at least {SPEEDUP_FLOOR}x: \
         cold {loop_cold_us:.0}us vs warm {loop_warm_us:.0}us ({speedup:.2}x)"
    );

    let stats = warm.cache_stats().expect("cache enabled");
    let json = format!(
        "{{\n  \"bench\": \"federation_cache\",\n  \
         \"workload_queries\": {},\n  \
         \"endpoint_latency_us\": {},\n  \
         \"episode_passes\": {EPISODE_PASSES},\n  \
         \"cold_query_us\": {cold_query_us:.1},\n  \
         \"hit_query_us\": {hit_query_us:.1},\n  \
         \"episode_loop_cold_us\": {loop_cold_us:.0},\n  \
         \"episode_loop_warm_us\": {loop_warm_us:.0},\n  \
         \"episode_loop_speedup\": {speedup:.2},\n  \
         \"speedup_floor\": {SPEEDUP_FLOOR},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {}\n}}\n",
        fx.queries.len(),
        LATENCY.as_micros(),
        stats.hits,
        stats.misses,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_federation_cache);
criterion_main!(benches);
