//! Durable-run overhead: what journaling every episode and snapshotting
//! periodically costs relative to a plain in-memory run.
//!
//! The fixture uses paper-scale episodes (`episode_size` 3000 on a
//! ~1500-entity space) because the durability cost per episode is a
//! near-constant couple of fsyncs — it only makes sense priced against a
//! realistic episode, not a micro one. Episode compute is measured
//! *marginally* (runs of 2 and 10 episodes, differenced) so fixed per-run
//! work cancels; the store side is priced directly by replaying the exact
//! operations the durable driver performs — an episode-record append and a
//! periodic snapshot write — with byte-identical payloads.
//!
//! In measure mode (`cargo bench`) this target also writes
//! `BENCH_store.json` at the repo root with the per-episode costs and the
//! relative overhead, and asserts the overhead stays under the 5% budget
//! so regressions show up in review diffs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use alex_core::persist::{
    encode_episode, encode_snapshot, EpisodeRecord, EpisodeStats, PartitionRecord,
    PartitionSnapshot, RunSnapshot,
};
use alex_core::{
    driver, Agent, AlexConfig, FeedbackSource, LinkSpace, OracleFeedback, SpaceConfig,
};
use alex_datagen::{generate_pair, Domain, Flavor, GeneratedPair, PairConfig, SideConfig};
use alex_store::{DirectStore, Store};

const SHORT_EPISODES: usize = 2;
const LONG_EPISODES: usize = 10;
const EPISODE_SIZE: usize = 3000;
const SNAPSHOT_EVERY: u64 = 8;
const OVERHEAD_BUDGET: f64 = 0.05;

fn pair() -> GeneratedPair {
    generate_pair(&PairConfig {
        seed: 42,
        left: SideConfig {
            name: "L".into(),
            ns: "http://l.example.org/".into(),
            flavor: Flavor::Left,
            noise: 0.1,
            drop_prob: 0.12,
            sparse: false,
        },
        right: SideConfig {
            name: "R".into(),
            ns: "http://r.example.org/".into(),
            flavor: Flavor::Right,
            noise: 0.12,
            drop_prob: 0.12,
            sparse: false,
        },
        shared: 600,
        left_only: 700,
        right_only: 200,
        confusable_frac: 0.25,
        domains: vec![Domain::Person, Domain::Organization],
        left_extra_domains: Domain::ALL.to_vec(),
    })
}

struct Fixture {
    space: LinkSpace,
    truth: HashSet<(u32, u32)>,
    initial: Vec<(u32, u32)>,
}

fn fixture() -> Fixture {
    let pair = pair();
    let space = LinkSpace::build(&pair.left, &pair.right, &SpaceConfig::default());
    let truth: HashSet<(u32, u32)> = pair
        .ground_truth
        .iter()
        .filter_map(|&(l, r)| Some((space.left_index().id(l)?, space.right_index().id(r)?)))
        .collect();
    let mut initial: Vec<(u32, u32)> = truth.iter().copied().collect();
    initial.sort_unstable();
    initial.truncate(initial.len() * 2 / 5);
    Fixture {
        space,
        truth,
        initial,
    }
}

fn cfg(max_episodes: usize) -> AlexConfig {
    AlexConfig {
        episode_size: EPISODE_SIZE,
        max_episodes,
        ..AlexConfig::default()
    }
}

/// Plain in-memory run; returns the finished agent and its report.
fn run_plain(fx: &Fixture, max_episodes: usize) -> (Agent, driver::RunReport) {
    let mut agent = Agent::new(fx.space.clone(), &fx.initial, cfg(max_episodes));
    // Noisy oracle so the run does not converge before max_episodes and the
    // two drivers execute the same number of journal-worthy episodes.
    let mut oracle = OracleFeedback::with_error_rate(fx.truth.clone(), 0.1, 9);
    let report = driver::run(&mut agent, &mut oracle, &fx.truth);
    (agent, report)
}

/// Durable run against a fresh state directory; returns episodes executed.
fn run_durable(fx: &Fixture, max_episodes: usize, dir: &PathBuf) -> usize {
    let _ = std::fs::remove_dir_all(dir);
    let mut agent = Agent::new(fx.space.clone(), &fx.initial, cfg(max_episodes));
    let mut oracle = OracleFeedback::with_error_rate(fx.truth.clone(), 0.1, 9);
    let (mut store, recovery) = DirectStore::open(dir).expect("open state dir");
    let durability = driver::Durability::new(&mut store, recovery).snapshot_every(SNAPSHOT_EVERY);
    let report =
        driver::run_durable(&mut agent, &mut oracle, &fx.truth, durability).expect("durable run");
    report.episodes.len()
}

fn bench_store_overhead(c: &mut Criterion) {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("alex-bench-store-{}", std::process::id()));

    let mut g = c.benchmark_group("store_overhead");
    g.sample_size(10);
    g.bench_function("plain_run_10_episodes", |b| {
        b.iter(|| black_box(run_plain(&fx, LONG_EPISODES).1.episodes.len()))
    });
    g.bench_function("durable_run_10_episodes", |b| {
        b.iter(|| black_box(run_durable(&fx, LONG_EPISODES, &dir)))
    });
    g.finish();

    write_bench_snapshot(&fx, &dir);
    let _ = std::fs::remove_dir_all(&dir);
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

/// Byte-realistic payloads: the journal record and run snapshot the durable
/// driver would commit after the final episode of `report`.
fn representative_payloads(
    fx: &Fixture,
    agent: &Agent,
    report: &driver::RunReport,
) -> (Vec<u8>, Vec<u8>) {
    let oracle = OracleFeedback::with_error_rate(fx.truth.clone(), 0.1, 9);
    let source_state = oracle
        .durable_state()
        .expect("oracle feedback has durable state");
    let mut pairs: Vec<(u32, u32)> = fx.truth.iter().copied().collect();
    pairs.sort_unstable();
    let items: Vec<(u32, u32, bool, u32)> = (0..EPISODE_SIZE)
        .map(|i| {
            let (l, r) = pairs[i % pairs.len()];
            (l, r, i % 3 != 0, (i % 7) as u32)
        })
        .collect();
    let record = encode_episode(&EpisodeRecord {
        partitions: vec![PartitionRecord {
            items,
            source_state: source_state.clone(),
        }],
        degraded: false,
    });
    let snapshot = encode_snapshot(&RunSnapshot {
        base_fingerprint: 0,
        last_episode: report.episodes.len() as u64,
        completed: false,
        relaxed_converged_at: None,
        episodes: report.episodes.iter().map(EpisodeStats::from).collect(),
        partitions: vec![PartitionSnapshot {
            episodes: report.episodes.iter().map(EpisodeStats::from).collect(),
            agent: agent.capture_state(),
            source_state,
        }],
    });
    (record, snapshot)
}

fn write_bench_snapshot(fx: &Fixture, dir: &PathBuf) {
    // Snapshots are wall-clock measurements; only meaningful (and only
    // worth the time) under `cargo bench`, not the smoke pass.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    // Episode compute, marginally: fixed per-run work cancels in the
    // long-minus-short difference.
    let span = (LONG_EPISODES - SHORT_EPISODES) as f64;
    let plain_short = mean_us(3, || {
        black_box(run_plain(fx, SHORT_EPISODES));
    });
    let plain_long = mean_us(3, || {
        let (_, report) = run_plain(fx, LONG_EPISODES);
        assert_eq!(
            black_box(report.episodes.len()),
            LONG_EPISODES,
            "run must not converge early"
        );
    });
    let plain_per_episode = (plain_long - plain_short) / span;

    // Store cost, directly: the driver's per-episode commit is one journal
    // append, plus one snapshot write every SNAPSHOT_EVERY episodes.
    let (record, snapshot) = {
        let (agent, report) = run_plain(fx, LONG_EPISODES);
        representative_payloads(fx, &agent, &report)
    };
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _recovery) = DirectStore::open(dir).expect("open state dir");
    let mut seq = 0u64;
    let journal_us = mean_us(50, || {
        seq += 1;
        store.append_episode(seq, &record).expect("journal append");
    });
    let snapshot_us = mean_us(10, || {
        seq += 1;
        store
            .write_snapshot(seq, &snapshot)
            .expect("write snapshot");
    });
    let store_per_episode = journal_us + snapshot_us / SNAPSHOT_EVERY as f64;
    let overhead = store_per_episode / plain_per_episode;
    assert!(
        overhead < OVERHEAD_BUDGET,
        "journal+snapshot cost must stay under {:.0}% of episode time: \
         episode {plain_per_episode:.1}us, append {journal_us:.1}us, \
         snapshot {snapshot_us:.1}us/{SNAPSHOT_EVERY} ({:.2}%)",
        OVERHEAD_BUDGET * 100.0,
        overhead * 100.0
    );
    let json = format!(
        "{{\n  \"bench\": \"store_overhead\",\n  \"episode_size\": {EPISODE_SIZE},\n  \
         \"snapshot_every\": {SNAPSHOT_EVERY},\n  \
         \"episode_us\": {plain_per_episode:.1},\n  \
         \"journal_append_us\": {journal_us:.1},\n  \
         \"snapshot_write_us\": {snapshot_us:.1},\n  \
         \"store_us_per_episode\": {store_per_episode:.1},\n  \
         \"overhead_frac\": {overhead:.4},\n  \"budget_frac\": {OVERHEAD_BUDGET}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_store_overhead);
criterion_main!(benches);
