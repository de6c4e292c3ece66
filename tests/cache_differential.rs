//! Differential tests for the answer cache: with `--cache` on, the system
//! must be *behaviorally invisible* — byte-identical final links, reports,
//! and telemetry-visible feedback counts at any thread count and under
//! seeded fault plans — while the cache itself demonstrably serves hits
//! and link churn keeps changing which probes the queries send.

mod harness;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use alex::core::AlexConfig;
use alex::datagen::Domain;
use alex::fault::FaultPlan;
use alex::rdf::Dataset;
use alex::sparql::{parse, Link, Query, ResilienceConfig, SameAsLinks};
use alex::telemetry::{Event, MemorySink};
use rand::prelude::*;

struct RunOutput {
    /// Final candidate links as N-Triples — the byte-identity target.
    final_links: String,
    /// Per-episode quality report, formatted as the CLI prints it.
    report: Vec<String>,
    /// Telemetry-visible feedback: one `feedback_applied` event per judged
    /// answer batch.
    feedback_events: usize,
    /// Hits summed over `federated_query` events; zero when the cache was
    /// off.
    event_hits: u64,
    /// Per `federated_query` event: the workload query it ran (queries
    /// run round-robin), its sameAs expansions and its answer count.
    queries: Vec<(usize, u64, u64)>,
    /// Engine-level cache statistics, `None` when the cache was off.
    cache: Option<alex::sparql::CacheStats>,
}

/// One full improve-with-query-feedback run, in-process, with the cache
/// optionally enabled. Everything else (pair, workload, seeds) is fixed.
fn run_improve(
    pair: &alex::datagen::GeneratedPair,
    (plan, resilience): (&FaultPlan, &Option<ResilienceConfig>),
    threads: usize,
    cache_capacity: Option<usize>,
) -> RunOutput {
    alex::parallel::set_threads(threads);
    let sink = Arc::new(MemorySink::new());
    alex::telemetry::global().events().attach(sink.clone());

    let mut engine = harness::faulty_engine([&pair.left, &pair.right].map(|ds| (ds, plan.clone())));
    if let Some(resilience) = resilience {
        engine.set_resilience(resilience.clone());
    }
    if let Some(capacity) = cache_capacity {
        engine.enable_cache(capacity);
    }
    let cfg = AlexConfig {
        episode_size: 30,
        max_episodes: 8,
        ..AlexConfig::default()
    };
    let (report, agent, source) = harness::query_loop(pair, engine, 5, 40, cfg);
    let workload = source.workload_len();
    alex::telemetry::global().events().detach();
    let events = sink.events();
    let mut out = RunOutput {
        final_links: String::new(),
        report: vec![format!("initial {:?}", report.initial_quality)],
        feedback_events: 0,
        event_hits: 0,
        queries: Vec::new(),
        cache: source.engine().cache_stats(),
    };
    for e in &events {
        match e {
            Event::FeedbackApplied { .. } => out.feedback_events += 1,
            Event::FederatedQuery {
                cache_hits,
                sameas_expansions,
                answers,
                ..
            } => {
                out.event_hits += cache_hits;
                out.queries
                    .push((out.queries.len() % workload, *sameas_expansions, *answers));
            }
            _ => {}
        }
    }
    out.report.extend(
        report
            .episodes
            .iter()
            .map(|e| format!("ep {} {:?}", e.episode, e.quality)),
    );
    out.report.push(format!("stop {:?}", report.stop));
    out.final_links = SameAsLinks::from_pairs(agent.candidates().iter().map(|id| {
        let (lt, rt) = agent.space().pair_terms(id);
        (
            pair.left.resolve(lt).to_string(),
            pair.right.resolve(rt).to_string(),
        )
    }))
    .to_ntriples();
    out
}

/// The acceptance check: improve end-to-end, cached vs uncached, across
/// `--threads 1/4` and seeded fault plans — final links, reports, and
/// feedback counts must be byte-identical, while the cached runs must
/// actually be serving hits (otherwise this test proves nothing).
#[test]
fn improve_is_byte_identical_with_cache_on_or_off() {
    let _serial = harness::serial();
    let pair = harness::synthetic_pair(55, [40, 30, 20], vec![Domain::Place]);
    for (name, plan, resilience) in &harness::scenarios() {
        for threads in [1usize, 4] {
            let label = format!("[{name} / threads {threads}]");
            let uncached = run_improve(&pair, (plan, resilience), threads, None);
            let cached = run_improve(&pair, (plan, resilience), threads, Some(4096));
            assert_eq!(
                uncached.final_links, cached.final_links,
                "{label} final links diverged"
            );
            assert_eq!(
                uncached.report, cached.report,
                "{label} episode reports diverged"
            );
            assert_eq!(
                uncached.feedback_events, cached.feedback_events,
                "{label} feedback counts"
            );
            assert_eq!(
                uncached.queries, cached.queries,
                "{label} per-query answers diverged"
            );
            assert!(
                uncached.cache.is_none(),
                "uncached run must report no cache"
            );
            assert_eq!(uncached.event_hits, 0, "uncached run must emit zero hits");
            let stats = cached.cache.expect("cached run must report cache stats");
            assert!(stats.hits > 0, "{label} cached run never hit: {stats:?}");
            assert_eq!(
                cached.event_hits, stats.hits,
                "{label} events disagree with engine stats"
            );
            let expansions = cached.queries.iter().map(|&(q, e, _)| (q, e));
            assert!(
                expansions_changed(expansions),
                "{label} link churn never changed a job list"
            );
        }
    }
    alex::parallel::set_threads(0); // restore default resolution
}

/// Whether some query ran with different sameAs expansion counts at
/// different times, i.e. link churn changed the probes it sent. Takes
/// (query, expansions) per execution.
fn expansions_changed(runs: impl IntoIterator<Item = (usize, u64)>) -> bool {
    let mut seen: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    for (query, expansions) in runs {
        seen.entry(query).or_default().insert(expansions);
    }
    seen.values().any(|set| set.len() > 1)
}

/// The cache adds no thread-count sensitivity of its own: 1 thread cached
/// vs 4 threads cached produce the same artifacts.
#[test]
fn cached_runs_are_thread_invariant() {
    let _serial = harness::serial();
    let pair = harness::synthetic_pair(55, [40, 30, 20], vec![Domain::Place]);
    let clean = (&FaultPlan::default(), &None);
    let one = run_improve(&pair, clean, 1, Some(64));
    let four = run_improve(&pair, clean, 4, Some(64));
    assert_eq!(
        (one.final_links, one.report),
        (four.final_links, four.report)
    );
    alex::parallel::set_threads(0);
}

// ------------------------------------------------------- shadow oracle

/// Two datasets bridged by sameAs links, small enough that an uncached
/// engine can act as the from-scratch oracle for every probe.
fn oracle_world(n: usize) -> [Dataset; 2] {
    let (mut left, mut right) = (Dataset::new("L"), Dataset::new("R"));
    for i in 0..n {
        let (entity, doc) = (format!("http://l/e{i}"), format!("http://r/doc{i}"));
        left.add_str(&entity, "http://l/flag", "yes");
        left.add_str(&entity, "http://l/label", &format!("entity {i}"));
        right.add_iri(&doc, "http://r/about", &format!("http://r/e{i}"));
        right.add_str(&doc, "http://r/title", &format!("doc {i}"));
    }
    [left, right]
}

/// Staleness property: after *any* sequence of link mutations (add /
/// remove / blacklist-style remove / wholesale rollback), the cached
/// engine answers every query exactly like a shadow engine that recomputes
/// from scratch. An entry whose answer depended on links would surface
/// here as a divergent answer. Capacity 8 keeps the cache under eviction
/// pressure the whole time.
#[test]
fn random_link_mutations_never_serve_stale_answers() {
    let _serial = harness::serial();
    alex::parallel::set_threads(1);
    const N: usize = 10;
    let world = oracle_world(N);
    let engine = || harness::faulty_engine(world.iter().map(|ds| (ds, FaultPlan::default())));
    let (mut cached, mut shadow) = (engine(), engine());
    cached.enable_cache(8);

    // Probe pool: one join query crossing every link, plus per-entity
    // queries on a bound IRI, whose probes change with that entity's
    // links.
    let join = "SELECT ?doc WHERE { ?x <http://l/flag> \"yes\" . ?doc <http://r/about> ?x }";
    let bound =
        (0..N).map(|i| format!("SELECT ?doc WHERE {{ ?doc <http://r/about> <http://l/e{i}> }}"));
    let probes: Vec<Query> = std::iter::once(join.to_string())
        .chain(bound)
        .map(|q| parse(&q).expect("ok"))
        .collect();

    let sink = Arc::new(MemorySink::new());
    alex::telemetry::global().events().attach(sink.clone());
    let mut chosen: Vec<usize> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let mut rollback_point: Option<SameAsLinks> = None;
    for step in 0..80 {
        // Mutate both engines identically.
        match rng.random_range(0u8..10) {
            0..=4 => {
                // Add a (possibly wrong, possibly duplicate) cross link.
                let i = rng.random_range(0..N);
                let j = rng.random_range(0..N);
                let link = Link::new(format!("http://l/e{i}"), format!("http://r/e{j}"));
                cached.links_mut().add(link.clone());
                shadow.links_mut().add(link);
            }
            5..=7 => {
                // Remove/blacklist a random existing link (no-op when empty).
                let existing: Vec<Link> = cached.links().iter().cloned().collect();
                if let Some(link) = existing.choose(&mut rng) {
                    cached.links_mut().remove(link);
                    shadow.links_mut().remove(link);
                }
            }
            8 => {
                // Snapshot for a later rollback.
                rollback_point = Some(cached.links().clone());
            }
            _ => {
                // Rollback: wholesale restore of an earlier snapshot.
                if let Some(snapshot) = rollback_point.take() {
                    cached.set_links(snapshot.clone());
                    shadow.set_links(snapshot);
                }
            }
        }

        // Probe both engines; any stale cache entry shows up as divergence.
        for _ in 0..2 {
            let q = probes.choose(&mut rng).expect("pool not empty");
            chosen.extend(probes.iter().position(|p| std::ptr::eq(p, q)));
            let want = shadow.execute_full(q).expect("shadow evaluates");
            let got = cached.execute_full(q).expect("cached evaluates");
            assert_eq!(
                got, want,
                "step {step}: cached answers diverged from the from-scratch oracle"
            );
        }
    }

    alex::telemetry::global().events().detach();
    // Events alternate shadow, cached: keep the cached engine's.
    let expansions: Vec<u64> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::FederatedQuery {
                sameas_expansions, ..
            } => Some(*sameas_expansions),
            _ => None,
        })
        .skip(1)
        .step_by(2)
        .collect();
    assert_eq!(expansions.len(), chosen.len());
    assert!(
        expansions_changed(chosen.into_iter().zip(expansions)),
        "link churn must change some query's job list"
    );

    let stats = cached.cache_stats().expect("cache enabled");
    assert!(stats.hits > 0, "the sequence must exercise hits: {stats:?}");
    assert!(
        stats.evictions > 0,
        "capacity 8 must force evictions: {stats:?}"
    );
    alex::parallel::set_threads(0);
}

// ---------------------------------------------------------------- CLI

/// `improve --feedback query` with and without `--cache`, at `--threads 1`
/// and `4`, must print the same report and write byte-identical links.
#[test]
fn cli_improve_differential_cache_on_off() {
    harness::cli_improve_matches_plain("cache", 4, 25, "--cache --cache-capacity 512");
}

/// `--cache` composes with durability: a SIGKILLed durable run resumed
/// with the cache flag still set converges to exactly the uninterrupted
/// run's links.
#[test]
fn cli_kill_and_resume_composes_with_cache() {
    harness::cli_kill_and_resume(&harness::CACHED);
}

/// Flag validation end-to-end: `--cache-capacity` without `--cache` is an
/// error; `query --cache` works and prints identical bindings.
#[test]
fn cli_query_cache_flags() {
    let dir = harness::tmpdir("query-cache");
    let triples =
        "<http://e/a> <http://e/name> \"Alice\" .\n<http://e/b> <http://e/name> \"Bob\" .\n";
    std::fs::write(dir.join("data.nt"), triples).expect("write");
    let query = |flags: &str| {
        let mut cmd = harness::alex_in(&dir, &format!("query --data data.nt {flags}"));
        cmd.arg("SELECT ?n WHERE { ?s <http://e/name> ?n } ORDER BY ?n");
        cmd
    };
    let out = query("--cache-capacity 8").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cache-capacity requires --cache"));
    let plain = harness::ok(query("")).stdout;
    assert_eq!(
        plain,
        harness::ok(query("--cache")).stdout,
        "query output differs with --cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
