//! Differential tests for the answer cache: with `--cache` on, the system
//! must be *behaviorally invisible* — byte-identical final links, reports,
//! and telemetry-visible feedback counts at any thread count and under
//! seeded fault profiles — while the cache itself demonstrably serves hits
//! and link churn keeps changing which probes the queries send.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use alex::core::{
    driver, Agent, AlexConfig, FeedbackBridge, LinkSpace, QueryFeedback, SpaceConfig,
};
use alex::datagen::{
    federated_queries, generate_pair, sample_initial_links, Domain, Flavor, InitialLinksSpec,
    PairConfig, SideConfig,
};
use alex::rdf::{Dataset, Term};
use alex::sparql::{
    parse, BreakerConfig, DatasetEndpoint, FaultProfile, FaultyEndpoint, FederatedEngine, Link,
    Query, ResilienceConfig, RetryPolicy, SameAsLinks,
};
use alex::telemetry::{Event, MemorySink};
use rand::prelude::*;

/// The worker-thread count and the telemetry event sink are process
/// globals, so differential scenarios must not interleave.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn build_pair() -> alex::datagen::GeneratedPair {
    generate_pair(&PairConfig {
        seed: 55,
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
        shared: 40,
        left_only: 30,
        right_only: 20,
        confusable_frac: 0.25,
        domains: vec![Domain::Person, Domain::Organization],
        left_extra_domains: vec![Domain::Place],
    })
}

/// A fault scenario the cache must be invisible under. Transients are
/// *retry-masked*: enough retries that every logical call eventually
/// succeeds, and a breaker threshold high enough that call-count changes
/// from caching cannot shift a breaker transition.
struct Scenario {
    name: &'static str,
    profile: FaultProfile,
    resilience: Option<ResilienceConfig>,
}

fn scenarios() -> Vec<Scenario> {
    let masked = ResilienceConfig {
        retry: RetryPolicy {
            max_retries: 5,
            initial_backoff: std::time::Duration::from_micros(20),
            max_backoff: std::time::Duration::from_micros(200),
            ..RetryPolicy::default()
        },
        breaker: BreakerConfig {
            failure_threshold: 1000,
            ..BreakerConfig::default()
        },
        seed: 0xD1FF,
        ..ResilienceConfig::default()
    };
    vec![
        Scenario {
            name: "fault-free",
            profile: FaultProfile::none(),
            resilience: None,
        },
        Scenario {
            name: "masked-transients",
            profile: FaultProfile {
                seed: 13,
                transient_rate: 0.1,
                ..FaultProfile::none()
            },
            resilience: Some(masked),
        },
    ]
}

struct RunOutput {
    /// Final candidate links as N-Triples — the byte-identity target.
    final_links: String,
    /// Per-episode quality report, formatted as the CLI prints it.
    report: Vec<String>,
    /// Telemetry-visible feedback: one `feedback_applied` event per judged
    /// answer batch.
    feedback_events: usize,
    /// (hits, misses) summed over `federated_query` events; zero when the
    /// cache was off.
    event_hits: u64,
    /// Per `federated_query` event: the workload query it ran (queries
    /// run round-robin), its sameAs expansions and its answer count.
    queries: Vec<(usize, u64, u64)>,
    /// Engine-level cache statistics, `None` when the cache was off.
    cache: Option<alex::cache::CacheStats>,
}

/// One full improve-with-query-feedback run, in-process, with the cache
/// optionally enabled. Everything else (pair, workload, seeds) is fixed.
fn run_improve(
    pair: &alex::datagen::GeneratedPair,
    scenario: &Scenario,
    threads: usize,
    cache_capacity: Option<usize>,
) -> RunOutput {
    alex::parallel::set_threads(threads);
    let sink = Arc::new(MemorySink::new());
    alex::telemetry::global().events().attach(sink.clone());

    let space = LinkSpace::build(&pair.left, &pair.right, &SpaceConfig::default());
    let bridge = FeedbackBridge::new(
        &pair.left,
        space.left_index(),
        &pair.right,
        space.right_index(),
    );
    let to_id = |l: Term, r: Term| Some((space.left_index().id(l)?, space.right_index().id(r)?));
    let truth_ids: HashSet<(u32, u32)> = pair
        .ground_truth
        .iter()
        .filter_map(|&(l, r)| to_id(l, r))
        .collect();
    let initial = sample_initial_links(
        pair,
        InitialLinksSpec {
            precision: 0.85,
            recall: 0.30,
            seed: 5,
        },
    );
    let initial_ids: Vec<(u32, u32)> = initial.iter().filter_map(|&(l, r)| to_id(l, r)).collect();

    let mut engine = FederatedEngine::new();
    engine.add_endpoint(Box::new(FaultyEndpoint::new(
        DatasetEndpoint::new(pair.left.clone()),
        FaultProfile {
            seed: scenario.profile.seed.wrapping_add(1),
            ..scenario.profile.clone()
        },
    )));
    engine.add_endpoint(Box::new(FaultyEndpoint::new(
        DatasetEndpoint::new(pair.right.clone()),
        FaultProfile {
            seed: scenario.profile.seed.wrapping_add(2),
            ..scenario.profile.clone()
        },
    )));
    if let Some(resilience) = &scenario.resilience {
        engine.set_resilience(resilience.clone());
    }
    if let Some(capacity) = cache_capacity {
        engine.enable_cache(capacity);
    }

    let queries: Vec<Query> = federated_queries(pair, 40, 3)
        .iter()
        .map(|q| parse(&q.sparql).expect("generated SPARQL parses"))
        .collect();
    let mut agent = Agent::new(
        space,
        &initial_ids,
        AlexConfig {
            episode_size: 30,
            max_episodes: 8,
            ..AlexConfig::default()
        },
    );
    let mut source = QueryFeedback::new(
        engine,
        pair.left.clone(),
        pair.right.clone(),
        queries,
        bridge,
        truth_ids.clone(),
    );
    let workload = source.workload_len();
    let report = driver::run(&mut agent, &mut source, &truth_ids);

    alex::telemetry::global().events().detach();
    let events = sink.events();
    let feedback_events = events
        .iter()
        .filter(|e| matches!(e, Event::FeedbackApplied { .. }))
        .count();
    let event_hits = events
        .iter()
        .filter_map(|e| match e {
            Event::FederatedQuery { cache_hits, .. } => Some(*cache_hits),
            _ => None,
        })
        .sum();
    let queries = events
        .iter()
        .filter_map(|e| match e {
            Event::FederatedQuery {
                sameas_expansions,
                answers,
                ..
            } => Some((*sameas_expansions, *answers)),
            _ => None,
        })
        .enumerate()
        .map(|(i, (expansions, answers))| (i % workload, expansions, answers))
        .collect();

    let mut lines = vec![format!(
        "initial P {:.6} R {:.6} F {:.6}",
        report.initial_quality.precision,
        report.initial_quality.recall,
        report.initial_quality.f_measure
    )];
    for e in &report.episodes {
        lines.push(format!(
            "ep {} P {:.6} R {:.6} F {:.6}",
            e.episode, e.quality.precision, e.quality.recall, e.quality.f_measure
        ));
    }
    lines.push(format!("stop {:?}", report.stop));

    let final_links = SameAsLinks::from_pairs(agent.candidates().iter().map(|id| {
        let (lt, rt) = agent.space().pair_terms(id);
        (
            pair.left.resolve(lt).to_string(),
            pair.right.resolve(rt).to_string(),
        )
    }))
    .to_ntriples();

    RunOutput {
        final_links,
        report: lines,
        feedback_events,
        event_hits,
        queries,
        cache: source.engine().cache_stats(),
    }
}

/// The tentpole acceptance check: improve end-to-end, cached vs uncached,
/// across `--threads 1/4` and seeded fault profiles — final links, reports,
/// and feedback counts must be byte-identical, while the cached runs must
/// actually be serving hits (otherwise this test proves nothing).
#[test]
fn improve_is_byte_identical_with_cache_on_or_off() {
    let _guard = guard();
    let pair = build_pair();
    for scenario in scenarios() {
        for threads in [1usize, 4] {
            let uncached = run_improve(&pair, &scenario, threads, None);
            let cached = run_improve(&pair, &scenario, threads, Some(4096));

            assert_eq!(
                uncached.final_links, cached.final_links,
                "[{} / threads {threads}] final links diverged",
                scenario.name
            );
            assert_eq!(
                uncached.report, cached.report,
                "[{} / threads {threads}] episode reports diverged",
                scenario.name
            );
            assert_eq!(
                uncached.feedback_events, cached.feedback_events,
                "[{} / threads {threads}] telemetry feedback counts diverged",
                scenario.name
            );

            assert!(
                uncached.cache.is_none(),
                "uncached run must report no cache"
            );
            assert_eq!(uncached.event_hits, 0, "uncached run must emit zero hits");
            let stats = cached.cache.expect("cached run must report cache stats");
            assert!(
                stats.hits > 0,
                "[{} / threads {threads}] cached run never hit: {stats:?}",
                scenario.name
            );
            assert_eq!(
                cached.event_hits, stats.hits,
                "[{} / threads {threads}] federated_query events disagree with engine stats",
                scenario.name
            );
            assert_eq!(
                uncached.queries, cached.queries,
                "[{} / threads {threads}] per-query answers diverged",
                scenario.name
            );
            assert!(
                expansions_changed(cached.queries.iter().map(|&(q, e, _)| (q, e))),
                "[{} / threads {threads}] link churn never changed a job list",
                scenario.name
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

/// Also byte-identical when the run is cut mid-way: 1 thread cached vs
/// 4 threads cached produce the same artifacts (the cache adds no
/// thread-count sensitivity of its own).
#[test]
fn cached_runs_are_thread_invariant() {
    let _guard = guard();
    let pair = build_pair();
    let scenario = &scenarios()[0];
    let one = run_improve(&pair, scenario, 1, Some(64));
    let four = run_improve(&pair, scenario, 4, Some(64));
    assert_eq!(one.final_links, four.final_links);
    assert_eq!(one.report, four.report);
    alex::parallel::set_threads(0);
}

// ------------------------------------------------------- shadow oracle

/// Two datasets bridged by sameAs links, small enough that an uncached
/// engine can act as the from-scratch oracle for every probe.
fn oracle_world(n: usize) -> (Dataset, Dataset) {
    let mut left = Dataset::new("L");
    let mut right = Dataset::new("R");
    for i in 0..n {
        left.add_str(&format!("http://l/e{i}"), "http://l/flag", "yes");
        left.add_str(
            &format!("http://l/e{i}"),
            "http://l/label",
            &format!("entity {i}"),
        );
        right.add_iri(
            &format!("http://r/doc{i}"),
            "http://r/about",
            &format!("http://r/e{i}"),
        );
        right.add_str(
            &format!("http://r/doc{i}"),
            "http://r/title",
            &format!("doc {i}"),
        );
    }
    (left, right)
}

fn oracle_engine(left: &Dataset, right: &Dataset, cache: Option<usize>) -> FederatedEngine {
    let mut engine = FederatedEngine::new();
    engine.add_endpoint(Box::new(DatasetEndpoint::new(left.clone())));
    engine.add_endpoint(Box::new(DatasetEndpoint::new(right.clone())));
    if let Some(capacity) = cache {
        engine.enable_cache(capacity);
    }
    engine
}

/// Staleness property: after *any* sequence of link mutations (add /
/// remove / blacklist-style remove / wholesale rollback), the cached
/// engine answers every query exactly like a shadow engine that recomputes
/// from scratch. An entry whose answer depended on links would surface
/// here as a divergent answer. Capacity 8 keeps the cache under eviction
/// pressure the whole time.
#[test]
fn random_link_mutations_never_serve_stale_answers() {
    let _guard = guard();
    alex::parallel::set_threads(1);
    const N: usize = 10;
    let (left, right) = oracle_world(N);
    let mut cached = oracle_engine(&left, &right, Some(8));
    let mut shadow = oracle_engine(&left, &right, None);

    // Probe pool: one join query crossing every link, plus per-entity
    // queries on a bound IRI, whose probes change with that entity's
    // links.
    let mut probes: Vec<Query> =
        vec![
            parse("SELECT ?doc WHERE { ?x <http://l/flag> \"yes\" . ?doc <http://r/about> ?x }")
                .expect("ok"),
        ];
    for i in 0..N {
        probes.push(
            parse(&format!(
                "SELECT ?doc WHERE {{ ?doc <http://r/about> <http://l/e{i}> }}"
            ))
            .expect("ok"),
        );
    }

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

fn alex_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-cachediff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// End-to-end through the binary: `improve --feedback query` with and
/// without `--cache`, at `--threads 1` and `--threads 4`, must print the
/// same report and write byte-identical links.
#[test]
fn cli_improve_differential_cache_on_off() {
    let dir = workdir("improve");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    let out = alex_bin()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let improve = |threads: &str, cache: bool, out_file: &str| {
        let mut args = vec![
            "improve".to_string(),
            p("left.nt"),
            p("right.nt"),
            "--links".into(),
            p("truth.nt"),
            "--truth".into(),
            p("truth.nt"),
            "--feedback".into(),
            "query".into(),
            "--episodes".into(),
            "4".into(),
            "--episode-size".into(),
            "30".into(),
            "--queries".into(),
            "25".into(),
            "--threads".into(),
            threads.into(),
            "--out".into(),
            p(out_file),
        ];
        if cache {
            args.extend(["--cache".into(), "--cache-capacity".into(), "512".into()]);
        }
        let out = alex_bin().args(&args).output().expect("spawn improve");
        assert!(
            out.status.success(),
            "threads {threads} cache {cache}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The "stopped: ..." line carries a wall-clock duration; compare
        // only the duration-free quality lines.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.trim_start().starts_with("ep ") || l.trim_start().starts_with("initial"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let stdout_ref = improve("1", false, "ref.nt");
    for threads in ["1", "4"] {
        let stdout = improve(threads, true, &format!("cached-{threads}.nt"));
        assert_eq!(
            stdout_ref, stdout,
            "cached report diverged at --threads {threads}"
        );
        assert_eq!(
            std::fs::read(p("ref.nt")).expect("reference links"),
            std::fs::read(p(&format!("cached-{threads}.nt"))).expect("cached links"),
            "cached links diverged at --threads {threads}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--cache` composes with durability: a SIGKILLed durable run resumed
/// *with the cache flag still set* converges to exactly the links of an
/// uninterrupted cached run (and of an uncached one — the flag is inert
/// for oracle feedback but must stay accepted so resume invocations can
/// reuse their original command line).
#[test]
fn cli_kill_and_resume_composes_with_cache() {
    let dir = workdir("resume");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    let out = alex_bin()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let improve = |extra: &[&str]| {
        let mut args = vec![
            "improve".to_string(),
            p("left.nt"),
            p("right.nt"),
            "--links".into(),
            p("truth.nt"),
            "--truth".into(),
            p("truth.nt"),
            "--episodes".into(),
            "6".into(),
            "--episode-size".into(),
            "30".into(),
            "--error-rate".into(),
            "0.1".into(),
            "--cache".into(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        alex_bin().args(&args).output().expect("spawn improve")
    };

    // Uninterrupted cached reference.
    let out = improve(&["--state-dir", &p("state-ref"), "--out", &p("ref.nt")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // SIGKILL after the 2nd episode commit, then resume — still --cache.
    let out = improve(&["--state-dir", &p("state-cut"), "--kill-after", "2"]);
    assert!(
        !out.status.success(),
        "kill-after run must not exit cleanly"
    );
    let out = improve(&[
        "--state-dir",
        &p("state-cut"),
        "--resume",
        "--out",
        &p("resumed.nt"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    assert_eq!(
        std::fs::read(p("ref.nt")).expect("reference links"),
        std::fs::read(p("resumed.nt")).expect("resumed links"),
        "kill-and-resume with --cache must stay byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flag validation end-to-end: `--cache-capacity` without `--cache` is an
/// error; `query --cache` works and prints identical bindings.
#[test]
fn cli_query_cache_flags() {
    let dir = workdir("query");
    let data = dir.join("data.nt");
    std::fs::write(
        &data,
        "<http://e/a> <http://e/name> \"Alice\" .\n<http://e/b> <http://e/name> \"Bob\" .\n",
    )
    .expect("write");
    let d = data.to_string_lossy().to_string();
    let q = "SELECT ?n WHERE { ?s <http://e/name> ?n } ORDER BY ?n";

    let out = alex_bin()
        .args(["query", "--data", &d, "--cache-capacity", "8", q])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cache-capacity requires --cache"));

    let run = |extra: &[&str]| {
        let mut args = vec!["query", "--data", &d];
        args.extend(extra);
        args.push(q);
        let out = alex_bin().args(&args).output().expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    assert_eq!(
        run(&[]),
        run(&["--cache"]),
        "query output differs with --cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
