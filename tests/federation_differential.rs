//! Differential tests for catalog-based source selection: pruning must be
//! *behaviorally invisible* — byte-identical answers and completeness
//! versus broadcast dispatch across seeds, thread counts, cache settings,
//! and seeded fault profiles — while demonstrably pruning sub-queries.

use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

use alex::datagen::{federation_scenario, FederationConfig, FederationScenario};
use alex::sparql::{
    parse, BreakerConfig, Catalog, DatasetEndpoint, FaultProfile, FaultyEndpoint, FederatedEngine,
    Query, ResilienceConfig, RetryPolicy, SameAsLinks,
};
use alex_telemetry::counter;

/// The worker-thread count and the metrics registry are process globals,
/// so differential scenarios must not interleave.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A fault scenario pruning must be invisible under. Transients are
/// *retry-masked*: enough retries that every logical call eventually
/// succeeds, and a breaker threshold high enough that call-count changes
/// from pruning cannot shift a breaker transition.
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

/// Engine over the scenario endpoints, each wrapped in a seeded
/// `FaultyEndpoint`, with the full ground-truth closure installed.
fn engine(sc: &FederationScenario, scenario: &Scenario, cache: Option<usize>) -> FederatedEngine {
    let mut engine = FederatedEngine::new();
    for (i, ds) in sc.endpoints().enumerate() {
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(ds.clone()),
            FaultProfile {
                seed: scenario.profile.seed.wrapping_add(i as u64 + 1),
                ..scenario.profile.clone()
            },
        )));
    }
    engine.set_links(SameAsLinks::from_pairs(
        sc.links.iter().map(|(l, r)| (l.as_str(), r.as_str())),
    ));
    if let Some(resilience) = &scenario.resilience {
        engine.set_resilience(resilience.clone());
    }
    if let Some(capacity) = cache {
        engine.enable_cache(capacity);
    }
    engine
}

/// The catalog for a scenario, probed over clean (fault-free) endpoints:
/// coverage knowledge is built once and installed on whatever engine runs
/// the traffic.
fn probed_catalog(sc: &FederationScenario) -> Catalog {
    let mut clean = FederatedEngine::new();
    for ds in sc.endpoints() {
        clean.add_endpoint(Box::new(DatasetEndpoint::new(ds.clone())));
    }
    clean.build_catalog().expect("in-process probe succeeds")
}

/// Satellite 1, the differential gate: for every (seed, threads, cache,
/// fault profile) combination, a catalog-pruned engine must produce
/// *exactly* the broadcast engine's results — answers, order, provenance,
/// and completeness — while the pruned-probe counter proves endpoints were
/// actually skipped.
#[test]
fn pruned_and_broadcast_answers_are_byte_identical() {
    let _guard = guard();
    for seed in [11u64, 29] {
        let sc = federation_scenario(&FederationConfig {
            entities: 18,
            shards: 3,
            seed,
        });
        let queries: Vec<Query> = sc
            .queries
            .iter()
            .map(|q| parse(&q.sparql).expect("generated SPARQL parses"))
            .collect();
        let catalog = probed_catalog(&sc);
        for scenario in scenarios() {
            for threads in [1usize, 4] {
                alex::parallel::set_threads(threads);
                for cache in [None, Some(64)] {
                    let broadcast = engine(&sc, &scenario, cache);
                    let mut pruned = engine(&sc, &scenario, cache);
                    pruned.set_catalog(Some(catalog.clone()));

                    let before = counter!("federation_pruned_probes_total").get();
                    for q in &queries {
                        let want = broadcast.execute_full(q).expect("broadcast evaluates");
                        let got = pruned.execute_full(q).expect("pruned evaluates");
                        assert_eq!(
                            got, want,
                            "[seed {seed} / {} / threads {threads} / cache {cache:?}] diverged",
                            scenario.name
                        );
                        assert!(want.is_complete(), "retry-masked runs must stay complete");
                    }
                    assert!(
                        counter!("federation_pruned_probes_total").get() > before,
                        "[seed {seed} / {}] the catalog never pruned anything",
                        scenario.name
                    );
                }
            }
        }
    }
    alex::parallel::set_threads(0);
}

// ---------------------------------------------------------------- CLI

fn alex_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

fn workdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-feddiff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// End-to-end through the binary: `query --catalog probe` must print the
/// same rows as broadcast, and any other `--catalog` value must be
/// rejected before the query runs.
#[test]
fn cli_query_catalog_flag() {
    let dir = workdir("query");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    std::fs::write(
        p("hub.nt"),
        "<http://hub/e1> <http://hub/key> \"K1\" .\n\
         <http://hub/e2> <http://hub/key> \"K2\" .\n",
    )
    .expect("write hub");
    std::fs::write(
        p("shard.nt"),
        "<http://shard/e1> <http://shard/detail> \"D1\" .\n\
         <http://shard/e2> <http://shard/detail> \"D2\" .\n",
    )
    .expect("write shard");
    std::fs::write(
        p("links.nt"),
        "<http://hub/e1> <http://www.w3.org/2002/07/owl#sameAs> <http://shard/e1> .\n\
         <http://hub/e2> <http://www.w3.org/2002/07/owl#sameAs> <http://shard/e2> .\n",
    )
    .expect("write links");
    let q = "SELECT ?v WHERE { ?e <http://hub/key> \"K1\" . ?e <http://shard/detail> ?v }";

    let run = |extra: &[&str]| {
        let mut args: Vec<String> = [
            "query",
            "--data",
            &*p("hub.nt"),
            "--data",
            &*p("shard.nt"),
            "--links",
            &*p("links.nt"),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        args.push(q.to_string());
        let out = alex_bin().args(&args).output().expect("spawn query");
        assert!(
            out.status.success(),
            "query {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let reference = run(&[]);
    assert!(reference.contains("\"D1\""), "sanity: {reference}");
    assert_eq!(reference, run(&["--catalog", "probe"]));

    // Anything but `probe` is a usage error naming the flag and the one
    // value it accepts — a path is not read as a catalog.
    std::fs::write(p("catalog.txt"), "").expect("write catalog");
    for bad in [p("catalog.txt"), "prob".to_string()] {
        let out = alex_bin()
            .args(["query", "--data", &p("hub.nt"), "--catalog", &bad, q])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--catalog {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--catalog") && stderr.contains("probe"),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `improve --feedback query` with `--catalog probe` must reproduce the
/// plain run's report and final links exactly, at 1 and 4 threads —
/// catalog pruning must not move the learning trajectory.
#[test]
fn cli_improve_differential_catalog() {
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

    let improve = |threads: &str, catalog: bool, out_file: &str| {
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
            "3".into(),
            "--episode-size".into(),
            "30".into(),
            "--queries".into(),
            "20".into(),
            "--threads".into(),
            threads.into(),
            "--out".into(),
            p(out_file),
        ];
        if catalog {
            args.extend(["--catalog".into(), "probe".into()]);
        }
        let out = alex_bin().args(&args).output().expect("spawn improve");
        assert!(
            out.status.success(),
            "threads {threads} catalog {catalog}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.trim_start().starts_with("ep ") || l.trim_start().starts_with("initial"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let stdout_ref = improve("1", false, "ref.nt");
    for threads in ["1", "4"] {
        let stdout = improve(threads, true, &format!("smart-{threads}.nt"));
        assert_eq!(
            stdout_ref, stdout,
            "smarter-federation report diverged at --threads {threads}"
        );
        assert_eq!(
            std::fs::read(p("ref.nt")).expect("reference links"),
            std::fs::read(p(&format!("smart-{threads}.nt"))).expect("smart links"),
            "smarter-federation links diverged at --threads {threads}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
