//! Differential tests for smarter federation: catalog-based source
//! selection must be *behaviorally invisible* — byte-identical answers and
//! completeness versus broadcast dispatch across seeds, thread counts,
//! cache settings, and seeded fault profiles — while demonstrably pruning
//! sub-queries. sameAs-closure rewriting must preserve the answer set and
//! its link provenance, and rewritten executions must never serve a stale
//! cached answer after the closure changes (shadow-oracle property).

use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

use alex::datagen::{federation_scenario, FederationConfig, FederationScenario};
use alex::sparql::{
    parse, BreakerConfig, Catalog, DatasetEndpoint, FaultProfile, FaultyEndpoint, FederatedEngine,
    Link, Query, ResilienceConfig, RetryPolicy, SameAsLinks,
};
use alex_telemetry::counter;
use rand::prelude::*;

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

/// The catalog for a scenario, probed over clean (fault-free) endpoints —
/// the declared-upfront deployment shape: coverage knowledge is built once
/// and installed on whatever engine runs the traffic.
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

/// A stale catalog must not prune: results stay identical because every
/// endpoint falls back to broadcast, and the pruned-probe counter stays
/// flat.
#[test]
fn stale_catalog_broadcasts_and_stays_identical() {
    let _guard = guard();
    alex::parallel::set_threads(1);
    let sc = federation_scenario(&FederationConfig {
        entities: 12,
        shards: 3,
        seed: 11,
    });
    let mut catalog = probed_catalog(&sc);
    catalog.bump_version(); // every entry predates the closure version now
    let scenario = &scenarios()[0];
    let broadcast = engine(&sc, scenario, None);
    let mut stale = engine(&sc, scenario, None);
    stale.set_catalog(Some(catalog));

    let before = counter!("federation_pruned_probes_total").get();
    for q in &sc.queries {
        let query = parse(&q.sparql).expect("parses");
        assert_eq!(
            stale.execute_full(&query).expect("evaluates"),
            broadcast.execute_full(&query).expect("evaluates")
        );
    }
    assert_eq!(
        counter!("federation_pruned_probes_total").get(),
        before,
        "a stale catalog must never prune"
    );
    alex::parallel::set_threads(0);
}

/// Constant-anchored workload: one query per link asking for the shard
/// attribute of the *hub* IRI, so the subject constant has a sameAs
/// equivalent and the rewriter actually engages.
fn constant_queries(sc: &FederationScenario) -> Vec<Query> {
    sc.links
        .iter()
        .enumerate()
        .map(|(i, (hub, _))| {
            let s = i % sc.shards.len();
            parse(&format!(
                "SELECT ?v WHERE {{ <{hub}> <http://shard{s}.example.org/detail> ?v }}"
            ))
            .expect("parses")
        })
        .collect()
}

/// sameAs rewriting preserves the answer set and its link provenance
/// (modulo order: the union enumerates branches where the plain engine
/// expands at probe time).
#[test]
fn rewritten_execution_matches_plain_modulo_order() {
    let _guard = guard();
    alex::parallel::set_threads(1);
    let sc = federation_scenario(&FederationConfig {
        entities: 12,
        shards: 3,
        seed: 11,
    });
    let scenario = &scenarios()[0];
    let engine = engine(&sc, scenario, None);
    let mut rewrites = 0;
    for q in constant_queries(&sc) {
        let rewritten = engine.rewrite(&q);
        rewrites += rewritten.rewritten_patterns();
        let plain = engine.execute_full(&q).expect("plain evaluates");
        let via_rewrite = engine
            .execute_rewritten(&rewritten)
            .expect("rewritten evaluates");
        assert_eq!(plain.completeness, via_rewrite.completeness);
        let sorted_rows = |r: &alex::sparql::FederatedResult| -> Vec<String> {
            let mut rows: Vec<String> = r
                .answers
                .iter()
                .map(|a| {
                    let mut links: Vec<String> =
                        a.links_used.iter().map(|l| format!("{l:?}")).collect();
                    links.sort();
                    format!("{:?} via {links:?}", a.bindings)
                })
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(sorted_rows(&plain), sorted_rows(&via_rewrite));
        assert!(
            !via_rewrite.answers.is_empty(),
            "constant-anchored queries must answer across the closure"
        );
    }
    assert!(rewrites > 0, "the workload must exercise the rewriter");
    alex::parallel::set_threads(0);
}

/// Satellite 4, the shadow-oracle staleness property: after *any* sequence
/// of link mutations, a cached engine executing freshly rewritten queries
/// answers exactly like a from-scratch shadow engine. A rewritten cache
/// entry surviving a closure change would surface here as divergence; a
/// rewrite from before the change must be refused outright.
#[test]
fn rewritten_queries_never_serve_stale_answers() {
    let _guard = guard();
    alex::parallel::set_threads(1);
    let sc = federation_scenario(&FederationConfig {
        entities: 10,
        shards: 2,
        seed: 3,
    });
    let build = |cache: Option<usize>| {
        let mut engine = FederatedEngine::new();
        for ds in sc.endpoints() {
            engine.add_endpoint(Box::new(DatasetEndpoint::new(ds.clone())));
        }
        engine.set_links(SameAsLinks::from_pairs(
            sc.links.iter().map(|(l, r)| (l.as_str(), r.as_str())),
        ));
        if let Some(capacity) = cache {
            engine.enable_cache(capacity);
        }
        engine
    };
    let mut cached = build(Some(8));
    let mut shadow = build(None);
    let probes = constant_queries(&sc);
    let sorted_rows = |r: &alex::sparql::FederatedResult| -> Vec<String> {
        let mut rows: Vec<String> = r
            .answers
            .iter()
            .map(|a| format!("{:?}", a.bindings))
            .collect();
        rows.sort();
        rows
    };

    let mut rng = StdRng::seed_from_u64(0x5AFE);
    let mut rollback_point: Option<SameAsLinks> = None;
    for step in 0..60 {
        match rng.random_range(0u8..10) {
            0..=4 => {
                let (hub, _) = &sc.links[rng.random_range(0..sc.links.len())];
                let (_, shard) = &sc.links[rng.random_range(0..sc.links.len())];
                let link = Link::new(hub.clone(), shard.clone());
                cached.links_mut().add(link.clone());
                shadow.links_mut().add(link);
            }
            5..=7 => {
                let existing: Vec<Link> = cached.links().iter().cloned().collect();
                if let Some(link) = existing.choose(&mut rng) {
                    cached.links_mut().remove(link);
                    shadow.links_mut().remove(link);
                }
            }
            8 => rollback_point = Some(cached.links().clone()),
            _ => {
                if let Some(snapshot) = rollback_point.take() {
                    cached.set_links(snapshot.clone());
                    shadow.set_links(snapshot);
                }
            }
        }

        for _ in 0..2 {
            let q = probes.choose(&mut rng).expect("pool not empty");
            let rewritten = cached.rewrite(q);
            let want = sorted_rows(&shadow.execute_full(q).expect("shadow evaluates"));
            // Execute the same rewrite twice: the second run must be served
            // (partly) from cache *within* this closure generation and
            // still match the from-scratch oracle.
            for _ in 0..2 {
                let got =
                    sorted_rows(&cached.execute_rewritten(&rewritten).expect("fresh rewrite"));
                assert_eq!(
                    got, want,
                    "step {step}: rewritten answers diverged from the from-scratch oracle"
                );
            }
        }
    }

    // The regression this gate exists for: a rewrite from before a
    // closure-changing mutation is refused, not silently served stale.
    let q = &probes[0];
    let old = cached.rewrite(q);
    let (hub, _) = &sc.links[0];
    cached
        .links_mut()
        .add(Link::new(hub.clone(), "http://shard0.example.org/extra"));
    let err = cached.execute_rewritten(&old).expect_err("must be stale");
    assert!(
        err.to_string().contains("stale sameAs rewrite"),
        "unexpected error: {err}"
    );

    let stats = cached.cache_stats().expect("cache enabled");
    assert!(stats.hits > 0, "the sequence must exercise hits: {stats:?}");
    assert!(
        stats.misses > 0,
        "closure changes must force misses: {stats:?}"
    );
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
/// same rows as broadcast; a declared catalog file must load and do the
/// same; `--rewrite-sameas` must keep the same row set; malformed catalog
/// input must be rejected with a parse error.
#[test]
fn cli_query_catalog_and_rewrite_flags() {
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

    // Declared catalog file: endpoint names are the --data file stems.
    let mut declared = alex::sparql::Catalog::new();
    declared.declare(
        "hub",
        vec!["http://hub/key".to_string()],
        Vec::<String>::new(),
    );
    declared.declare(
        "shard",
        vec!["http://shard/detail".to_string()],
        Vec::<String>::new(),
    );
    std::fs::write(p("catalog.txt"), declared.to_text()).expect("write catalog");
    assert_eq!(reference, run(&["--catalog", &p("catalog.txt")]));

    // Rewriting keeps the same rows (sorted: unions enumerate branches in
    // a different order than probe-time expansion).
    let sorted = |s: &str| {
        let mut lines: Vec<&str> = s.lines().collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    assert_eq!(sorted(&reference), sorted(&run(&["--rewrite-sameas"])));
    assert_eq!(
        sorted(&reference),
        sorted(&run(&["--catalog", "probe", "--rewrite-sameas"]))
    );

    // Malformed catalog input is a parse error, not silent broadcast.
    std::fs::write(p("bad.txt"), "not a catalog\n").expect("write bad");
    let out = alex_bin()
        .args([
            "query",
            "--data",
            &p("hub.nt"),
            "--catalog",
            &p("bad.txt"),
            q,
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("catalog"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `improve --feedback query` with `--catalog probe --rewrite-sameas` must
/// reproduce the plain run's report and final links exactly, at 1 and 4
/// threads — smarter federation must not move the learning trajectory.
#[test]
fn cli_improve_differential_catalog_and_rewrite() {
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

    let improve = |threads: &str, smarter: bool, out_file: &str| {
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
        if smarter {
            args.extend([
                "--catalog".into(),
                "probe".into(),
                "--rewrite-sameas".into(),
            ]);
        }
        let out = alex_bin().args(&args).output().expect("spawn improve");
        assert!(
            out.status.success(),
            "threads {threads} smarter {smarter}: {}",
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
