//! Differential tests for catalog-based source selection: pruning must be
//! *behaviorally invisible* — byte-identical answers and completeness
//! versus broadcast dispatch across seeds, thread counts, cache settings,
//! and seeded fault plans — while demonstrably pruning sub-queries.

mod harness;

use alex::datagen::{federation_scenario, FederationConfig, FederationScenario};
use alex::fault::FaultPlan;
use alex::sparql::{
    parse, Catalog, DatasetEndpoint, FederatedEngine, Query, ResilienceConfig, SameAsLinks,
};
use alex_telemetry::counter;

/// Engine over the scenario endpoints, each behind `plan`, with the full
/// ground-truth closure installed.
fn engine(
    sc: &FederationScenario,
    plan: &FaultPlan,
    resilience: &Option<ResilienceConfig>,
    cache: Option<usize>,
) -> FederatedEngine {
    let mut engine = harness::faulty_engine(sc.endpoints().map(|ds| (ds, plan.clone())));
    engine.set_links(SameAsLinks::from_pairs(
        sc.links.iter().map(|(l, r)| (l.as_str(), r.as_str())),
    ));
    if let Some(resilience) = resilience {
        engine.set_resilience(resilience.clone());
    }
    if let Some(capacity) = cache {
        engine.enable_cache(capacity);
    }
    engine
}

/// The differential gate: for every (seed, threads, cache, fault plan)
/// combination, a catalog-pruned engine must produce *exactly* the
/// broadcast engine's results — answers, order, provenance, and
/// completeness — while the pruned-probe counter proves endpoints were
/// actually skipped. The catalog is probed once over clean endpoints.
#[test]
fn pruned_and_broadcast_answers_are_byte_identical() {
    let _serial = harness::serial();
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
        let mut clean = FederatedEngine::new();
        for ds in sc.endpoints() {
            clean.add_endpoint(Box::new(DatasetEndpoint::new(ds.clone())));
        }
        let catalog: Catalog = clean.build_catalog().expect("in-process probe succeeds");
        for (name, plan, resilience) in &harness::scenarios() {
            for threads in [1usize, 4] {
                alex::parallel::set_threads(threads);
                for cache in [None, Some(64)] {
                    let label =
                        format!("[seed {seed} / {name} / threads {threads} / cache {cache:?}]");
                    let broadcast = engine(&sc, plan, resilience, cache);
                    let mut pruned = engine(&sc, plan, resilience, cache);
                    pruned.set_catalog(Some(catalog.clone()));
                    let before = counter!("federation_pruned_probes_total").get();
                    for q in &queries {
                        let want = broadcast.execute_full(q).expect("broadcast evaluates");
                        let got = pruned.execute_full(q).expect("pruned evaluates");
                        assert_eq!(got, want, "{label} diverged");
                        assert!(
                            want.is_complete(),
                            "{label} retry-masked runs must stay complete"
                        );
                    }
                    let pruned_probes = counter!("federation_pruned_probes_total").get() - before;
                    assert!(
                        pruned_probes > 0,
                        "{label} the catalog never pruned anything"
                    );
                }
            }
        }
    }
    alex::parallel::set_threads(0);
}

// ---------------------------------------------------------------- CLI

/// End-to-end through the binary: `query --catalog probe` must print the
/// same rows as broadcast, and any other `--catalog` value must be
/// rejected before the query runs.
#[test]
fn cli_query_catalog_flag() {
    let dir = harness::tmpdir("query-catalog");
    let sameas = "<http://www.w3.org/2002/07/owl#sameAs>";
    for (file, lines) in [
        (
            "hub.nt",
            [
                "<http://hub/e1> <http://hub/key> \"K1\"",
                "<http://hub/e2> <http://hub/key> \"K2\"",
            ],
        ),
        (
            "shard.nt",
            [
                "<http://shard/e1> <http://shard/detail> \"D1\"",
                "<http://shard/e2> <http://shard/detail> \"D2\"",
            ],
        ),
        (
            "links.nt",
            [
                &format!("<http://hub/e1> {sameas} <http://shard/e1>"),
                &format!("<http://hub/e2> {sameas} <http://shard/e2>"),
            ],
        ),
        ("catalog.txt", ["", ""]),
    ] {
        std::fs::write(dir.join(file), lines.map(|l| format!("{l} .\n")).concat()).expect("write");
    }
    let query = |flags: &str| {
        let mut cmd = harness::alex_in(&dir, &format!("query --data hub.nt {flags}"));
        cmd.arg("SELECT ?v WHERE { ?e <http://hub/key> \"K1\" . ?e <http://shard/detail> ?v }");
        cmd
    };
    let run = |flags: &str| {
        harness::ok(query(&format!("--data shard.nt --links links.nt {flags}"))).stdout
    };
    let reference = run("");
    assert!(
        String::from_utf8_lossy(&reference).contains("\"D1\""),
        "sanity"
    );
    assert_eq!(reference, run("--catalog probe"));

    // Anything but `probe` is a usage error naming the flag and the one
    // value it accepts — a path is not read as a catalog.
    for bad in ["catalog.txt", "prob"] {
        let out = query(&format!("--catalog {bad}")).output().expect("spawn");
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
    harness::cli_improve_matches_plain("catalog", 3, 20, "--catalog probe");
}
