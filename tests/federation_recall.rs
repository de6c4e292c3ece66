//! The recall/traffic experiment: over a multi-endpoint federation whose
//! ground-truth answers *require* sameAs hops, recall must strictly
//! increase as the link closure converges, while catalog-based source
//! selection keeps the issued sub-query count strictly below broadcast at
//! every point of the curve — without losing a single answer.

use std::sync::{Mutex, MutexGuard, OnceLock};

use alex::datagen::{federation_scenario, FederationConfig, FederationScenario};
use alex::sparql::{parse, DatasetEndpoint, FederatedEngine, Query, SameAsLinks};
use alex_telemetry::counter;

/// The metrics registry is a process global; traffic measurements from
/// concurrent tests must not interleave.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn scenario() -> FederationScenario {
    federation_scenario(&FederationConfig {
        entities: 20,
        shards: 4,
        seed: 5,
    })
}

/// Engine over the scenario endpoints with the first `n` closure links,
/// optionally consulting a probed coverage catalog.
fn engine(sc: &FederationScenario, n: usize, catalog: bool) -> FederatedEngine {
    let mut engine = FederatedEngine::new();
    for ds in sc.endpoints() {
        engine.add_endpoint(Box::new(DatasetEndpoint::new(ds.clone())));
    }
    engine.set_links(SameAsLinks::from_pairs(
        sc.links[..n].iter().map(|(l, r)| (l.as_str(), r.as_str())),
    ));
    if catalog {
        let built = engine.build_catalog().expect("in-process probe succeeds");
        engine.set_catalog(Some(built));
    }
    engine
}

/// Workload recall: the fraction of queries answered with their expected
/// ground-truth value (a wrong answer does not count).
fn recall(sc: &FederationScenario, engine: &FederatedEngine, queries: &[Query]) -> f64 {
    let hit = sc
        .queries
        .iter()
        .zip(queries)
        .filter(|(q, parsed)| {
            engine
                .execute_full(parsed)
                .expect("evaluates")
                .answers
                .iter()
                .any(|a| {
                    a.bindings.get("v").map(ToString::to_string)
                        == Some(format!("\"{}\"", q.expected))
                })
        })
        .count();
    hit as f64 / sc.queries.len() as f64
}

/// Sub-queries actually dispatched while `f` runs (logical probes minus
/// catalog-pruned ones), from the global counters.
fn issued_during(f: impl FnOnce()) -> u64 {
    let probes0 = counter!("alex_source_selection_probes_total").get();
    let pruned0 = counter!("federation_pruned_probes_total").get();
    f();
    (counter!("alex_source_selection_probes_total").get() - probes0)
        - (counter!("federation_pruned_probes_total").get() - pruned0)
}

/// The experiment: recall strictly increases with the closure, pruned
/// traffic stays strictly below broadcast at every point, the two modes
/// agree on recall exactly, and full-closure pruning cuts sub-queries by
/// at least 30% against broadcast.
#[test]
fn recall_rises_while_pruned_traffic_stays_below_broadcast() {
    let _guard = guard();
    alex::parallel::set_threads(1);
    let sc = scenario();
    let queries: Vec<Query> = sc
        .queries
        .iter()
        .map(|q| parse(&q.sparql).expect("generated SPARQL parses"))
        .collect();
    let full = sc.links.len();

    let mut last_recall = -1.0;
    let mut full_closure_reduction = 0.0;
    for pct in [0usize, 25, 50, 75, 100] {
        let n = full * pct / 100;
        let broadcast = engine(&sc, n, false);
        let pruned = engine(&sc, n, true);

        let mut r_broadcast = 0.0;
        let issued_broadcast = issued_during(|| r_broadcast = recall(&sc, &broadcast, &queries));
        let mut r_pruned = 0.0;
        let issued_pruned = issued_during(|| r_pruned = recall(&sc, &pruned, &queries));

        assert_eq!(
            r_pruned, r_broadcast,
            "{pct}%: pruning must not change recall"
        );
        assert!(
            r_pruned > last_recall,
            "{pct}%: recall must strictly increase as links converge \
             ({last_recall} -> {r_pruned})"
        );
        last_recall = r_pruned;
        assert!(
            issued_pruned < issued_broadcast,
            "{pct}%: pruned traffic ({issued_pruned}) must stay below \
             broadcast ({issued_broadcast})"
        );
        if pct == 100 {
            assert_eq!(r_pruned, 1.0, "full closure must answer everything");
            full_closure_reduction = 1.0 - issued_pruned as f64 / issued_broadcast as f64;
        }
    }
    assert!(
        full_closure_reduction >= 0.30,
        "full-closure sub-query reduction {full_closure_reduction:.2} \
         must clear the 30% floor"
    );
    alex::parallel::set_threads(0);
}
