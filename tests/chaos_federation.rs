//! Chaos test: the full improve loop over a *faulty* federation, and the
//! content-keyed draws that make a federation's faults reproducible.
//!
//! Both endpoints inject seeded faults (30% transient failures, plus a
//! deterministic outage window on the right source that trips its circuit
//! breaker). The loop must complete every episode without panicking,
//! partial answers must carry correct completeness provenance, learning
//! must still beat the no-feedback baseline, and the resilience telemetry
//! (`federation_retries_total`, `federation_circuit_open_total`) must be
//! nonzero.

mod harness;

use alex::core::AlexConfig;
use alex::datagen::Domain;
use alex::fault::FaultPlan;
use alex::rdf::Dataset;
use alex::sparql::{Completeness, DatasetEndpoint, Deadline, Endpoint, FaultyEndpoint, Value};

fn counter(name: &str) -> u64 {
    alex::telemetry::global().metrics().counter(name).get()
}

fn build_pair() -> alex::datagen::GeneratedPair {
    harness::synthetic_pair(77, [60, 60, 30], vec![Domain::Place, Domain::Drug])
}

#[test]
fn improve_loop_survives_chaos_and_still_learns() {
    let pair = build_pair();
    // One plan, 30% transients on both sides; the right side also has a
    // hard outage window, whose consecutive failures open its breaker
    // however the transient draws land.
    let plan = FaultPlan::parse("seed=71,transient=0.3").expect("plan");
    let outage = FaultPlan {
        outage: Some((120, 200)),
        ..plan.clone()
    };
    let mut engine = harness::faulty_engine([(&pair.left, plan), (&pair.right, outage)]);
    engine.set_resilience(harness::resilience(3, 5));
    let retries = counter("federation_retries_total");
    let opens = counter("federation_circuit_open_total");
    let cfg = AlexConfig {
        episode_size: 40,
        max_episodes: 12,
        ..AlexConfig::default()
    };
    let (report, _, _) = harness::query_loop(&pair, engine, 9, 50, cfg);

    // The loop completed (no panic) and learning still beat the
    // no-feedback baseline, i.e. the initial quality.
    let (before, after) = (report.initial_quality, report.final_quality());
    assert!(
        after.f_measure >= before.f_measure,
        "chaos made learning worse: {before:?} -> {after:?}"
    );
    assert!(
        after.recall > before.recall,
        "recall must still improve: {before:?} -> {after:?}"
    );
    assert!(
        counter("federation_retries_total") > retries,
        "30% transients must force retries"
    );
    assert!(
        counter("federation_circuit_open_total") > opens,
        "the outage must open a breaker"
    );
}

/// An engine over the pair with the left (`dead_left`) or right side hard
/// down from call zero, and no retries, so probes fail immediately.
fn one_side_down(
    pair: &alex::datagen::GeneratedPair,
    dead_left: bool,
    fail_fast: bool,
) -> alex::sparql::FederatedEngine {
    let down = FaultPlan {
        outage: Some((0, u64::MAX)),
        ..FaultPlan::default()
    };
    let plans = if dead_left {
        [down, FaultPlan::default()]
    } else {
        [FaultPlan::default(), down]
    };
    let mut engine = harness::faulty_engine([&pair.left, &pair.right].into_iter().zip(plans));
    let mut cfg = harness::resilience(0, 5);
    cfg.fail_fast = fail_fast;
    engine.set_resilience(cfg);
    engine
}

#[test]
fn partial_answers_carry_skipped_source_provenance() {
    let pair = build_pair();
    let engine = one_side_down(&pair, false, false);
    let queries = harness::queries(&pair, 50);
    assert!(!queries.is_empty(), "workload must not be empty");
    let dead = ["R".to_string()];
    for query in &queries {
        let result = engine.execute_full(query).expect("degrades, not errors");
        match &result.completeness {
            Completeness::Partial { skipped_sources } => assert_eq!(skipped_sources, &dead),
            Completeness::Complete => panic!("every query touches the dead source"),
        }
        for answer in &result.answers {
            assert_eq!(
                answer.completeness.skipped(),
                &dead,
                "per-answer provenance"
            );
        }
    }
}

#[test]
fn fail_fast_surfaces_endpoint_errors_instead_of_degrading() {
    let pair = build_pair();
    let engine = one_side_down(&pair, true, true);
    let queries = harness::queries(&pair, 50);
    assert!(
        engine.execute_full(&queries[0]).is_err(),
        "fail-fast must turn a dead source into a query error"
    );
}

/// Two endpoints with the given names behind clones of one spec, and
/// probes for 64 distinct subjects.
fn twins(spec: &str, names: [&str; 2]) -> ([FaultyEndpoint<DatasetEndpoint>; 2], Vec<Value>) {
    let endpoints = names.map(|name| {
        let mut ds = Dataset::new(name);
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        FaultyEndpoint::new(
            DatasetEndpoint::new(ds),
            FaultPlan::parse(spec).expect("plan"),
        )
    });
    (
        endpoints,
        (0..64)
            .map(|i| Value::iri(format!("http://e/{i}")))
            .collect(),
    )
}

fn fails(ep: &FaultyEndpoint<DatasetEndpoint>, subject: &Value) -> bool {
    ep.matching(Some(subject), None, None, &Deadline::none())
        .is_err()
}

/// One CLI plan clones onto every endpoint: the endpoints must still draw
/// different fates, or every source of a federation fails in lockstep.
#[test]
fn endpoints_under_one_plan_fail_independently() {
    let ([left, right], subjects) = twins("seed=7,transient=0.5", ["L", "R"]);
    let fates = |ep| subjects.iter().map(|s| fails(ep, s)).collect::<Vec<_>>();
    let (l, r) = (fates(&left), fates(&right));
    assert!(l.contains(&true) && l.contains(&false), "{l:?}");
    assert_ne!(l, r, "two endpoints replayed one fault schedule");
}

/// A probe's fate on its n-th send must not depend on what else the
/// endpoint was sent before it: a cache that saves unrelated sends, or a
/// reordered plan, must move no fault onto it.
#[test]
fn a_probes_fate_ignores_unrelated_sends() {
    let ([alone, busy], subjects) = twins("seed=7,transient=0.5", ["T", "T"]);
    let target = Value::iri("http://e/target");
    let quiet: Vec<bool> = (0..8).map(|_| fails(&alone, &target)).collect();
    let noisy: Vec<bool> = (0..8)
        .map(|n| {
            for s in &subjects[..n * 3] {
                fails(&busy, s);
            }
            fails(&busy, &target)
        })
        .collect();
    assert!(quiet.contains(&true) && quiet.contains(&false), "{quiet:?}");
    assert_eq!(quiet, noisy, "unrelated sends moved the target's faults");
}
