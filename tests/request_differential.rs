//! Differential test for batched endpoint requests: sending each
//! endpoint's job list as one `matching_batch` request must be invisible
//! in every output. An engine over `FaultyEndpoint`s (one request per
//! batch, resent from the failed probe) is compared with an engine whose
//! decorator forwards only `matching` (one call per probe, the trait's
//! default loop) across seeds, transient/truncate/outage profiles and
//! thread counts. Both must give identical `FederatedResult`s, identical
//! per-query and per-endpoint retry/circuit/failure tallies and skip sets,
//! identical breaker states and fault-schedule positions — with fewer
//! requests on the batched side.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use alex::datagen::{federation_scenario, FederationConfig};
use alex::sparql::{
    parse, BreakerConfig, DatasetEndpoint, Deadline, Endpoint, EndpointError, FaultProfile,
    FaultyEndpoint, FederatedEngine, Probe, Query, ResilienceConfig, RetryPolicy, Rows,
    SameAsLinks, Value,
};
use alex::telemetry::{Event, MemorySink};

/// The worker-thread count and the event sink are process globals, so
/// scenarios must not interleave.
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

type Faulty = FaultyEndpoint<DatasetEndpoint>;

/// Forwards both methods: one request per batch.
struct Batched(Arc<Faulty>);

impl Endpoint for Batched {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn matching(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<Rows, EndpointError> {
        self.0.matching(s, p, o, deadline)
    }
    fn matching_batch(
        &self,
        probes: &[Probe<'_>],
        deadline: &Deadline,
    ) -> (Vec<Rows>, Option<EndpointError>) {
        self.0.matching_batch(probes, deadline)
    }
}

/// Forwards only `matching`, so batches take the trait's default loop:
/// one call per probe.
struct PerProbe(Arc<Faulty>);

impl Endpoint for PerProbe {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn matching(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<Rows, EndpointError> {
        self.0.matching(s, p, o, deadline)
    }
}

fn profiles() -> Vec<(&'static str, FaultProfile)> {
    let none = FaultProfile::none;
    vec![
        (
            "transient",
            FaultProfile {
                transient_rate: 0.3,
                ..none()
            },
        ),
        (
            "truncate",
            FaultProfile {
                truncate_rate: 0.3,
                ..none()
            },
        ),
        (
            "outage",
            FaultProfile {
                outage: Some((10, 40)),
                ..none()
            },
        ),
        (
            "mixed",
            FaultProfile {
                transient_rate: 0.15,
                truncate_rate: 0.1,
                outage: Some((30, 45)),
                ..none()
            },
        ),
    ]
}

/// Few retries and a low breaker threshold, so retries run out and
/// breakers open. Backoff is zero and the cooldown either zero or an hour:
/// breaker transitions must not depend on how long a request took, or the
/// faster batched engine could see a cooldown expire that the per-probe
/// one does not.
fn resilience(cooldown: Duration) -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_retries: 2,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown,
            ..BreakerConfig::default()
        },
        seed: 0xBA7C,
        ..ResilienceConfig::default()
    }
}

/// Per-query and per-endpoint tallies of one execution, minus timings and
/// the request counts the two engines are expected to differ in.
fn tallies(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::FederatedQuery {
                answers,
                probes,
                pruned_probes,
                retries,
                skipped_sources,
                ..
            } => Some(format!(
                "query answers={answers} probes={probes} pruned={pruned_probes} \
                 retries={retries} skipped={skipped_sources}"
            )),
            Event::EndpointBatch {
                endpoint,
                jobs,
                retries,
                circuit_opens,
                circuit_rejections,
                failures,
                skipped,
                ..
            } => Some(format!(
                "batch {endpoint} jobs={jobs} retries={retries} opens={circuit_opens} \
                 rejections={circuit_rejections} failures={failures} skipped={skipped}"
            )),
            _ => None,
        })
        .collect()
}

fn request_totals(events: &[Event]) -> (u64, u64) {
    events.iter().fold((0, 0), |(r, p), e| match e {
        Event::FederatedQuery {
            requests,
            request_probes,
            ..
        } => (r + requests, p + request_probes),
        _ => (r, p),
    })
}

#[test]
fn batched_requests_match_per_probe_calls() {
    let _guard = guard();
    let mut outcomes = 0;
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
        for (name, profile) in profiles() {
            for cooldown in [Duration::ZERO, Duration::from_secs(3600)] {
                for threads in [1usize, 4] {
                    alex::parallel::set_threads(threads);
                    let label =
                        format!("seed {seed} {name} cooldown {cooldown:?} threads {threads}");
                    let mut faulty = Vec::new();
                    let mut engines = [FederatedEngine::new(), FederatedEngine::new()];
                    for (i, ds) in sc.endpoints().enumerate() {
                        let pair: [Arc<Faulty>; 2] = std::array::from_fn(|_| {
                            Arc::new(FaultyEndpoint::new(
                                DatasetEndpoint::new(ds.clone()),
                                profile.with_seed(seed * 100 + i as u64),
                            ))
                        });
                        engines[0].add_endpoint(Box::new(Batched(pair[0].clone())));
                        engines[1].add_endpoint(Box::new(PerProbe(pair[1].clone())));
                        faulty.push(pair);
                    }
                    for engine in &mut engines {
                        engine.set_links(SameAsLinks::from_pairs(
                            sc.links.iter().map(|(l, r)| (l.as_str(), r.as_str())),
                        ));
                        engine.set_resilience(resilience(cooldown));
                    }

                    for (q, query) in queries.iter().enumerate() {
                        let mut runs = Vec::new();
                        for engine in &engines {
                            let sink = Arc::new(MemorySink::new());
                            alex::telemetry::global().events().attach(sink.clone());
                            let result = engine.execute_full(query);
                            alex::telemetry::global().events().detach();
                            runs.push((result, sink.events()));
                        }
                        let (batched, per_probe) = (&runs[0], &runs[1]);
                        assert_eq!(batched.0, per_probe.0, "{label}: query {q} result");
                        assert_eq!(
                            tallies(&batched.1),
                            tallies(&per_probe.1),
                            "{label}: query {q} tallies"
                        );
                        if batched.0.as_ref().is_ok_and(|r| !r.is_complete()) {
                            outcomes += 1;
                        }
                        for (i, _) in faulty.iter().enumerate() {
                            assert_eq!(
                                engines[0].breaker_state(i),
                                engines[1].breaker_state(i),
                                "{label}: query {q} breaker {i}"
                            );
                        }
                    }

                    for (i, [batched, per_probe]) in faulty.iter().enumerate() {
                        assert_eq!(
                            batched.calls(),
                            per_probe.calls(),
                            "{label}: endpoint {i} fault-schedule position"
                        );
                        assert_eq!(per_probe.requests(), per_probe.calls());
                    }
                    let requests = |side: usize| -> u64 {
                        faulty.iter().map(|pair| pair[side].requests()).sum()
                    };
                    assert!(
                        requests(0) < requests(1),
                        "{label}: batched {} requests vs per-probe {}",
                        requests(0),
                        requests(1)
                    );
                }
            }
        }
    }
    alex::parallel::set_threads(0);
    assert!(outcomes > 0, "the profiles must degrade some queries");
}

/// The executor's own request counts: without faults, one request per
/// live (dispatch, endpoint) batch, carrying every probe of that batch.
#[test]
fn fault_free_batches_take_one_request_each() {
    let _guard = guard();
    let sink = Arc::new(MemorySink::new());
    alex::telemetry::global().events().attach(sink.clone());
    let sc = federation_scenario(&FederationConfig {
        entities: 18,
        shards: 3,
        seed: 11,
    });
    let mut engine = FederatedEngine::new();
    for ds in sc.endpoints() {
        engine.add_endpoint(Box::new(DatasetEndpoint::new(ds.clone())));
    }
    engine.set_links(SameAsLinks::from_pairs(
        sc.links.iter().map(|(l, r)| (l.as_str(), r.as_str())),
    ));
    for q in &sc.queries {
        engine
            .execute_full(&parse(&q.sparql).expect("generated SPARQL parses"))
            .expect("fault-free execution succeeds");
    }
    let events = sink.events();
    alex::telemetry::global().events().detach();
    let (batches, jobs) = events.iter().fold((0, 0), |(b, j), e| match e {
        Event::EndpointBatch {
            jobs,
            skipped: false,
            cache_hit: false,
            pruned: false,
            ..
        } => (b + 1, j + jobs),
        _ => (b, j),
    });
    assert_eq!(request_totals(&events), (batches, jobs));
    assert!(
        jobs > batches,
        "sameAs expansion must put several probes in a request"
    );
}
