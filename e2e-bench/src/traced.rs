//! The traced in-process pass behind the per-layer metrics.
//!
//! A pass runs one workload inside this process through the public
//! functions `src/bin/alex.rs` calls, in the same order and with the same
//! settings, so its improved links must equal the CLI's byte for byte; a
//! multi-process CLI sample is mirrored leg by leg, each leg parsing its
//! inputs again as a fresh process would. Three passes run: untraced,
//! traced, untraced. The traced one records the timeline and counts events;
//! the mean wall time of the other two, which brackets it, is the base of
//! its overhead.
//!
//! Layer numbers come from bench-side timers around the calls into each
//! layer, from timing decorators on the `FeedbackSource`, `Store` and
//! `Endpoint` seams, from counter and span-total deltas in the global
//! telemetry registry, and from the pool attribution of the drained
//! timeline. Standalone calls on the same inputs afterwards time the
//! literal preparation and blocking that every partition's space build
//! repeats, the build of one partition, and the unpartitioned build.
//!
//! A layer that runs in only some workloads reports its time as a share of
//! the traced pass's wall time (`telemetry.traced_wall_ms`), not in
//! milliseconds, so no time metric reads exactly 0 on every run of a
//! workload that bypasses the layer.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alex_core::values::SideValues;
use alex_core::{
    driver, run_partitioned, workload_from_links, AdversarialPopulation, Agent, AlexConfig,
    CandidateSet, Durability, Feedback, FeedbackBridge, FeedbackItem, FeedbackSource, LinkSpace,
    PairId, PartitionedConfig, QueryFeedback, SpaceConfig, StopReason, TrustConfig,
};
use alex_datagen::{assign_roles, AdversaryProfile};
use alex_linking::{candidate_pairs, BlockingConfig, Paris, ParisConfig};
use alex_rdf::{ntriples, Dataset, Term};
use alex_sparql::{
    DatasetEndpoint, Deadline, Endpoint, EndpointError, FaultProfile, FaultyEndpoint,
    FederatedEngine, SameAsLinks, Value,
};
use alex_store::{DirectStore, Store, StoreError};
use alex_telemetry::timeline::{self, PoolRole, ThreadTrace, TimelineKind};
use alex_telemetry::{attribute, global, Event, EventSink};

use crate::workloads::{fnv1a, Files, Workload, THREADS};

/// Every layer metric with its unit, in report order. `BENCHMARK.json`
/// lists the same metrics under `per_layer`.
pub const LAYERS: &[(&str, &str)] = &[
    ("rdf.parse_ms", "ms"),
    ("rdf.triples", "count"),
    ("paris.link_share", "frac"),
    ("paris.simmemo_hit_ratio", "ratio"),
    ("paris.iterations", "count"),
    ("values.prepare_ms", "ms"),
    ("blocking.ms", "ms"),
    ("blocking.pairs", "count"),
    ("space.build_ms", "ms"),
    ("space.partition_build_ms", "ms"),
    ("space.full_build_ms", "ms"),
    ("space.pairs", "count"),
    ("space.pair_yield", "ratio"),
    ("space.redundant_prep_share", "frac"),
    ("pool.space_build.dispatches", "count"),
    ("pool.space_build.wall_share", "frac"),
    ("pool.space_build.efficiency", "frac"),
    ("pool.space_build.chunk_skew", "ratio"),
    ("pool.space_build.oversubscription", "ratio"),
    ("pool.paris.dispatches", "count"),
    ("pool.paris.wall_share", "frac"),
    ("pool.paris.efficiency", "frac"),
    ("pool.paris.chunk_skew", "ratio"),
    ("pool.paris.oversubscription", "ratio"),
    ("pool.federation.dispatches", "count"),
    ("pool.federation.wall_share", "frac"),
    ("pool.federation.efficiency", "frac"),
    ("pool.federation.chunk_skew", "ratio"),
    ("pool.federation.oversubscription", "ratio"),
    ("agent.step_ms", "ms"),
    ("agent.evaluate_share", "frac"),
    ("agent.feedback_items", "count"),
    ("agent.links_churned", "count"),
    ("agent.churn_per_feedback", "ratio"),
    ("agent.exploration_actions", "count"),
    ("agent.rollbacks", "count"),
    ("feedback.next_item_share", "frac"),
    ("feedback.bridge_share", "frac"),
    ("federation.queries", "count"),
    ("federation.query_share", "frac"),
    ("federation.endpoint_calls", "count"),
    ("federation.endpoint_share", "frac"),
    ("federation.calls_per_query", "ratio"),
    ("federation.pruned_probes", "count"),
    ("federation.catalog_build_share", "frac"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("cache.evictions", "count"),
    ("trust.admitted", "count"),
    ("trust.deferred", "count"),
    ("trust.cascades", "count"),
    ("trust.log_len", "count"),
    ("trust.footprint_entries", "count"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.encode_mb_s", "MB/s"),
    ("persist.decode_mb_s", "MB/s"),
    ("store.appends", "count"),
    ("store.append_share", "frac"),
    ("store.append_bytes", "bytes"),
    ("store.snapshots", "count"),
    ("store.snapshot_share", "frac"),
    ("store.snapshot_bytes", "bytes"),
    ("store.bytes_per_feedback", "bytes"),
    ("store.open_share", "frac"),
    ("telemetry.traced_wall_ms", "ms"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("telemetry.dropped_events", "count"),
];

/// The pools the layer table reports, by their `alex-parallel` names.
const POOLS: [&str; 3] = ["space_build", "paris", "federation"];

/// Global counters read before and after the traced pass.
const COUNTERS: &[&str] = &[
    "simmemo_hits_total",
    "simmemo_misses_total",
    "alex_links_added_total",
    "alex_links_removed_total",
    "alex_exploration_actions_total",
    "alex_rollbacks_total",
    "alex_federated_queries_total",
    "federation_pruned_probes_total",
    "cache_hits_total",
    "cache_misses_total",
    "cache_invalidations_total",
    "cache_evictions_total",
    "trust_admitted_total",
    "trust_deferred_total",
    "cascading_rollbacks_total",
];

/// Per-thread timeline capacity for the traced pass, large enough that
/// the query loop's thousands of federated queries drop no event.
const TIMELINE_CAPACITY: usize = 1 << 22;

/// The layer values of `w` in `LAYERS` order. Every pass's links must
/// digest to `expected_digest`, the digest of the CLI's output on the same
/// inputs.
pub fn measure(
    w: Workload,
    files: &Files,
    kill_after: u64,
    expected_digest: u64,
) -> Result<Vec<f64>, String> {
    alex_parallel::set_threads(THREADS);
    let checked = |pass: Pass| {
        let digest = fnv1a(pass.links.as_bytes());
        if digest == expected_digest {
            Ok(pass)
        } else {
            Err(format!(
                "the in-process {} pass wrote links {digest:016x}, the CLI {expected_digest:016x}",
                w.name()
            ))
        }
    };
    let before = checked(pass(w, files, kill_after)?)?;

    let counters_before = read_counters();
    let spans_before = span_totals();
    let events = Arc::new(EventCounts::default());
    global().events().attach(events.clone());
    timeline::set_capacity(TIMELINE_CAPACITY);
    timeline::enable();
    let traced = pass(w, files, kill_after);
    timeline::disable();
    global().events().detach();
    let traces = timeline::drain();
    let traced = checked(traced?)?;
    let counters: BTreeMap<&str, u64> = read_counters()
        .into_iter()
        .map(|(name, after)| (name, after - counters_before[name]))
        .collect();
    let spans = span_deltas(&spans_before, &span_totals());
    let after = checked(pass(w, files, kill_after)?)?;
    let alone = standalone(w, files)?;

    let untraced_wall = (before.wall + after.wall).as_secs_f64() / 2.0;
    let values = layer_values(
        w,
        &traced,
        &alone,
        &counters,
        &spans,
        &traces,
        untraced_wall,
        &events,
    );
    Ok(LAYERS
        .iter()
        .map(|(name, _)| *values.get(name).expect("every layer metric is computed"))
        .collect())
}

#[allow(clippy::too_many_arguments)]
fn layer_values(
    w: Workload,
    traced: &Pass,
    alone: &Standalone,
    counters: &BTreeMap<&str, u64>,
    spans: &BTreeMap<String, Duration>,
    traces: &[ThreadTrace],
    untraced_wall: f64,
    events: &EventCounts,
) -> BTreeMap<&'static str, f64> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let wall = traced.wall.as_secs_f64();
    let share = |d: Duration| d.as_secs_f64() / wall;
    let count = |name: &str| counters[name] as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let leaf = |name: &str| -> Duration {
        spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .map(|(_, d)| *d)
            .sum()
    };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("rdf.parse_ms", ms(traced.parse));
    m.insert("rdf.triples", traced.triples as f64);

    let memo_hits = count("simmemo_hits_total");
    m.insert("paris.link_share", share(traced.paris));
    m.insert(
        "paris.simmemo_hit_ratio",
        ratio(memo_hits, memo_hits + count("simmemo_misses_total")),
    );
    m.insert(
        "paris.iterations",
        events.paris_iterations.load(Ordering::Relaxed) as f64,
    );

    m.insert("values.prepare_ms", ms(alone.values));
    m.insert("blocking.ms", ms(alone.blocking));
    m.insert("blocking.pairs", alone.blocked_pairs as f64);
    m.insert("space.build_ms", ms(traced.space + leaf("build_spaces")));
    m.insert("space.partition_build_ms", ms(alone.partition_build));
    m.insert("space.full_build_ms", ms(alone.full_build));
    m.insert("space.pairs", alone.space_pairs as f64);
    m.insert(
        "space.pair_yield",
        ratio(alone.space_pairs as f64, alone.blocked_pairs as f64),
    );
    let repeats = (w.partitions() - 1) as u32;
    m.insert(
        "space.redundant_prep_share",
        share((alone.values + alone.blocking) * repeats),
    );

    let attribution = attribute(traces);
    let active = pool_active_us(traces);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    // The `LAYERS` name of metric `what` of pool `pool`.
    let key = |pool: &str, what: &str| -> &'static str {
        let name = format!("pool.{pool}.{what}");
        LAYERS
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .expect("every pool metric is a layer metric")
    };
    for pool in POOLS {
        let stats = attribution.pools.iter().find(|p| p.pool == pool);
        let active_us = active.get(pool).copied().unwrap_or(0) as f64;
        let busy_us = stats.map_or(0.0, |p| p.busy_us as f64);
        let dispatches = stats.map_or(0.0, |p| p.dispatches as f64);
        m.insert(key(pool, "dispatches"), dispatches);
        m.insert(key(pool, "wall_share"), active_us / 1e6 / wall);
        let efficiency = stats.map_or(0.0, |p| p.parallel_efficiency);
        m.insert(key(pool, "efficiency"), efficiency);
        m.insert(key(pool, "chunk_skew"), stats.map_or(0.0, |p| p.chunk_skew));
        let oversubscription = ratio(busy_us, active_us * cores);
        m.insert(key(pool, "oversubscription"), oversubscription);
    }

    let episodes = leaf("episode");
    let source_time = traced.source.map_or(Duration::ZERO, |s| s.time);
    let feedback_applied = events.feedback_applied.load(Ordering::Relaxed);
    let feedback_items = traced.source.map_or(feedback_applied, |s| s.items) as f64;
    let churned = count("alex_links_added_total") + count("alex_links_removed_total");
    m.insert("agent.step_ms", ms(episodes.saturating_sub(source_time)));
    m.insert("agent.evaluate_share", share(leaf("evaluate")));
    m.insert("agent.feedback_items", feedback_items);
    m.insert("agent.links_churned", churned);
    m.insert("agent.churn_per_feedback", ratio(churned, feedback_items));
    m.insert(
        "agent.exploration_actions",
        count("alex_exploration_actions_total"),
    );
    m.insert("agent.rollbacks", count("alex_rollbacks_total"));

    let queries = count("alex_federated_queries_total");
    let query_time = leaf("federated_query");
    m.insert("feedback.next_item_share", share(source_time));
    m.insert(
        "feedback.bridge_share",
        if w == Workload::QueryLoop {
            share(source_time.saturating_sub(query_time))
        } else {
            0.0
        },
    );
    let endpoint_calls = traced.endpoint_calls.saturating_sub(traced.catalog_calls) as f64;
    m.insert("federation.queries", queries);
    m.insert("federation.query_share", share(query_time));
    m.insert("federation.endpoint_calls", endpoint_calls);
    m.insert(
        "federation.endpoint_share",
        share(traced.endpoint_time.saturating_sub(traced.catalog_time)),
    );
    m.insert("federation.calls_per_query", ratio(endpoint_calls, queries));
    m.insert(
        "federation.pruned_probes",
        count("federation_pruned_probes_total"),
    );
    m.insert("federation.catalog_build_share", share(traced.catalog));

    let (hits, misses) = (count("cache_hits_total"), count("cache_misses_total"));
    m.insert("cache.hits", hits);
    m.insert("cache.misses", misses);
    m.insert("cache.hit_ratio", ratio(hits, hits + misses));
    m.insert("cache.invalidations", count("cache_invalidations_total"));
    m.insert("cache.evictions", count("cache_evictions_total"));

    m.insert("trust.admitted", count("trust_admitted_total"));
    m.insert("trust.deferred", count("trust_deferred_total"));
    m.insert("trust.cascades", count("cascading_rollbacks_total"));
    m.insert("trust.log_len", traced.trust_log as f64);
    m.insert("trust.footprint_entries", traced.trust_footprint as f64);

    m.insert("persist.snapshot_bytes", alone.snapshot_bytes as f64);
    m.insert("persist.encode_mb_s", alone.encode_mb_s);
    m.insert("persist.decode_mb_s", alone.decode_mb_s);

    let store = &traced.store;
    m.insert("store.appends", store.appends as f64);
    m.insert("store.append_share", share(store.append));
    m.insert("store.append_bytes", store.append_bytes as f64);
    m.insert("store.snapshots", store.snapshots as f64);
    m.insert("store.snapshot_share", share(store.snapshot));
    m.insert("store.snapshot_bytes", store.snapshot_bytes as f64);
    m.insert(
        "store.bytes_per_feedback",
        ratio(
            (store.append_bytes + store.snapshot_bytes) as f64,
            feedback_items,
        ),
    );
    m.insert("store.open_share", share(store.open));

    m.insert("telemetry.traced_wall_ms", wall * 1e3);
    m.insert("telemetry.trace_overhead_frac", wall / untraced_wall - 1.0);
    m.insert(
        "telemetry.dropped_events",
        attribution.dropped_events as f64,
    );
    m
}

/// Per pool, the time at least one of its dispatches was in flight: the
/// union of its dispatch intervals over all threads. Concurrent dispatches
/// (27 partitions building at once) count once, so busy time over this
/// active time and the core count measures oversubscription.
fn pool_active_us(traces: &[ThreadTrace]) -> BTreeMap<&'static str, u64> {
    let mut intervals: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for trace in traces {
        let mut open: Vec<Option<(&'static str, u64)>> = Vec::new();
        for event in &trace.events {
            match &event.kind {
                TimelineKind::Begin { pool, .. } => open.push(
                    pool.as_ref()
                        .filter(|labels| matches!(labels.role, PoolRole::Dispatch { .. }))
                        .map(|labels| (labels.pool, event.ts_us)),
                ),
                TimelineKind::End => {
                    if let Some(Some((pool, start))) = open.pop() {
                        intervals
                            .entry(pool)
                            .or_default()
                            .push((start, event.ts_us));
                    }
                }
                TimelineKind::Instant { .. } => {}
            }
        }
    }
    intervals
        .into_iter()
        .map(|(pool, spans)| (pool, union_length(spans)))
        .collect()
}

/// Total length covered by a set of `[start, end)` intervals.
fn union_length(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in spans {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

fn read_counters() -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&name| (name, global().metrics().counter(name).get()))
        .collect()
}

fn span_totals() -> BTreeMap<String, Duration> {
    global()
        .spans()
        .snapshot()
        .into_iter()
        .map(|(path, stats)| (path, stats.total))
        .collect()
}

fn span_deltas(
    before: &BTreeMap<String, Duration>,
    after: &BTreeMap<String, Duration>,
) -> BTreeMap<String, Duration> {
    after
        .iter()
        .map(|(path, total)| {
            let earlier = before.get(path).copied().unwrap_or_default();
            (path.clone(), total.saturating_sub(earlier))
        })
        .collect()
}

/// Counts the events no counter covers: PARIS iterations, and the
/// feedback items of `run_partitioned`, whose oracle sits behind no
/// decorator.
#[derive(Default)]
struct EventCounts {
    paris_iterations: AtomicU64,
    feedback_applied: AtomicU64,
}

impl EventSink for EventCounts {
    fn emit(&self, event: &Event) {
        let counter = match event {
            Event::ParisIteration { .. } => &self.paris_iterations,
            Event::FeedbackApplied { .. } => &self.feedback_applied,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Bench-side measurements of one pass.
#[derive(Default)]
struct Pass {
    /// The improved links, serialised as the CLI writes them.
    links: String,
    wall: Duration,
    parse: Duration,
    triples: u64,
    paris: Duration,
    /// `LinkSpace::build` outside `run_partitioned`, whose own builds the
    /// `build_spaces` span times.
    space: Duration,
    catalog: Duration,
    catalog_calls: u64,
    catalog_time: Duration,
    endpoint_calls: u64,
    endpoint_time: Duration,
    source: Option<SourceTimes>,
    store: StoreTimes,
    trust_log: usize,
    trust_footprint: u64,
}

fn pass(w: Workload, files: &Files, kill_after: u64) -> Result<Pass, String> {
    if files.state.exists() {
        std::fs::remove_dir_all(&files.state)
            .map_err(|e| format!("cannot remove {}: {e}", files.state.display()))?;
    }
    let mut p = Pass::default();
    let start = Instant::now();
    match w {
        Workload::Batch => {
            let left = load(&files.left, &mut p)?;
            let right = load(&files.right, &mut p)?;
            let links = load_links(&files.links)?;
            p.links = improve_partitioned(&left, &right, &links, files, w)?;
        }
        Workload::Interactive => {
            let left = load(&files.left, &mut p)?;
            let right = load(&files.right, &mut p)?;
            let started = Instant::now();
            let output = Paris::with_config(ParisConfig {
                output_threshold: 0.80,
                ..ParisConfig::default()
            })
            .link(&left, &right);
            p.paris = started.elapsed();
            let links = SameAsLinks::from_pairs(
                output
                    .term_pairs()
                    .into_iter()
                    .map(|(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
            );
            // The CLI improves in a second process that reads everything
            // again.
            let links = SameAsLinks::from_ntriples(&links.to_ntriples())
                .map_err(|e| format!("PARIS links: {e}"))?;
            let left = load(&files.left, &mut p)?;
            let right = load(&files.right, &mut p)?;
            p.links = improve_partitioned(&left, &right, &links, files, w)?;
        }
        Workload::QueryLoop => query_loop(files, &mut p)?,
        Workload::Durable => {
            durable_leg(files, Some(kill_after), &mut p)?;
            durable_leg(files, None, &mut p)?;
        }
    }
    p.wall = start.elapsed();
    Ok(p)
}

fn load(path: &Path, p: &mut Pass) -> Result<Dataset, String> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("data");
    let mut ds = Dataset::new(name.to_string());
    let started = Instant::now();
    ntriples::parse_into(&mut ds, &content).map_err(|e| format!("{}: {e}", path.display()))?;
    p.parse += started.elapsed();
    p.triples += ds.len() as u64;
    Ok(ds)
}

fn load_links(path: &Path) -> Result<SameAsLinks, String> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    SameAsLinks::from_ntriples(&content).map_err(|e| format!("{}: {e}", path.display()))
}

fn to_terms(left: &Dataset, right: &Dataset, set: &SameAsLinks) -> Vec<(Term, Term)> {
    set.iter()
        .filter_map(|l| {
            let lt = left.interner().get(&l.left).map(Term::Iri)?;
            let rt = right.interner().get(&l.right).map(Term::Iri)?;
            Some((lt, rt))
        })
        .collect()
}

fn to_ids(left: &Dataset, right: &Dataset, set: &SameAsLinks) -> Vec<(u32, u32)> {
    let (left_index, right_index) = (left.entity_index(), right.entity_index());
    to_terms(left, right, set)
        .into_iter()
        .filter_map(|(l, r)| Some((left_index.id(l)?, right_index.id(r)?)))
        .collect()
}

fn serialize(left: &Dataset, right: &Dataset, pairs: impl Iterator<Item = (Term, Term)>) -> String {
    SameAsLinks::from_pairs(
        pairs.map(|(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
    )
    .to_ntriples()
}

fn agent_links(left: &Dataset, right: &Dataset, agent: &Agent) -> String {
    serialize(
        left,
        right,
        agent
            .candidates()
            .iter()
            .map(|id| agent.space().pair_terms(id)),
    )
}

/// `alex improve` with oracle feedback and no durability:
/// `run_partitioned`, for any partition count.
fn improve_partitioned(
    left: &Dataset,
    right: &Dataset,
    links: &SameAsLinks,
    files: &Files,
    w: Workload,
) -> Result<String, String> {
    let truth = load_links(&files.truth)?;
    let cfg = PartitionedConfig {
        partitions: w.partitions(),
        alex: AlexConfig {
            episode_size: w.episode_size(),
            max_episodes: w.max_episodes(),
            ..AlexConfig::default()
        },
        space: SpaceConfig::default(),
        feedback_error_rate: 0.0,
    };
    let run = run_partitioned(
        left,
        right,
        &to_terms(left, right, links),
        &to_terms(left, right, &truth),
        &cfg,
    );
    Ok(serialize(left, right, run.final_links.iter().copied()))
}

/// `alex improve --feedback query --queries 300 --cache --catalog probe
/// --fault-profile seed=7,latency-ms=1`.
fn query_loop(files: &Files, p: &mut Pass) -> Result<(), String> {
    let left = load(&files.left, p)?;
    let right = load(&files.right, p)?;
    let links = load_links(&files.links)?;
    let truth = load_links(&files.truth)?;
    let initial_ids = to_ids(&left, &right, &links);
    let truth_ids: HashSet<(u32, u32)> = to_ids(&left, &right, &truth).into_iter().collect();
    let truth_iris: Vec<(String, String)> = truth
        .iter()
        .map(|l| (l.left.clone(), l.right.clone()))
        .collect();
    let queries = workload_from_links(&left, &right, &truth_iris, 300);

    let profile = FaultProfile::parse("seed=7,latency-ms=1")?;
    let calls = Arc::new(CallTimes::default());
    let mut engine = FederatedEngine::new();
    for ds in [&left, &right] {
        engine.add_endpoint(Box::new(TimedEndpoint {
            inner: Box::new(FaultyEndpoint::new(
                DatasetEndpoint::new(ds.clone()),
                profile.clone(),
            )),
            times: calls.clone(),
        }));
    }
    engine.enable_cache(4096);
    let started = Instant::now();
    let catalog = engine
        .build_catalog()
        .map_err(|e| format!("catalog probe: {e}"))?;
    p.catalog = started.elapsed();
    (p.catalog_calls, p.catalog_time) = calls.read();
    engine.set_catalog(Some(catalog));

    let started = Instant::now();
    let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
    p.space += started.elapsed();
    let bridge = FeedbackBridge::new(&left, space.left_index(), &right, space.right_index());
    let cfg = AlexConfig {
        episode_size: Workload::QueryLoop.episode_size(),
        max_episodes: Workload::QueryLoop.max_episodes(),
        ..AlexConfig::default()
    };
    let mut agent = Agent::new(space, &initial_ids, cfg);
    let mut source = QueryFeedback::new(
        engine,
        left.clone(),
        right.clone(),
        queries,
        bridge,
        truth_ids.clone(),
    );
    let mut timed = TimedFeedback::new(&mut source);
    driver::run(&mut agent, &mut timed, &truth_ids);
    p.source = Some(timed.times);
    (p.endpoint_calls, p.endpoint_time) = calls.read();
    p.links = agent_links(&left, &right, &agent);
    Ok(())
}

/// One process of the durable sample: `alex improve --state-dir D --trust
/// --sources 5 --adversary-profile flipper:0.2`, either
/// stopping after `stop_after` commits (the killed leg, whose state on disk
/// this leaves exactly as the SIGKILL does) or resuming to the end.
fn durable_leg(files: &Files, stop_after: Option<u64>, p: &mut Pass) -> Result<(), String> {
    let left = load(&files.left, p)?;
    let right = load(&files.right, p)?;
    let links = load_links(&files.links)?;
    let truth = load_links(&files.truth)?;
    let initial_ids = to_ids(&left, &right, &links);
    let truth_ids: HashSet<(u32, u32)> = to_ids(&left, &right, &truth).into_iter().collect();
    let cfg = AlexConfig {
        episode_size: Workload::Durable.episode_size(),
        max_episodes: Workload::Durable.max_episodes(),
        trust: Some(TrustConfig::default()),
        ..AlexConfig::default()
    };
    let started = Instant::now();
    let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
    p.space += started.elapsed();
    let mut agent = Agent::new(space, &initial_ids, cfg.clone());
    let profile = AdversaryProfile::parse("flipper:0.2")?;
    let mut population = AdversarialPopulation::new(
        truth_ids.clone(),
        assign_roles(Some(&profile), 5, cfg.seed),
        0.0,
        cfg.seed,
    );

    let started = Instant::now();
    let (store, recovery) = DirectStore::open(&files.state)
        .map_err(|e| format!("cannot open state dir {}: {e}", files.state.display()))?;
    let mut store = TimedStore {
        inner: store,
        times: StoreTimes {
            open: started.elapsed(),
            ..StoreTimes::default()
        },
    };
    let resume = stop_after.is_none();
    let mut durability = Durability::new(&mut store, recovery)
        .snapshot_every(10)
        .resume(resume);
    if let Some(k) = stop_after {
        durability = durability.stop_after(k);
    }
    let mut source = TimedFeedback::new(&mut population);
    let report = driver::run_durable(&mut agent, &mut source, &truth_ids, durability)?;
    let times = source.times;
    p.source = Some(p.source.unwrap_or_default().add(times));
    p.store.add(&store.times);

    if !resume {
        return match report.stop {
            StopReason::Suspended => Ok(()),
            stop => Err(format!(
                "the durable run stopped ({stop:?}) before its kill point"
            )),
        };
    }
    if let Some(gate) = agent.trust_gate() {
        p.trust_log = gate.log.len();
        p.trust_footprint = gate
            .log
            .iter()
            .map(|r| {
                let rollback = r
                    .rollback
                    .as_ref()
                    .map_or(0, |rb| rb.links.len() + rb.removed.len());
                (r.supporters.len()
                    + r.opposers.len()
                    + r.credited.len()
                    + r.added.len()
                    + rollback) as u64
            })
            .sum();
    }
    p.links = agent_links(&left, &right, &agent);
    Ok(())
}

/// Time spent in, and items produced by, a feedback source.
#[derive(Debug, Clone, Copy, Default)]
struct SourceTimes {
    time: Duration,
    items: u64,
}

impl SourceTimes {
    fn add(self, other: SourceTimes) -> SourceTimes {
        SourceTimes {
            time: self.time + other.time,
            items: self.items + other.items,
        }
    }
}

/// Times every call into the wrapped feedback source.
struct TimedFeedback<'a> {
    inner: &'a mut dyn FeedbackSource,
    times: SourceTimes,
}

impl<'a> TimedFeedback<'a> {
    fn new(inner: &'a mut dyn FeedbackSource) -> Self {
        TimedFeedback {
            inner,
            times: SourceTimes::default(),
        }
    }
}

impl FeedbackSource for TimedFeedback<'_> {
    fn next(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<(PairId, Feedback)> {
        self.next_item(candidates, space)
            .map(|item| (item.state, item.feedback))
    }

    fn next_item(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<FeedbackItem> {
        let started = Instant::now();
        let item = self.inner.next_item(candidates, space);
        self.times.time += started.elapsed();
        self.times.items += u64::from(item.is_some());
        item
    }

    fn take_degraded(&mut self) -> usize {
        self.inner.take_degraded()
    }

    fn durable_state(&self) -> Option<Vec<u8>> {
        self.inner.durable_state()
    }

    fn restore_durable_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_durable_state(state)
    }
}

/// Calls into, and time spent in, a set of endpoints. Workers of the
/// federation pool call concurrently, so the time can exceed wall time.
#[derive(Default)]
struct CallTimes {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallTimes {
    fn record(&self, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, Duration) {
        (
            self.calls.load(Ordering::Relaxed),
            Duration::from_nanos(self.nanos.load(Ordering::Relaxed)),
        )
    }
}

/// Times every call into the wrapped endpoint.
struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    times: Arc<CallTimes>,
}

impl Endpoint for TimedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn matching(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<Vec<[Value; 3]>, EndpointError> {
        let started = Instant::now();
        let result = self.inner.matching(s, p, o, deadline);
        self.times.record(started);
        result
    }

    fn has_matches(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<bool, EndpointError> {
        let started = Instant::now();
        let result = self.inner.has_matches(s, p, o, deadline);
        self.times.record(started);
        result
    }
}

/// Writes to, and the open of, a state directory.
#[derive(Debug, Clone, Default)]
struct StoreTimes {
    open: Duration,
    appends: u64,
    append: Duration,
    append_bytes: u64,
    snapshots: u64,
    snapshot: Duration,
    snapshot_bytes: u64,
}

impl StoreTimes {
    fn add(&mut self, other: &StoreTimes) {
        self.open += other.open;
        self.appends += other.appends;
        self.append += other.append;
        self.append_bytes += other.append_bytes;
        self.snapshots += other.snapshots;
        self.snapshot += other.snapshot;
        self.snapshot_bytes += other.snapshot_bytes;
    }
}

/// Times every write into the wrapped store.
struct TimedStore {
    inner: DirectStore,
    times: StoreTimes,
}

impl Store for TimedStore {
    fn append_episode(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let started = Instant::now();
        let result = self.inner.append_episode(seq, payload);
        self.times.append += started.elapsed();
        self.times.appends += 1;
        self.times.append_bytes += payload.len() as u64;
        result
    }

    fn write_snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let started = Instant::now();
        let result = self.inner.write_snapshot(seq, payload);
        self.times.snapshot += started.elapsed();
        self.times.snapshots += 1;
        self.times.snapshot_bytes += payload.len() as u64;
        result
    }

    fn dir(&self) -> &Path {
        self.inner.dir()
    }
}

/// Standalone layer calls on the workload's inputs, outside any pass.
struct Standalone {
    /// `SideValues::build` of both sides.
    values: Duration,
    /// `candidate_pairs`.
    blocking: Duration,
    blocked_pairs: usize,
    /// `LinkSpace::build` of partition 0 of the workload's partitions.
    partition_build: Duration,
    /// `LinkSpace::build` of the unpartitioned space; the same build as
    /// `partition_build` when the workload has one partition.
    full_build: Duration,
    /// Pairs in the unpartitioned link space.
    space_pairs: usize,
    /// The newest snapshot of the durable run, and its codec throughput.
    snapshot_bytes: usize,
    encode_mb_s: f64,
    decode_mb_s: f64,
}

fn standalone(w: Workload, files: &Files) -> Result<Standalone, String> {
    let mut untimed = Pass::default();
    let left = load(&files.left, &mut untimed)?;
    let right = load(&files.right, &mut untimed)?;
    let (left_index, right_index) = (left.entity_index(), right.entity_index());

    let started = Instant::now();
    let mut interner = alex_sim::TokenInterner::new();
    let prepared = (
        SideValues::build(&left, &left_index, &mut interner),
        SideValues::build(&right, &right_index, &mut interner),
    );
    let values = started.elapsed();
    drop(std::hint::black_box(prepared));

    let started = Instant::now();
    let blocked = candidate_pairs(
        &left,
        &left_index,
        &right,
        &right_index,
        &BlockingConfig::default(),
    );
    let blocking = started.elapsed();

    let k = w.partitions();
    let started = Instant::now();
    let partition = LinkSpace::build(
        &left,
        &right,
        &SpaceConfig {
            partition: Some((0, k)),
            ..SpaceConfig::default()
        },
    );
    let partition_build = started.elapsed();
    let (full_build, space_pairs) = if k == 1 {
        (partition_build, partition.len())
    } else {
        let started = Instant::now();
        let full = LinkSpace::build(&left, &right, &SpaceConfig::default());
        (started.elapsed(), full.len())
    };

    let (snapshot_bytes, encode_mb_s, decode_mb_s) = if w == Workload::Durable {
        snapshot_codec(&files.state)?
    } else {
        (0, 0.0, 0.0)
    };
    Ok(Standalone {
        values,
        blocking,
        blocked_pairs: blocked.len(),
        partition_build,
        full_build,
        space_pairs,
        snapshot_bytes,
        encode_mb_s,
        decode_mb_s,
    })
}

/// Size of the newest snapshot in the finished durable run's state
/// directory, and the throughput of decoding and re-encoding it.
fn snapshot_codec(state: &Path) -> Result<(usize, f64, f64), String> {
    let (_, recovery) = DirectStore::open(state).map_err(|e| e.to_string())?;
    let (_, payload) = recovery
        .snapshot
        .ok_or_else(|| "the durable run left no snapshot".to_string())?;
    let started = Instant::now();
    let snapshot = alex_core::persist::decode_snapshot(&payload)?;
    let decode = started.elapsed();
    let started = Instant::now();
    let encoded = alex_core::persist::encode_snapshot(&snapshot);
    let encode = started.elapsed();
    let mb = payload.len() as f64 / 1e6;
    std::hint::black_box(encoded);
    Ok((
        payload.len(),
        mb / encode.as_secs_f64(),
        mb / decode.as_secs_f64(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_length(vec![]), 0);
        assert_eq!(union_length(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_length(vec![(3, 4), (0, 10)]), 10);
    }
}
