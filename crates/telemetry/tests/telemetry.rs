//! Unit tests for the telemetry crate: concurrent span nesting, Prometheus
//! export format, and JSONL round-trips.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use alex_telemetry::{
    span, Event, EventLog, JsonlFileSink, MemorySink, MetricsRegistry, StepWindow,
};

// ------------------------------------------------------------------- spans

#[test]
fn concurrent_span_nesting_keeps_paths_per_thread() {
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                let _outer = span("tst_outer");
                for _ in 0..3 {
                    let inner = span("tst_inner");
                    assert_eq!(inner.path(), "tst_outer/tst_inner");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let spans = alex_telemetry::global().spans();
    let outer = spans.get("tst_outer").expect("outer span recorded");
    let inner = spans
        .get("tst_outer/tst_inner")
        .expect("inner span recorded");
    assert_eq!(outer.count, 8);
    assert_eq!(inner.count, 24);
    assert!(
        outer.total >= inner.total / 8,
        "outer spans contain their inners"
    );
    assert!(outer.min <= outer.max);
    assert!(inner.mean() <= inner.max);
}

#[test]
fn sibling_spans_do_not_nest() {
    {
        let first = span("tst_sib_a");
        assert_eq!(first.path(), "tst_sib_a");
    }
    let second = span("tst_sib_b");
    assert_eq!(
        second.path(),
        "tst_sib_b",
        "dropped sibling must not remain on the stack"
    );
}

// -------------------------------------------------------------- prometheus

#[test]
fn prometheus_export_escapes_label_values() {
    let registry = MetricsRegistry::default();
    registry
        .counter_with_labels("requests_total", &[("path", "a\\b\"c\nd")])
        .add(3);
    let text = registry.render_prometheus();
    assert!(text.contains("# TYPE requests_total counter"), "{text}");
    assert!(
        text.contains("requests_total{path=\"a\\\\b\\\"c\\nd\"} 3"),
        "backslash, quote and newline must be escaped: {text}"
    );
}

#[test]
fn prometheus_export_has_one_type_line_per_family() {
    let registry = MetricsRegistry::default();
    registry
        .counter_with_labels("hits_total", &[("route", "a")])
        .inc();
    registry
        .counter_with_labels("hits_total", &[("route", "b")])
        .add(2);
    let text = registry.render_prometheus();
    assert_eq!(
        text.matches("# TYPE hits_total counter").count(),
        1,
        "{text}"
    );
    assert!(text.contains("hits_total{route=\"a\"} 1"), "{text}");
    assert!(text.contains("hits_total{route=\"b\"} 2"), "{text}");
}

// ------------------------------------------------------------------ events

fn all_event_variants() -> Vec<Event> {
    vec![
        Event::EpisodeStart { episode: 1 },
        Event::EpisodeEnd {
            episode: 1,
            precision: 0.875,
            recall: 0.5,
            f_measure: 0.6363,
            added: 10,
            removed: 3,
            rollbacks: 1,
            threads: 4,
            duration_us: 1234,
            recovered_from: 0,
            trust_admitted: 5,
            trust_deferred: 2,
            trust_cascades: 1,
            degraded: true,
        },
        Event::FeedbackApplied {
            left: 4,
            right: 9,
            positive: true,
            window: Some(StepWindow {
                feature: 7,
                start: 120,
                end: 131,
            }),
            added: 2,
            removed: 0,
            blacklisted: 3,
            rolled_back: 0,
        },
        Event::FeedbackApplied {
            left: 1,
            right: 2,
            positive: false,
            window: None,
            added: 0,
            removed: 6,
            blacklisted: 0,
            rolled_back: 5,
        },
        Event::FederatedQuery {
            patterns: 2,
            answers: 7,
            provenance_answers: 3,
            probes: 40,
            pruned_probes: 12,
            bound_join_iterations: 9,
            sameas_expansions: 4,
            retries: 3,
            requests: 6,
            request_probes: 10,
            skipped_sources: 1,
            cache: true,
            cache_hits: 5,
            cache_misses: 2,
            catalog: true,
            threads: 2,
            duration_us: 99,
        },
        Event::ParisIteration {
            iteration: 2,
            matches: 117,
            duration_us: 5000,
        },
        Event::EndpointBatch {
            endpoint: "dbpedia \"live\"\n".to_string(),
            slot: 3,
            jobs: 6,
            duration_us: 4200,
            retries: 1,
            circuit_opens: 0,
            circuit_rejections: 2,
            failures: 1,
            skipped: false,
            cache_hit: true,
            pruned: true,
        },
    ]
}

#[test]
fn every_event_variant_round_trips_through_json() {
    for event in all_event_variants() {
        let line = event.to_json();
        let parsed = Event::parse(&line).unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
        assert_eq!(parsed, Some(event), "round-trip mismatch for {line}");
    }
}

/// Logs from builds that could rewrite queries carry a `rewrites` count
/// on `federated_query`; it parses like any unknown key, ignored.
#[test]
fn federated_query_lines_with_a_rewrites_key_still_parse() {
    for event in all_event_variants() {
        if let Event::FederatedQuery { .. } = event {
            let line = event.to_json();
            let old = line.replacen("\"threads\"", "\"rewrites\":1,\"threads\"", 1);
            assert_ne!(old, line);
            assert_eq!(Event::parse(&old), Ok(Some(event)), "{old}");
        }
    }
}

/// `endpoint_batch` lines written before endpoints carried their slot
/// read as slot 0.
#[test]
fn endpoint_batch_lines_without_a_slot_read_as_slot_0() {
    for event in all_event_variants() {
        if let Event::EndpointBatch { .. } = event {
            let line = event.to_json();
            let old = line.replacen("\"slot\":3,", "", 1);
            assert_ne!(old, line);
            let Ok(Some(Event::EndpointBatch { slot, .. })) = Event::parse(&old) else {
                panic!("{old}");
            };
            assert_eq!(slot, 0, "{old}");
        }
    }
}

/// The parallel execution layer records its configured thread count on
/// the episode and federated-query events.
#[test]
fn episode_and_query_events_carry_thread_count() {
    for event in all_event_variants() {
        match &event {
            Event::EpisodeEnd { threads, .. } => {
                assert_eq!(*threads, 4);
                assert!(event.to_json().contains("\"threads\":4"));
            }
            Event::FederatedQuery { threads, .. } => {
                assert_eq!(*threads, 2);
                assert!(event.to_json().contains("\"threads\":2"));
            }
            _ => {}
        }
    }
    // A line without the field fails to parse — the schema is mandatory,
    // not best-effort, so dashboards can rely on it.
    let missing = "{\"type\":\"episode_end\",\"episode\":1,\"precision\":1.0,\
                   \"recall\":1.0,\"f_measure\":1.0,\"added\":0,\"removed\":0,\
                   \"rollbacks\":0,\"duration_us\":1}";
    assert!(Event::parse(missing).is_err());
}

#[test]
fn jsonl_file_sink_round_trips_through_disk() {
    let path = std::env::temp_dir().join(format!("alex-telemetry-{}.jsonl", std::process::id()));
    let log = EventLog::default();
    log.attach(Arc::new(JsonlFileSink::create(&path).unwrap()));
    let events = all_event_variants();
    for event in &events {
        let e = event.clone();
        log.emit_with(move || e);
    }
    log.detach();

    let content = std::fs::read_to_string(&path).unwrap();
    let parsed: Vec<Event> = content
        .lines()
        .map(|l| Event::parse(l).unwrap().unwrap())
        .collect();
    assert_eq!(parsed, events);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn emit_with_is_lazy_without_a_sink() {
    let log = EventLog::default();
    let built = AtomicBool::new(false);
    log.emit_with(|| {
        built.store(true, Ordering::Relaxed);
        Event::EpisodeStart { episode: 1 }
    });
    assert!(
        !built.load(Ordering::Relaxed),
        "closure must not run without a sink"
    );

    let sink = Arc::new(MemorySink::new());
    log.attach(sink.clone());
    log.emit_with(|| {
        built.store(true, Ordering::Relaxed);
        Event::EpisodeStart { episode: 2 }
    });
    assert!(built.load(Ordering::Relaxed));
    assert_eq!(sink.events(), vec![Event::EpisodeStart { episode: 2 }]);
}

// --------------------------------------------------- prometheus edge cases

#[test]
fn prometheus_render_is_deterministically_ordered() {
    let build = |reversed: bool| {
        let registry = MetricsRegistry::default();
        let mut names = ["a_total", "m_total", "z_total"];
        if reversed {
            names.reverse();
        }
        for (i, name) in names.iter().enumerate() {
            registry.counter(name).add(i as u64 + 1);
        }
        registry
            .counter_with_labels("lbl_total", &[("route", "b")])
            .inc();
        registry
            .counter_with_labels("lbl_total", &[("route", "a")])
            .inc();
        registry
    };
    let a = build(false);
    let b = build(true);
    // Same metrics, different registration order — byte-identical except
    // for the values, and stable across repeated renders.
    assert_eq!(a.render_prometheus(), a.render_prometheus());
    let (ta, tb) = (a.render_prometheus(), b.render_prometheus());
    let series = |t: &str| -> Vec<String> {
        t.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split(' ').next().unwrap_or("").to_string())
            .collect()
    };
    assert_eq!(series(&ta), series(&tb), "{ta}\nvs\n{tb}");
    let pos = |t: &str, s: &str| t.find(s).unwrap_or_else(|| panic!("{s} missing:\n{t}"));
    assert!(pos(&ta, "a_total") < pos(&ta, "m_total"));
    assert!(pos(&ta, "m_total") < pos(&ta, "z_total"));
    assert!(pos(&ta, "route=\"a\"") < pos(&ta, "route=\"b\""));
}

// ----------------------------------------------------- trace + attribution

use alex_telemetry::timeline::{PoolLabels, PoolRole, ThreadTrace, TimelineEvent, TimelineKind};

fn begin_kind(name: &'static str, path: &str, pool: Option<PoolLabels>) -> TimelineKind {
    TimelineKind::Begin {
        name,
        path: Arc::from(path),
        pool: pool.map(Box::new),
    }
}

fn ev(ts_us: u64, kind: TimelineKind) -> TimelineEvent {
    TimelineEvent { ts_us, kind }
}

/// A hand-built two-worker dispatch: `improve` on the main thread wraps a
/// pool-`p` dispatch (seq 1, 2 chunks / 2 workers); worker threads run one
/// chunk each (40µs and 70µs) inside the dispatch window [10, 110].
fn sample_traces() -> Vec<ThreadTrace> {
    let dispatch = PoolLabels {
        pool: "p",
        seq: 1,
        role: PoolRole::Dispatch {
            chunks: 2,
            workers: 2,
        },
    };
    let chunk = |worker, chunk, items| PoolLabels {
        pool: "p",
        seq: 1,
        role: PoolRole::Chunk {
            worker,
            chunk,
            items,
        },
    };
    vec![
        ThreadTrace {
            tid: 1,
            events: vec![
                ev(0, begin_kind("improve", "improve", None)),
                ev(10, begin_kind("p", "improve/p", Some(dispatch))),
                ev(110, TimelineKind::End),
                ev(200, TimelineKind::End),
            ],
            dropped: 0,
        },
        ThreadTrace {
            tid: 2,
            events: vec![
                ev(20, begin_kind("p", "improve/p", Some(chunk(0, 0, 5)))),
                ev(60, TimelineKind::End),
            ],
            dropped: 0,
        },
        ThreadTrace {
            tid: 3,
            events: vec![
                ev(20, begin_kind("p", "improve/p", Some(chunk(1, 1, 5)))),
                ev(90, TimelineKind::End),
            ],
            dropped: 0,
        },
    ]
}

#[test]
fn attribution_computes_self_time_skew_and_critical_path() {
    let attribution = alex_telemetry::attribute(&sample_traces());

    // Phase self time: the 200µs improve span minus its 100µs dispatch.
    assert_eq!(attribution.phases.len(), 1);
    let phase = &attribution.phases[0];
    assert_eq!(phase.path, "improve");
    assert_eq!(phase.count, 1);
    assert_eq!(phase.total_us, 200);
    assert_eq!(phase.self_us, 100);

    assert_eq!(attribution.pools.len(), 1);
    let pool = &attribution.pools[0];
    assert_eq!(pool.pool, "p");
    assert_eq!(pool.dispatches, 1);
    assert_eq!(pool.wall_us, 100);
    assert_eq!(pool.busy_us, 110);
    assert_eq!(pool.max_chunk_us, 70);
    assert!((pool.mean_chunk_us - 55.0).abs() < 1e-9);
    assert!((pool.chunk_skew - 70.0 / 55.0).abs() < 1e-9);
    // Critical path: the busiest worker of the single dispatch.
    assert_eq!(pool.critical_path_us, 70);
    // Efficiency: 110µs busy over 100µs wall × 2 workers.
    assert!((pool.parallel_efficiency - 0.55).abs() < 1e-9);

    assert_eq!(pool.workers.len(), 2);
    assert_eq!(
        (
            pool.workers[0].worker,
            pool.workers[0].chunks,
            pool.workers[0].busy_us
        ),
        (0, 1, 40)
    );
    assert!((pool.workers[0].busy_frac - 0.4).abs() < 1e-9);
    assert!((pool.workers[1].busy_frac - 0.7).abs() < 1e-9);

    let table = attribution.render_table();
    assert!(table.contains("improve"), "{table}");
    assert!(table.contains("pool p: 1 dispatch(es)"), "{table}");
    assert!(table.contains("busy%"), "{table}");
}

#[test]
fn chrome_trace_round_trips_through_validation() {
    let traces = sample_traces();
    let json = alex_telemetry::chrome_trace_json(&traces);
    let check = alex_telemetry::validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("invalid trace: {e}\n{json}"));
    assert_eq!(check.threads, 3);
    assert_eq!(check.events, 8);
    assert_eq!(check.spans, 4);
    assert_eq!(check.dispatch_spans, 1);
    assert_eq!(check.chunk_spans, 2);
    assert_eq!(check.pools, vec!["p".to_string()]);
    // Thread tracks are named from their role.
    assert!(json.contains("\"name\":\"main\""), "{json}");
    assert!(json.contains("\"name\":\"p worker 0\""), "{json}");
    assert!(json.contains("\"name\":\"p worker 1\""), "{json}");
}

#[test]
fn trace_validation_rejects_chunk_outside_dispatch() {
    let mut traces = sample_traces();
    // Worker 1's chunk now ends after the dispatch window closes.
    traces[2].events[1].ts_us = 120;
    let json = alex_telemetry::chrome_trace_json(&traces);
    let err = alex_telemetry::validate_chrome_trace(&json).unwrap_err();
    assert!(err.contains("outside dispatch"), "{err}");
}

#[test]
fn trace_validation_rejects_unbalanced_begins() {
    let traces = vec![ThreadTrace {
        tid: 1,
        events: vec![ev(0, begin_kind("open", "open", None))],
        dropped: 0,
    }];
    let json = alex_telemetry::chrome_trace_json(&traces);
    let err = alex_telemetry::validate_chrome_trace(&json).unwrap_err();
    assert!(err.contains("without matching E"), "{err}");
}

// ------------------------------------------------------------- run reports

#[test]
fn run_report_percentiles_exclude_cached_and_skipped_batches() {
    let mut events: Vec<Event> = (1..=100)
        .map(|i| Event::EndpointBatch {
            endpoint: "e".to_string(),
            slot: 0,
            jobs: 1,
            duration_us: i,
            retries: 0,
            circuit_opens: 0,
            circuit_rejections: 0,
            failures: 0,
            skipped: false,
            cache_hit: false,
            pruned: false,
        })
        .collect();
    // A cache hit and a skip: counted as batches, never as latency samples
    // (their duration is 0 and would drag the percentiles down).
    events.push(Event::EndpointBatch {
        endpoint: "e".to_string(),
        slot: 0,
        jobs: 1,
        duration_us: 0,
        retries: 0,
        circuit_opens: 0,
        circuit_rejections: 0,
        failures: 0,
        skipped: false,
        cache_hit: true,
        pruned: false,
    });
    events.push(Event::EndpointBatch {
        endpoint: "e".to_string(),
        slot: 0,
        jobs: 1,
        duration_us: 0,
        retries: 2,
        circuit_opens: 1,
        circuit_rejections: 3,
        failures: 1,
        skipped: true,
        cache_hit: false,
        pruned: false,
    });

    let mut report = alex_telemetry::RunReport::new();
    report.add_events(&events);
    assert_eq!(report.endpoints.len(), 1);
    let e = &report.endpoints[0];
    assert_eq!(e.batches, 102);
    assert_eq!(e.cache_hits, 1);
    assert_eq!(e.skipped, 1);
    // Nearest-rank percentiles over the exact 1..=100 samples.
    assert_eq!(e.p50_us, 50);
    assert_eq!(e.p95_us, 95);
    assert_eq!(e.p99_us, 99);
    assert_eq!(e.max_us, 100);
    assert_eq!(
        (e.retries, e.circuit_opens, e.circuit_rejections, e.failures),
        (2, 1, 3, 1)
    );
}

#[test]
fn run_report_aggregates_convergence_federation_and_metrics() {
    let events = vec![
        Event::EpisodeEnd {
            episode: 1,
            precision: 0.8,
            recall: 0.5,
            f_measure: 0.6154,
            added: 10,
            removed: 4,
            rollbacks: 1,
            threads: 2,
            duration_us: 1500,
            recovered_from: 0,
            trust_admitted: 0,
            trust_deferred: 0,
            trust_cascades: 0,
            degraded: false,
        },
        Event::EpisodeEnd {
            episode: 2,
            precision: 0.9,
            recall: 0.6,
            f_measure: 0.72,
            added: 6,
            removed: 1,
            rollbacks: 0,
            threads: 2,
            duration_us: 1200,
            recovered_from: 0,
            trust_admitted: 0,
            trust_deferred: 0,
            trust_cascades: 0,
            degraded: false,
        },
        Event::FederatedQuery {
            patterns: 2,
            answers: 7,
            provenance_answers: 3,
            probes: 40,
            pruned_probes: 0,
            bound_join_iterations: 9,
            sameas_expansions: 4,
            retries: 3,
            requests: 8,
            request_probes: 20,
            skipped_sources: 1,
            cache: true,
            cache_hits: 5,
            cache_misses: 5,
            catalog: false,
            threads: 2,
            duration_us: 99,
        },
        Event::ParisIteration {
            iteration: 1,
            matches: 117,
            duration_us: 5000,
        },
        Event::FeedbackApplied {
            left: 1,
            right: 2,
            positive: true,
            window: Some(StepWindow {
                feature: 0,
                start: 3,
                end: 9,
            }),
            added: 4,
            removed: 0,
            blacklisted: 1,
            rolled_back: 0,
        },
        Event::FeedbackApplied {
            left: 5,
            right: 6,
            positive: true,
            window: Some(StepWindow {
                feature: 1,
                start: 0,
                end: 4,
            }),
            added: 1,
            removed: 0,
            blacklisted: 2,
            rolled_back: 0,
        },
    ];
    let mut report = alex_telemetry::RunReport::new();
    report.add_events(&events);
    report.add_metrics_dump("# TYPE alex_links_added_total counter\nalex_links_added_total 16\n");
    report.add_metrics_dump("alex_links_added_total 4\n");

    assert_eq!(report.runs, 1);
    assert_eq!(report.episodes.len(), 2);
    assert_eq!(report.episodes[1].churn, 7);
    assert_eq!(report.federation.queries, 1);
    assert_eq!(report.federation.degraded_queries, 1);
    assert!((report.federation.cache_hit_ratio() - 0.5).abs() < 1e-9);
    assert!((report.federation.completeness() - 0.0).abs() < 1e-9);
    assert!((report.federation.requests_per_query() - 8.0).abs() < 1e-9);
    assert!((report.federation.probes_per_request() - 2.5).abs() < 1e-9);
    assert_eq!(report.paris_iterations, 1);
    assert_eq!(report.paris_final_matches, 117);
    // Blacklist hits are the sum of the steps' `blacklisted` counts.
    assert_eq!(report.blacklist_hits, 3);
    // Metrics dumps accumulate across runs.
    assert_eq!(report.metrics.get("alex_links_added_total"), Some(&20.0));

    let table = report.render_table();
    assert!(
        table.contains("run report: 1 run(s), 2 episode(s)"),
        "{table}"
    );
    assert!(table.contains("precision"), "{table}");
    assert!(table.contains("federation: 1 queries"), "{table}");
    assert!(
        table.contains("8.00 requests per query, 2.50 probes per request"),
        "{table}"
    );
    assert!(
        table.contains("paris: 1 iteration(s), final matches 117"),
        "{table}"
    );
    assert!(table.contains("alex_links_added_total"), "{table}");

    let json = report.to_json();
    let value = alex_telemetry::json::parse_value_str(&json)
        .unwrap_or_else(|e| panic!("report json: {e}\n{json}"));
    let obj = value.as_obj().expect("object");
    for key in ["episodes", "federation", "endpoints", "paris", "metrics"] {
        assert!(obj.contains_key(key), "{key} missing:\n{json}");
    }
}

#[test]
fn detach_stops_emission() {
    let log = EventLog::default();
    let sink = Arc::new(MemorySink::new());
    log.attach(sink.clone());
    log.emit_with(|| Event::EpisodeStart { episode: 1 });
    let detached = log.detach();
    assert!(detached.is_some());
    assert!(!log.is_attached());
    log.emit_with(|| Event::EpisodeStart { episode: 2 });
    assert_eq!(
        sink.events().len(),
        1,
        "events after detach must be dropped"
    );
}
