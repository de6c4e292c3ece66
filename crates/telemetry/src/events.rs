//! Structured JSONL event log.
//!
//! Events are typed, flat records serialized one-per-line as JSON (see
//! [`crate::json`]). Emission goes through [`EventLog::emit_with`], which
//! takes a *closure*: when no sink is attached the closure is never called,
//! so the disabled-path cost is one relaxed atomic load and a branch — no
//! allocation, no formatting.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};

use crate::json::{parse_object, JsonValue, ObjectWriter};

/// One telemetry event. Every variant serializes to a flat JSON object
/// with a `type` discriminator field.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An improvement episode began.
    EpisodeStart {
        /// 1-based episode number.
        episode: u64,
    },
    /// An improvement episode finished.
    EpisodeEnd {
        /// 1-based episode number.
        episode: u64,
        /// Precision against ground truth after the episode.
        precision: f64,
        /// Recall against ground truth after the episode.
        recall: f64,
        /// F-measure after the episode.
        f_measure: f64,
        /// Links added during the episode.
        added: u64,
        /// Links removed during the episode.
        removed: u64,
        /// Rollbacks triggered during the episode.
        rollbacks: u64,
        /// Worker threads configured for the run (parallel pools).
        threads: u64,
        /// Episode wall-clock time in microseconds.
        duration_us: u64,
        /// For a resumed durable run, the episode the state was recovered
        /// from (snapshot + journal tail); 0 for fresh runs.
        recovered_from: u64,
        /// Trust gate: feedback items admitted past the quorum (0 when
        /// trust admission is disabled).
        trust_admitted: u64,
        /// Trust gate: feedback items deferred awaiting quorum.
        trust_deferred: u64,
        /// Trust gate: admissions revoked by cascading rollback.
        trust_cascades: u64,
        /// Whether the episode breached its budget and was marked
        /// degraded by the run supervisor.
        degraded: bool,
    },
    /// One feedback item was applied by the agent.
    FeedbackApplied {
        /// Whether the feedback was positive.
        positive: bool,
        /// Links the step added.
        added: u64,
        /// Links the step removed.
        removed: u64,
    },
    /// The policy chose an exploration action.
    ExplorationAction {
        /// Debug rendering of the chosen action.
        action: String,
    },
    /// A link entered the candidate set.
    LinkAdded {
        /// Left entity id (dense id within its data set).
        left: u64,
        /// Right entity id.
        right: u64,
    },
    /// A link left the candidate set.
    LinkRemoved {
        /// Left entity id.
        left: u64,
        /// Right entity id.
        right: u64,
    },
    /// Exploration proposed a link the blacklist rejected.
    BlacklistHit {
        /// Left entity id.
        left: u64,
        /// Right entity id.
        right: u64,
    },
    /// Negative feedback rolled back generated links.
    Rollback {
        /// Links removed by the rollback.
        removed: u64,
    },
    /// A federated query finished executing.
    FederatedQuery {
        /// Triple patterns in the query.
        patterns: u64,
        /// Total answers produced.
        answers: u64,
        /// Answers that depended on at least one sameAs link.
        provenance_answers: u64,
        /// Per-endpoint source-selection probes issued.
        probes: u64,
        /// Probes proven unnecessary by the endpoint catalog (subset of
        /// `probes`; never dispatched).
        pruned_probes: u64,
        /// Bound-join iterations executed.
        bound_join_iterations: u64,
        /// sameAs alternative expansions attempted.
        sameas_expansions: u64,
        /// Transient endpoint failures that were retried.
        retries: u64,
        /// Requests (round trips) sent to endpoints: one per live
        /// (dispatch, endpoint) batch, plus one per resend after a failure.
        requests: u64,
        /// Probes those requests carried, resends included.
        request_probes: u64,
        /// Sources skipped (down past their budget or circuit open); the
        /// result was degraded when this is nonzero.
        skipped_sources: u64,
        /// Whether the answer cache was enabled for this query.
        cache: bool,
        /// Endpoint probes served from the cache.
        cache_hits: u64,
        /// Endpoint probes that missed and were sent live.
        cache_misses: u64,
        /// Whether a coverage catalog was consulted for source selection.
        catalog: bool,
        /// Required patterns expanded into sameAs-closure unions when the
        /// query was rewritten (0 for plain executions).
        rewrites: u64,
        /// Worker threads configured for endpoint dispatch.
        threads: u64,
        /// Execution wall-clock time in microseconds.
        duration_us: u64,
    },
    /// One endpoint's batch of jobs finished within a federated query
    /// (the unit `alex report` aggregates per-endpoint latency from).
    EndpointBatch {
        /// Endpoint name.
        endpoint: String,
        /// Jobs dispatched to the endpoint in this batch.
        jobs: u64,
        /// Batch wall-clock time in microseconds (0 when skipped).
        duration_us: u64,
        /// Transient failures retried within the batch.
        retries: u64,
        /// Circuit-breaker opens triggered by the batch.
        circuit_opens: u64,
        /// Jobs rejected by an already-open circuit.
        circuit_rejections: u64,
        /// Jobs that exhausted retries and failed.
        failures: u64,
        /// Whether the endpoint was skipped without dispatching (down
        /// past its budget, circuit open, or fail-fast terminal).
        skipped: bool,
        /// Whether the answer cache served every probe of the batch, so
        /// no request was sent.
        cache_hit: bool,
        /// Whether the catalog proved the batch empty on this endpoint
        /// (pruned batches are not failures: completeness is unaffected).
        pruned: bool,
    },
    /// One PARIS probabilistic-matching iteration finished.
    ParisIteration {
        /// 1-based iteration number.
        iteration: u64,
        /// Match pairs above threshold after the iteration.
        matches: u64,
        /// Iteration wall-clock time in microseconds.
        duration_us: u64,
    },
}

impl Event {
    /// The `type` discriminator used in the serialized form.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EpisodeStart { .. } => "episode_start",
            Event::EpisodeEnd { .. } => "episode_end",
            Event::FeedbackApplied { .. } => "feedback_applied",
            Event::ExplorationAction { .. } => "exploration_action",
            Event::LinkAdded { .. } => "link_added",
            Event::LinkRemoved { .. } => "link_removed",
            Event::BlacklistHit { .. } => "blacklist_hit",
            Event::Rollback { .. } => "rollback",
            Event::FederatedQuery { .. } => "federated_query",
            Event::EndpointBatch { .. } => "endpoint_batch",
            Event::ParisIteration { .. } => "paris_iteration",
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("type", self.kind());
        match self {
            Event::EpisodeStart { episode } => {
                w.u64("episode", *episode);
            }
            Event::EpisodeEnd {
                episode,
                precision,
                recall,
                f_measure,
                added,
                removed,
                rollbacks,
                threads,
                duration_us,
                recovered_from,
                trust_admitted,
                trust_deferred,
                trust_cascades,
                degraded,
            } => {
                w.u64("episode", *episode)
                    .f64("precision", *precision)
                    .f64("recall", *recall)
                    .f64("f_measure", *f_measure)
                    .u64("added", *added)
                    .u64("removed", *removed)
                    .u64("rollbacks", *rollbacks)
                    .u64("threads", *threads)
                    .u64("duration_us", *duration_us)
                    .u64("recovered_from", *recovered_from)
                    .u64("trust_admitted", *trust_admitted)
                    .u64("trust_deferred", *trust_deferred)
                    .u64("trust_cascades", *trust_cascades)
                    .bool("degraded", *degraded);
            }
            Event::FeedbackApplied {
                positive,
                added,
                removed,
            } => {
                w.bool("positive", *positive)
                    .u64("added", *added)
                    .u64("removed", *removed);
            }
            Event::ExplorationAction { action } => {
                w.str("action", action);
            }
            Event::LinkAdded { left, right }
            | Event::LinkRemoved { left, right }
            | Event::BlacklistHit { left, right } => {
                w.u64("left", *left).u64("right", *right);
            }
            Event::Rollback { removed } => {
                w.u64("removed", *removed);
            }
            Event::FederatedQuery {
                patterns,
                answers,
                provenance_answers,
                probes,
                pruned_probes,
                bound_join_iterations,
                sameas_expansions,
                retries,
                requests,
                request_probes,
                skipped_sources,
                cache,
                cache_hits,
                cache_misses,
                catalog,
                rewrites,
                threads,
                duration_us,
            } => {
                w.u64("patterns", *patterns)
                    .u64("answers", *answers)
                    .u64("provenance_answers", *provenance_answers)
                    .u64("probes", *probes)
                    .u64("pruned_probes", *pruned_probes)
                    .u64("bound_join_iterations", *bound_join_iterations)
                    .u64("sameas_expansions", *sameas_expansions)
                    .u64("retries", *retries)
                    .u64("requests", *requests)
                    .u64("request_probes", *request_probes)
                    .u64("skipped_sources", *skipped_sources)
                    .bool("cache", *cache)
                    .u64("cache_hits", *cache_hits)
                    .u64("cache_misses", *cache_misses)
                    .bool("catalog", *catalog)
                    .u64("rewrites", *rewrites)
                    .u64("threads", *threads)
                    .u64("duration_us", *duration_us);
            }
            Event::EndpointBatch {
                endpoint,
                jobs,
                duration_us,
                retries,
                circuit_opens,
                circuit_rejections,
                failures,
                skipped,
                cache_hit,
                pruned,
            } => {
                w.str("endpoint", endpoint)
                    .u64("jobs", *jobs)
                    .u64("duration_us", *duration_us)
                    .u64("retries", *retries)
                    .u64("circuit_opens", *circuit_opens)
                    .u64("circuit_rejections", *circuit_rejections)
                    .u64("failures", *failures)
                    .bool("skipped", *skipped)
                    .bool("cache_hit", *cache_hit)
                    .bool("pruned", *pruned);
            }
            Event::ParisIteration {
                iteration,
                matches,
                duration_us,
            } => {
                w.u64("iteration", *iteration)
                    .u64("matches", *matches)
                    .u64("duration_us", *duration_us);
            }
        }
        w.finish()
    }

    /// Parse one JSONL line back into an event (inverse of [`to_json`]).
    ///
    /// [`to_json`]: Event::to_json
    pub fn parse(line: &str) -> Result<Event, String> {
        let map = parse_object(line)?;
        let kind = map
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing \"type\" field".to_string())?;
        let get_u64 = |field: &str| -> Result<u64, String> {
            map.get(field)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{kind}: missing u64 field {field:?}"))
        };
        let get_f64 = |field: &str| -> Result<f64, String> {
            map.get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{kind}: missing f64 field {field:?}"))
        };
        let get_str = |field: &str| -> Result<String, String> {
            map.get(field)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind}: missing string field {field:?}"))
        };
        match kind {
            "episode_start" => Ok(Event::EpisodeStart {
                episode: get_u64("episode")?,
            }),
            "episode_end" => Ok(Event::EpisodeEnd {
                episode: get_u64("episode")?,
                precision: get_f64("precision")?,
                recall: get_f64("recall")?,
                f_measure: get_f64("f_measure")?,
                added: get_u64("added")?,
                removed: get_u64("removed")?,
                rollbacks: get_u64("rollbacks")?,
                threads: get_u64("threads")?,
                duration_us: get_u64("duration_us")?,
                // Absent in logs written before durable runs existed.
                recovered_from: map
                    .get("recovered_from")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                // Absent in logs written before trust admission existed.
                trust_admitted: map
                    .get("trust_admitted")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                trust_deferred: map
                    .get("trust_deferred")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                trust_cascades: map
                    .get("trust_cascades")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                // Absent in logs written before run supervision existed.
                degraded: map
                    .get("degraded")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
            }),
            "feedback_applied" => Ok(Event::FeedbackApplied {
                positive: map
                    .get("positive")
                    .and_then(JsonValue::as_bool)
                    .ok_or("feedback_applied: missing bool field \"positive\"")?,
                added: get_u64("added")?,
                removed: get_u64("removed")?,
            }),
            "exploration_action" => Ok(Event::ExplorationAction {
                action: get_str("action")?,
            }),
            "link_added" => Ok(Event::LinkAdded {
                left: get_u64("left")?,
                right: get_u64("right")?,
            }),
            "link_removed" => Ok(Event::LinkRemoved {
                left: get_u64("left")?,
                right: get_u64("right")?,
            }),
            "blacklist_hit" => Ok(Event::BlacklistHit {
                left: get_u64("left")?,
                right: get_u64("right")?,
            }),
            "rollback" => Ok(Event::Rollback {
                removed: get_u64("removed")?,
            }),
            "federated_query" => Ok(Event::FederatedQuery {
                patterns: get_u64("patterns")?,
                answers: get_u64("answers")?,
                provenance_answers: get_u64("provenance_answers")?,
                probes: get_u64("probes")?,
                // Catalog/rewrite fields postdate the schema; logs written
                // before they existed parse as "no pruning, no rewriting".
                pruned_probes: map
                    .get("pruned_probes")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                bound_join_iterations: get_u64("bound_join_iterations")?,
                sameas_expansions: get_u64("sameas_expansions")?,
                retries: get_u64("retries")?,
                // Request fields postdate the schema; older logs parse as
                // "no requests recorded".
                requests: map.get("requests").and_then(JsonValue::as_u64).unwrap_or(0),
                request_probes: map
                    .get("request_probes")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                skipped_sources: get_u64("skipped_sources")?,
                // Cache fields postdate the schema; logs written before
                // they existed parse as "cache off" rather than erroring.
                cache: map
                    .get("cache")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                cache_hits: map
                    .get("cache_hits")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                cache_misses: map
                    .get("cache_misses")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                catalog: map
                    .get("catalog")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                rewrites: map.get("rewrites").and_then(JsonValue::as_u64).unwrap_or(0),
                threads: get_u64("threads")?,
                duration_us: get_u64("duration_us")?,
            }),
            "endpoint_batch" => Ok(Event::EndpointBatch {
                endpoint: get_str("endpoint")?,
                jobs: get_u64("jobs")?,
                duration_us: get_u64("duration_us")?,
                retries: get_u64("retries")?,
                circuit_opens: get_u64("circuit_opens")?,
                circuit_rejections: get_u64("circuit_rejections")?,
                failures: get_u64("failures")?,
                skipped: map
                    .get("skipped")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                cache_hit: map
                    .get("cache_hit")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                pruned: map
                    .get("pruned")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
            }),
            "paris_iteration" => Ok(Event::ParisIteration {
                iteration: get_u64("iteration")?,
                matches: get_u64("matches")?,
                duration_us: get_u64("duration_us")?,
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// Receiver for emitted events.
pub trait EventSink: Send + Sync {
    /// Handle one event.
    fn emit(&self, event: &Event);
    /// Flush any buffered output (best effort).
    fn flush(&self) {}
}

/// Sink appending events as JSON lines to a file.
pub struct JsonlFileSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlFileSink {
    /// Create (truncate) `path` and return a sink writing to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlFileSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl EventSink for JsonlFileSink {
    fn emit(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        // Telemetry must never take the pipeline down; drop on I/O error.
        let _ = writer.write_all(line.as_bytes());
    }

    fn flush(&self) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.flush();
        }
    }
}

/// In-memory sink for tests.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of everything emitted so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// The event log: an optional sink behind an `attached` fast-path flag.
#[derive(Default)]
pub struct EventLog {
    attached: AtomicBool,
    sink: RwLock<Option<std::sync::Arc<dyn EventSink>>>,
}

impl EventLog {
    /// Attach a sink (replacing any existing one, which is flushed).
    pub fn attach(&self, sink: std::sync::Arc<dyn EventSink>) {
        let mut slot = self.sink.write().expect("event log poisoned");
        if let Some(old) = slot.take() {
            old.flush();
        }
        *slot = Some(sink);
        self.attached.store(true, Ordering::Release);
    }

    /// Detach the sink, flushing it first. Returns it if one was attached.
    pub fn detach(&self) -> Option<std::sync::Arc<dyn EventSink>> {
        let mut slot = self.sink.write().expect("event log poisoned");
        self.attached.store(false, Ordering::Release);
        let old = slot.take();
        if let Some(sink) = &old {
            sink.flush();
        }
        old
    }

    /// Whether a sink is currently attached (one relaxed load).
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.attached.load(Ordering::Relaxed)
    }

    /// Emit the event built by `build` — but only if a sink is attached.
    /// With no sink this is a relaxed load and a branch; `build` never runs.
    #[inline]
    pub fn emit_with<F: FnOnce() -> Event>(&self, build: F) {
        if !self.is_attached() {
            return;
        }
        self.emit_slow(build());
    }

    #[cold]
    fn emit_slow(&self, event: Event) {
        if let Some(sink) = self.sink.read().expect("event log poisoned").as_ref() {
            sink.emit(&event);
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = self.sink.read().expect("event log poisoned").as_ref() {
            sink.flush();
        }
    }
}
