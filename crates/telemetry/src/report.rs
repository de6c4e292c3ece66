//! Run reports: aggregate JSONL event logs (and optional metrics dumps)
//! from one or more runs into a convergence / latency / completeness
//! summary — the `alex report` subcommand.
//!
//! The report answers the questions the raw logs only contain implicitly:
//! did F-measure converge across episodes and at what link churn; what
//! fraction of federated batches the cache absorbed; what each endpoint's
//! latency distribution (p50/p95/p99) looked like and how often retries,
//! circuit breakers, and skips degraded completeness.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::events::Event;
use crate::json::{escape_into, ObjectWriter};

/// One episode's row in the convergence curve.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRow {
    /// 0-based index of the log the row came from.
    pub run: usize,
    /// 1-based episode number within the run.
    pub episode: u64,
    /// Precision after the episode.
    pub precision: f64,
    /// Recall after the episode.
    pub recall: f64,
    /// F-measure after the episode.
    pub f_measure: f64,
    /// Links added during the episode.
    pub added: u64,
    /// Links removed during the episode.
    pub removed: u64,
    /// Link churn: added + removed.
    pub churn: u64,
    /// Rollbacks during the episode.
    pub rollbacks: u64,
    /// Episode wall time in microseconds.
    pub duration_us: u64,
}

/// Aggregated federated-query behaviour across all runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FederationSummary {
    /// Federated queries executed.
    pub queries: u64,
    /// Total answers produced.
    pub answers: u64,
    /// Answers that depended on at least one sameAs link.
    pub provenance_answers: u64,
    /// Source-selection probes issued.
    pub probes: u64,
    /// Transient failures retried.
    pub retries: u64,
    /// Requests (round trips) sent to endpoints.
    pub requests: u64,
    /// Probes those requests carried.
    pub request_probes: u64,
    /// Queries with at least one skipped source (degraded results).
    pub degraded_queries: u64,
    /// Total sources skipped.
    pub skipped_sources: u64,
    /// Endpoint probes served from the answer cache.
    pub cache_hits: u64,
    /// Endpoint probes that missed the cache and were sent live.
    pub cache_misses: u64,
}

impl FederationSummary {
    /// Probe hit ratio of the answer cache over hits + misses (0 when the
    /// cache never ran).
    pub fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Endpoint requests per federated query (0 without queries).
    pub fn requests_per_query(&self) -> f64 {
        ratio(self.requests, self.queries)
    }

    /// Probes carried per endpoint request (0 without requests).
    pub fn probes_per_request(&self) -> f64 {
        ratio(self.request_probes, self.requests)
    }

    /// Fraction of queries with no skipped sources.
    pub fn completeness(&self) -> f64 {
        if self.queries > 0 {
            (self.queries - self.degraded_queries) as f64 / self.queries as f64
        } else {
            1.0
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

/// Per-endpoint latency and resilience summary.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSummary {
    /// Endpoint name.
    pub endpoint: String,
    /// The endpoint's registration index in its engine (0 in logs that
    /// predate it), which tells apart endpoints sharing a name.
    pub slot: u64,
    /// Batches observed (dispatched + cached + skipped).
    pub batches: u64,
    /// Batches served from the answer cache.
    pub cache_hits: u64,
    /// Batches skipped without dispatch.
    pub skipped: u64,
    /// Latency percentiles over live-dispatched batches, microseconds
    /// (nearest-rank on exact samples); zeros when nothing dispatched.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest live batch.
    pub max_us: u64,
    /// Retries within this endpoint's batches.
    pub retries: u64,
    /// Circuit-breaker opens.
    pub circuit_opens: u64,
    /// Jobs rejected by an open circuit.
    pub circuit_rejections: u64,
    /// Jobs that exhausted retries.
    pub failures: u64,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct EndpointAgg {
    batches: u64,
    cache_hits: u64,
    skipped: u64,
    samples_us: Vec<u64>,
    retries: u64,
    circuit_opens: u64,
    circuit_rejections: u64,
    failures: u64,
}

/// Nearest-rank percentile over *sorted* samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The aggregated run report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Logs aggregated so far.
    pub runs: usize,
    /// Convergence curve rows, in (run, episode) order.
    pub episodes: Vec<EpisodeRow>,
    /// Federation aggregate.
    pub federation: FederationSummary,
    /// Per-endpoint summaries, sorted by name, then slot.
    pub endpoints: Vec<EndpointSummary>,
    /// PARIS iterations observed.
    pub paris_iterations: u64,
    /// Match pairs after the last PARIS iteration seen.
    pub paris_final_matches: u64,
    /// Blacklist rejections: window links the blacklist kept out, summed
    /// over the `feedback_applied` records.
    pub blacklist_hits: u64,
    /// Metrics-dump values keyed by `name{labels}` (empty unless
    /// [`add_metrics_dump`](RunReport::add_metrics_dump) was called).
    pub metrics: BTreeMap<String, f64>,

    endpoint_aggs: BTreeMap<(String, u64), EndpointAgg>,
}

impl RunReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one run's parsed event log into the report.
    pub fn add_events(&mut self, events: &[Event]) {
        let run = self.runs;
        self.runs += 1;
        for event in events {
            match event {
                Event::EpisodeEnd {
                    episode,
                    precision,
                    recall,
                    f_measure,
                    added,
                    removed,
                    rollbacks,
                    duration_us,
                    ..
                } => self.episodes.push(EpisodeRow {
                    run,
                    episode: *episode,
                    precision: *precision,
                    recall: *recall,
                    f_measure: *f_measure,
                    added: *added,
                    removed: *removed,
                    churn: added + removed,
                    rollbacks: *rollbacks,
                    duration_us: *duration_us,
                }),
                Event::FederatedQuery {
                    answers,
                    provenance_answers,
                    probes,
                    retries,
                    requests,
                    request_probes,
                    skipped_sources,
                    cache_hits,
                    cache_misses,
                    ..
                } => {
                    let f = &mut self.federation;
                    f.queries += 1;
                    f.answers += answers;
                    f.provenance_answers += provenance_answers;
                    f.probes += probes;
                    f.retries += retries;
                    f.requests += requests;
                    f.request_probes += request_probes;
                    f.skipped_sources += skipped_sources;
                    if *skipped_sources > 0 {
                        f.degraded_queries += 1;
                    }
                    f.cache_hits += cache_hits;
                    f.cache_misses += cache_misses;
                }
                Event::EndpointBatch {
                    endpoint,
                    slot,
                    duration_us,
                    retries,
                    circuit_opens,
                    circuit_rejections,
                    failures,
                    skipped,
                    cache_hit,
                    ..
                } => {
                    let key = (endpoint.clone(), *slot);
                    let agg = self.endpoint_aggs.entry(key).or_default();
                    agg.batches += 1;
                    agg.retries += retries;
                    agg.circuit_opens += circuit_opens;
                    agg.circuit_rejections += circuit_rejections;
                    agg.failures += failures;
                    if *cache_hit {
                        agg.cache_hits += 1;
                    } else if *skipped {
                        agg.skipped += 1;
                    } else {
                        agg.samples_us.push(*duration_us);
                    }
                }
                Event::ParisIteration { matches, .. } => {
                    self.paris_iterations += 1;
                    self.paris_final_matches = *matches;
                }
                Event::FeedbackApplied { blacklisted, .. } => self.blacklist_hits += blacklisted,
                _ => {}
            }
        }
        self.rebuild_endpoints();
    }

    /// Merge a Prometheus text-format metrics dump: every non-comment
    /// `name{labels} value` line becomes a `metrics` entry.
    pub fn add_metrics_dump(&mut self, prom: &str) {
        for line in prom.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(split) = line.rfind(' ') {
                let (name, value) = line.split_at(split);
                if let Ok(v) = value.trim().parse::<f64>() {
                    *self.metrics.entry(name.trim().to_string()).or_insert(0.0) += v;
                }
            }
        }
    }

    fn rebuild_endpoints(&mut self) {
        self.endpoints = self
            .endpoint_aggs
            .iter_mut()
            .map(|((name, slot), agg)| {
                agg.samples_us.sort_unstable();
                EndpointSummary {
                    endpoint: name.clone(),
                    slot: *slot,
                    batches: agg.batches,
                    cache_hits: agg.cache_hits,
                    skipped: agg.skipped,
                    p50_us: percentile(&agg.samples_us, 50.0),
                    p95_us: percentile(&agg.samples_us, 95.0),
                    p99_us: percentile(&agg.samples_us, 99.0),
                    max_us: agg.samples_us.last().copied().unwrap_or(0),
                    retries: agg.retries,
                    circuit_opens: agg.circuit_opens,
                    circuit_rejections: agg.circuit_rejections,
                    failures: agg.failures,
                }
            })
            .collect();
    }

    /// Serialize the report as a JSON object.
    pub fn to_json(&self) -> String {
        let episodes: Vec<String> = self
            .episodes
            .iter()
            .map(|e| {
                let mut w = ObjectWriter::new();
                w.u64("run", e.run as u64)
                    .u64("episode", e.episode)
                    .f64("precision", e.precision)
                    .f64("recall", e.recall)
                    .f64("f_measure", e.f_measure)
                    .u64("added", e.added)
                    .u64("removed", e.removed)
                    .u64("churn", e.churn)
                    .u64("rollbacks", e.rollbacks)
                    .u64("duration_us", e.duration_us);
                w.finish()
            })
            .collect();
        let endpoints: Vec<String> = self
            .endpoints
            .iter()
            .map(|e| {
                let mut w = ObjectWriter::new();
                w.str("endpoint", &e.endpoint)
                    .u64("slot", e.slot)
                    .u64("batches", e.batches)
                    .u64("cache_hits", e.cache_hits)
                    .u64("skipped", e.skipped)
                    .u64("p50_us", e.p50_us)
                    .u64("p95_us", e.p95_us)
                    .u64("p99_us", e.p99_us)
                    .u64("max_us", e.max_us)
                    .u64("retries", e.retries)
                    .u64("circuit_opens", e.circuit_opens)
                    .u64("circuit_rejections", e.circuit_rejections)
                    .u64("failures", e.failures);
                w.finish()
            })
            .collect();
        let mut fed = ObjectWriter::new();
        fed.u64("queries", self.federation.queries)
            .u64("answers", self.federation.answers)
            .u64("provenance_answers", self.federation.provenance_answers)
            .u64("probes", self.federation.probes)
            .u64("retries", self.federation.retries)
            .u64("degraded_queries", self.federation.degraded_queries)
            .u64("skipped_sources", self.federation.skipped_sources)
            .u64("cache_hits", self.federation.cache_hits)
            .u64("cache_misses", self.federation.cache_misses)
            .f64("cache_hit_ratio", self.federation.cache_hit_ratio())
            .u64("requests", self.federation.requests)
            .f64("requests_per_query", self.federation.requests_per_query())
            .f64("probes_per_request", self.federation.probes_per_request())
            .f64("completeness", self.federation.completeness());
        let mut metrics = String::from("{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            metrics.push('"');
            escape_into(name, &mut metrics);
            metrics.push_str("\":");
            let _ = write!(metrics, "{value}");
        }
        metrics.push('}');
        let mut paris = ObjectWriter::new();
        paris
            .u64("iterations", self.paris_iterations)
            .u64("final_matches", self.paris_final_matches);
        let mut w = ObjectWriter::new();
        w.u64("runs", self.runs as u64)
            .raw("episodes", &format!("[{}]", episodes.join(",")))
            .raw("federation", &fed.finish())
            .raw("endpoints", &format!("[{}]", endpoints.join(",")))
            .raw("paris", &paris.finish())
            .u64("blacklist_hits", self.blacklist_hits)
            .raw("metrics", &metrics);
        w.finish()
    }

    /// Render the aligned text-table form of the report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report: {} run(s), {} episode(s)",
            self.runs,
            self.episodes.len()
        );

        if !self.episodes.is_empty() {
            let _ = writeln!(
                out,
                "\n{:>3}  {:>4}  {:>9}  {:>7}  {:>7}  {:>7}  {:>7}  {:>6}  {:>9}  {:>10}",
                "run",
                "ep",
                "precision",
                "recall",
                "F",
                "added",
                "removed",
                "churn",
                "rollbacks",
                "duration"
            );
            for e in &self.episodes {
                let _ = writeln!(
                    out,
                    "{:>3}  {:>4}  {:>9.4}  {:>7.4}  {:>7.4}  {:>7}  {:>7}  {:>6}  {:>9}  {:>9.2}ms",
                    e.run,
                    e.episode,
                    e.precision,
                    e.recall,
                    e.f_measure,
                    e.added,
                    e.removed,
                    e.churn,
                    e.rollbacks,
                    e.duration_us as f64 / 1_000.0
                );
            }
        }

        let f = &self.federation;
        if f.queries > 0 {
            let _ = writeln!(
                out,
                "\nfederation: {} queries, {} answers ({} via sameAs), {} probes, \
                 {} retries, {} degraded ({} sources skipped), completeness {:.1}%, \
                 probe hit ratio {:.1}% ({}/{}), {:.2} requests per query, \
                 {:.2} probes per request",
                f.queries,
                f.answers,
                f.provenance_answers,
                f.probes,
                f.retries,
                f.degraded_queries,
                f.skipped_sources,
                f.completeness() * 100.0,
                f.cache_hit_ratio() * 100.0,
                f.cache_hits,
                f.cache_hits + f.cache_misses,
                f.requests_per_query(),
                f.probes_per_request(),
            );
        }

        if !self.endpoints.is_empty() {
            // A name two endpoints share is labelled `name#slot`.
            let labels: Vec<String> = self
                .endpoints
                .iter()
                .map(|e| {
                    let shared = self
                        .endpoints
                        .iter()
                        .any(|o| o.endpoint == e.endpoint && o.slot != e.slot);
                    if shared {
                        format!("{}#{}", e.endpoint, e.slot)
                    } else {
                        e.endpoint.clone()
                    }
                })
                .collect();
            let width = labels
                .iter()
                .map(String::len)
                .max()
                .unwrap_or(8)
                .max("endpoint".len());
            let _ = writeln!(
                out,
                "\n{:<width$}  {:>7}  {:>6}  {:>7}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7}  {:>5}  {:>7}  {:>8}",
                "endpoint", "batches", "cached", "skipped", "p50", "p95", "p99", "max", "retries",
                "opens", "rejects", "failures"
            );
            for (e, label) in self.endpoints.iter().zip(&labels) {
                let ms = |us: u64| format!("{:.2}ms", us as f64 / 1_000.0);
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>7}  {:>6}  {:>7}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7}  {:>5}  {:>7}  {:>8}",
                    label,
                    e.batches,
                    e.cache_hits,
                    e.skipped,
                    ms(e.p50_us),
                    ms(e.p95_us),
                    ms(e.p99_us),
                    ms(e.max_us),
                    e.retries,
                    e.circuit_opens,
                    e.circuit_rejections,
                    e.failures,
                );
            }
        }

        if self.paris_iterations > 0 {
            let _ = writeln!(
                out,
                "\nparis: {} iteration(s), final matches {}",
                self.paris_iterations, self.paris_final_matches
            );
        }
        if self.blacklist_hits > 0 {
            let _ = writeln!(out, "blacklist hits: {}", self.blacklist_hits);
        }

        if !self.metrics.is_empty() {
            let width = self
                .metrics
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(6)
                .max("metric".len());
            let _ = writeln!(out, "\n{:<width$}  {:>14}", "metric", "value");
            for (name, value) in &self.metrics {
                let _ = writeln!(out, "{name:<width$}  {value:>14}");
            }
        }
        out
    }
}
