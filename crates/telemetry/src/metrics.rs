//! Global metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms, exportable as Prometheus text format or JSON.
//!
//! Handles are `Arc`s onto plain atomics, so the hot path touches only a
//! relaxed `fetch_add` — registration (name lookup under a mutex) happens
//! once per call site via the [`counter!`](crate::counter) /
//! [`histogram!`](crate::histogram) macros, which cache the handle in a
//! `OnceLock`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::ObjectWriter;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram with fixed, caller-supplied bucket upper bounds.
///
/// Observations land in the first bucket whose upper bound is `>=` the
/// value; values above the last bound land in the implicit `+Inf` bucket.
/// Percentiles are estimated by linear interpolation inside the bucket
/// containing the target rank.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<f64>,
    /// One per bound plus the `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    /// Sum of observations, stored as f64 bits.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// Default bucket bounds for durations in seconds: 1µs … 10s, roughly
/// quadrupling.
pub const DURATION_BUCKETS: &[f64] = &[
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1e-3, 4e-3, 1.6e-2, 6.4e-2, 0.25, 1.0, 4.0, 10.0,
];

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop to accumulate the f64 sum without a lock.
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `p`-th percentile (`0.0..=100.0`).
    ///
    /// Interpolates linearly within the bucket containing the target rank
    /// `p/100 · count`. The first bucket's lower edge is 0; observations in
    /// the `+Inf` bucket are clamped to the last finite bound.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (p / 100.0).clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = match self.bounds.get(i) {
                    Some(&b) => b,
                    // +Inf bucket: clamp to the last finite bound.
                    None => return *self.bounds.last().expect("non-empty bounds"),
                };
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
            cum += c;
        }
        *self.bounds.last().expect("non-empty bounds")
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }
}

/// Metric name plus labels, used as the registry key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The registry: a name→metric map guarded by a mutex. Lookups happen at
/// handle-registration time only; updates go straight to the atomics.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// Get or create the counter `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with_labels(name, &[])
    }

    /// Get or create a labeled counter.
    ///
    /// Panics if `name` with these labels is already registered as a
    /// different metric type.
    pub fn counter_with_labels(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let key = MetricKey::new(name, &[]);
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create the histogram `name` with the given bucket bounds.
    /// Bounds are fixed by the first registration; later callers get the
    /// existing histogram regardless of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let key = MetricKey::new(name, &[]);
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Render every metric in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_typed: Option<(String, &str)> = None;
        for (key, metric) in metrics.iter() {
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            // One TYPE line per metric family, even with many label sets.
            if last_typed.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((key.name.as_str(), kind))
            {
                let _ = writeln!(out, "# TYPE {} {kind}", key.name);
                last_typed = Some((key.name.clone(), kind));
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_series(&key.name, &key.labels, None),
                        c.get()
                    );
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_series(&key.name, &key.labels, None),
                        g.get()
                    );
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        cum += bucket.load(Ordering::Relaxed);
                        let le = match h.bounds.get(i) {
                            Some(b) => format_f64(*b),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{} {cum}",
                            render_series(&format!("{}_bucket", key.name), &key.labels, Some(&le)),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_series(&format!("{}_sum", key.name), &key.labels, None),
                        format_f64(h.sum()),
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        render_series(&format!("{}_count", key.name), &key.labels, None),
                        h.count(),
                    );
                }
            }
        }
        out
    }

    /// Render every metric as a JSON array of flat objects.
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = String::from("[");
        for (i, (key, metric)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut w = ObjectWriter::new();
            w.str("name", &key.name);
            for (k, v) in &key.labels {
                w.str(&format!("label_{k}"), v);
            }
            match metric {
                Metric::Counter(c) => {
                    w.str("type", "counter").u64("value", c.get());
                }
                Metric::Gauge(g) => {
                    w.str("type", "gauge");
                    let v = g.get();
                    if v >= 0 {
                        w.u64("value", v as u64);
                    } else {
                        w.f64("value", v as f64);
                    }
                }
                Metric::Histogram(h) => {
                    w.str("type", "histogram")
                        .u64("count", h.count())
                        .f64("sum", h.sum())
                        .f64("p50", h.p50())
                        .f64("p95", h.p95())
                        .f64("p99", h.p99());
                }
            }
            out.push_str(&w.finish());
        }
        out.push(']');
        out
    }
}

/// Render `name{labels...}` with Prometheus label-value escaping; `le`
/// (for histogram buckets) is appended after the user labels.
fn render_series(name: &str, labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(v, &mut out);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Prometheus-style float formatting (Rust's shortest round-trip display).
fn format_f64(v: f64) -> String {
    format!("{v}")
}
