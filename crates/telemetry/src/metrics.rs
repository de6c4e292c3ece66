//! Global metrics registry: atomic counters, exportable as Prometheus
//! text format.
//!
//! Handles are `Arc`s onto plain atomics, so the hot path touches only a
//! relaxed `fetch_add` — registration (name lookup under a mutex) happens
//! once per call site via the [`counter!`](crate::counter) macro, which
//! caches the handle in a `OnceLock`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// The registry: a name→counter map guarded by a mutex. Lookups happen at
/// handle-registration time only; updates go straight to the atomics.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
}

impl MetricsRegistry {
    /// Get or create the counter `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with_labels(name, &[])
    }

    /// Get or create a labeled counter.
    pub fn counter_with_labels(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut counters = self.counters.lock().expect("metrics registry poisoned");
        Arc::clone(counters.entry(key).or_default())
    }

    /// Render every counter in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let counters = self.counters.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_typed: Option<&str> = None;
        for (key, counter) in counters.iter() {
            // One TYPE line per metric family, even with many label sets.
            if last_typed != Some(key.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} counter", key.name);
                last_typed = Some(&key.name);
            }
            let _ = writeln!(
                out,
                "{} {}",
                render_series(&key.name, &key.labels),
                counter.get()
            );
        }
        out
    }
}

/// Render `name{labels...}` with Prometheus label-value escaping.
fn render_series(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(v, &mut out);
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
