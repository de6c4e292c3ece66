//! `alex-telemetry`: zero-dependency observability for the ALEX pipeline.
//!
//! Three pillars, all reachable through the process-wide [`global`]
//! instance:
//!
//! * **Spans** ([`spans`]) — RAII wall-clock timers that nest per thread
//!   and aggregate by slash-joined path (`improve/episode/feedback`).
//! * **Metrics** ([`metrics`]) — atomic counters, plain or labelled,
//!   exportable as Prometheus text.
//! * **Events** ([`events`]) — a typed, structured JSONL event log behind
//!   an opt-in sink.
//!
//! Plus the profiling layer built on top of spans:
//!
//! * **Timeline** ([`timeline`]) — an opt-in lock-free per-thread recorder
//!   of span begin/end + instant events, which [`trace`] exports as Chrome
//!   trace-event JSON (Perfetto-loadable) and [`attribution`] reduces to
//!   per-phase self time, per-worker busy/idle, chunk skew, and a
//!   critical-path estimate.
//! * **Reports** ([`report`]) — aggregation of JSONL event logs + metrics
//!   dumps into a convergence / latency / completeness run report.
//!
//! # Cost model when disabled
//!
//! The library is built to be left compiled-in:
//!
//! * An un-sinked [`EventLog::emit_with`](events::EventLog::emit_with) is
//!   one relaxed atomic load plus a branch; the event-building closure is
//!   never invoked, so nothing allocates or formats.
//! * A counter increment is one relaxed `fetch_add`; the name lookup is
//!   paid once per call site via the [`counter!`] macro's `OnceLock`.
//! * Spans cost two `Instant::now` calls plus one short mutex-guarded map
//!   update on drop — they are placed at episode/phase granularity, never
//!   inside per-item loops.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod events;
pub mod json;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod timeline;
pub mod trace;

pub use attribution::{attribute, Attribution};
pub use events::{Event, EventLog, EventSink, JsonlFileSink, MemorySink, StepWindow};
pub use metrics::{Counter, MetricsRegistry};
pub use report::RunReport;
pub use spans::{span, ContextGuard, SpanContext, SpanGuard, SpanRegistry, SpanStats};
pub use trace::{chrome_trace_json, validate_chrome_trace, write_chrome_trace};

use std::sync::OnceLock;

/// The three registries bundled as the process-wide telemetry instance.
pub struct Telemetry {
    spans: SpanRegistry,
    metrics: MetricsRegistry,
    events: EventLog,
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            spans: SpanRegistry::default(),
            metrics: MetricsRegistry::default(),
            events: EventLog::default(),
        }
    }

    /// The span registry.
    pub fn spans(&self) -> &SpanRegistry {
        &self.spans
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }
}

/// The process-wide telemetry instance.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Emit an event lazily: the expression is evaluated only when a sink is
/// attached. Shorthand for `global().events().emit_with(|| ...)`.
#[macro_export]
macro_rules! emit {
    ($event:expr) => {
        $crate::global().events().emit_with(|| $event)
    };
}

/// A cached handle to the global counter `$name`. The registry lookup runs
/// once per call site; afterwards this is a `OnceLock` load.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().metrics().counter($name))
    }};
}
