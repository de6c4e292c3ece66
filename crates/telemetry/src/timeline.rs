//! Lock-free per-thread timeline recorder.
//!
//! The timeline is the raw material for the Chrome-trace exporter
//! ([`crate::trace`]) and the worker-attribution pass
//! ([`crate::attribution`]): a time-ordered log of span begin/end and
//! instant events per thread, with pool worker chunks labelled
//! `{pool, worker, chunk}` so parallel work can be attributed back to the
//! caller that dispatched it.
//!
//! # Cost model
//!
//! * **Disabled** (the default): every recording entry point first calls
//!   [`enabled`], which is a single relaxed atomic load — nothing else
//!   runs. This is the property the bench guard
//!   (`crates/bench/tests/telemetry_overhead.rs`) holds under 2%.
//! * **Enabled**: recording appends to a *thread-local* bounded buffer —
//!   no lock, no atomic RMW, no cross-thread traffic. A thread's buffer is
//!   handed to the global collector exactly once: at thread exit, on an
//!   explicit [`flush_current_thread`] (scoped pool workers flush before
//!   their scope joins — the scope unblocks before TLS destructors run),
//!   or when [`drain`] flushes the calling thread. The only mutex in the
//!   system is touched once per thread lifetime rather than per event.
//!
//! # Bounded buffers and balance
//!
//! Each thread's buffer holds at most [`DEFAULT_CAPACITY`] events (see
//! [`set_capacity`]). Admission reserves a slot for the matching `End` of
//! every admitted `Begin`, so a full buffer drops whole spans (begin *and*
//! end) and instants — never just one half of a pair. Exported traces therefore always have balanced
//! B/E events per thread, which the CI trace-schema check asserts.
//! Dropped events are counted per thread and globally ([`dropped_total`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread event capacity.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
/// Monotonic thread ids, assigned on a thread's first recorded event.
/// Starts at 1 so the first recording thread (normally main) is tid 1.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Dispatch sequence numbers, shared by all pools so a (pool, seq) pair
/// uniquely names one dispatch.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// The process-wide time origin for timeline timestamps, fixed at the
/// first [`enable`] call.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn finished() -> &'static Mutex<Vec<ThreadTrace>> {
    static FINISHED: OnceLock<Mutex<Vec<ThreadTrace>>> = OnceLock::new();
    FINISHED.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Whether the recorder is on. One relaxed atomic load — the entire cost
/// of every disabled recording call.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on (fixing the timestamp epoch on first use).
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the recorder off. Already-recorded events stay buffered until
/// [`drain`]; spans that began while enabled still record their end.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Set the per-thread buffer capacity (floored at 8). Affects buffers
/// created after the call; intended for tests exercising the bound.
pub fn set_capacity(n: usize) {
    CAPACITY.store(n.max(8), Ordering::SeqCst);
}

/// Microseconds since the recorder epoch.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Total events dropped by full buffers, across all threads so far.
pub fn dropped_total() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Fresh dispatch sequence number (unique per pool dispatch).
pub fn next_seq() -> u64 {
    NEXT_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// What a pool-labelled span represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolRole {
    /// The caller-side span covering one whole pool dispatch.
    Dispatch {
        /// Chunks the dispatch was split into.
        chunks: u32,
        /// Worker threads the dispatch ran on.
        workers: u32,
    },
    /// One chunk executed by one worker.
    Chunk {
        /// Worker index within the dispatch (0-based).
        worker: u32,
        /// Chunk index within the dispatch (0-based).
        chunk: u32,
        /// Items in the chunk.
        items: u32,
    },
}

/// Labels attached to pool dispatch/chunk spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolLabels {
    /// Pool name (`paris`, `space_build`, `federation`, ...).
    pub pool: &'static str,
    /// Dispatch sequence number tying chunks to their dispatch.
    pub seq: u64,
    /// Dispatch- or chunk-level detail.
    pub role: PoolRole,
}

/// The kind half of one timeline event.
#[derive(Debug, Clone)]
pub enum TimelineKind {
    /// A span opened. `path` is the full slash-joined span path; `pool`
    /// labels pool dispatch/chunk spans.
    Begin {
        /// Leaf span name.
        name: &'static str,
        /// Full slash-joined path.
        path: Arc<str>,
        /// Pool labels for dispatch/chunk spans; `None` for plain spans.
        pool: Option<Box<PoolLabels>>,
    },
    /// The innermost open span on this thread closed.
    End,
    /// A point event.
    Instant {
        /// Event name.
        name: &'static str,
    },
}

/// One recorded event: a timestamp (µs since the recorder epoch) plus kind.
#[derive(Debug, Clone)]
pub struct TimelineEvent {
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Begin/End/Instant payload.
    pub kind: TimelineKind,
}

/// Everything one thread recorded: events in chronological order plus the
/// count of events its full buffer dropped.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Recorder-assigned thread id (1-based, in first-event order).
    pub tid: u64,
    /// Events in record order (chronological within the thread).
    pub events: Vec<TimelineEvent>,
    /// Events rejected because the buffer was full.
    pub dropped: u64,
}

struct LocalBuf {
    tid: u64,
    events: Vec<TimelineEvent>,
    /// Begins whose reserved End slot is still pending.
    open: usize,
    dropped: u64,
}

impl LocalBuf {
    fn flush_into_global(&mut self) {
        if self.events.is_empty() && self.dropped == 0 {
            return;
        }
        let batch = ThreadTrace {
            tid: self.tid,
            events: std::mem::take(&mut self.events),
            dropped: std::mem::take(&mut self.dropped),
        };
        lock_unpoisoned(finished()).push(batch);
    }
}

/// Thread-local holder whose drop hands the buffer to the global
/// collector — this is how scoped worker threads' events survive the end
/// of their `thread::scope`.
struct Local {
    buf: RefCell<Option<LocalBuf>>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.borrow_mut().as_mut() {
            buf.flush_into_global();
        }
    }
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            buf: RefCell::new(None),
        }
    };
}

fn with_buf<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> Option<R> {
    LOCAL
        .try_with(|local| {
            let mut slot = local.buf.borrow_mut();
            let buf = slot.get_or_insert_with(|| LocalBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Vec::new(),
                open: 0,
                dropped: 0,
            });
            f(buf)
        })
        .ok()
}

/// Record a span begin. Returns whether the event was admitted; the caller
/// must record the matching [`end`] **iff** this returned `true`, which
/// keeps per-thread B/E events balanced even under buffer pressure.
pub fn begin(name: &'static str, path: &Arc<str>, pool: Option<PoolLabels>) -> bool {
    if !enabled() {
        return false;
    }
    let ts_us = now_us();
    with_buf(|buf| {
        let cap = CAPACITY.load(Ordering::Relaxed);
        // Admit only if this begin AND the pending ends (including ours)
        // all still fit: cap - len stays >= open.
        if buf.events.len() + buf.open + 2 <= cap {
            buf.events.push(TimelineEvent {
                ts_us,
                kind: TimelineKind::Begin {
                    name,
                    path: path.clone(),
                    pool: pool.map(Box::new),
                },
            });
            buf.open += 1;
            true
        } else {
            buf.dropped += 1;
            DROPPED.fetch_add(1, Ordering::Relaxed);
            false
        }
    })
    .unwrap_or(false)
}

/// Record the end of the innermost admitted begin. `began` is the value
/// the matching [`begin`] returned; a `false` begin records nothing.
/// Always admitted when `began` is true — the begin reserved the slot —
/// and recorded even if the recorder was disabled mid-span, so traces
/// stay balanced.
pub fn end(began: bool) {
    if !began {
        return;
    }
    let ts_us = now_us();
    with_buf(|buf| {
        buf.events.push(TimelineEvent {
            ts_us,
            kind: TimelineKind::End,
        });
        buf.open = buf.open.saturating_sub(1);
    });
}

/// Record a point event.
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let ts_us = now_us();
    with_buf(|buf| {
        let cap = CAPACITY.load(Ordering::Relaxed);
        if buf.events.len() + buf.open < cap {
            buf.events.push(TimelineEvent {
                ts_us,
                kind: TimelineKind::Instant { name },
            });
        } else {
            buf.dropped += 1;
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Flush the calling thread's buffer into the global collector (worker
/// threads flush automatically on exit).
pub fn flush_current_thread() {
    with_buf(LocalBuf::flush_into_global);
}

/// Collect everything recorded so far: flushes the calling thread, then
/// takes all finished buffers, merged per thread id and sorted by id.
/// Buffers of *other* still-running threads are not visible — callers
/// drain after their worker scopes have joined.
pub fn drain() -> Vec<ThreadTrace> {
    flush_current_thread();
    let batches: Vec<ThreadTrace> = std::mem::take(&mut *lock_unpoisoned(finished()));
    let mut merged: std::collections::BTreeMap<u64, ThreadTrace> =
        std::collections::BTreeMap::new();
    for batch in batches {
        let entry = merged.entry(batch.tid).or_insert_with(|| ThreadTrace {
            tid: batch.tid,
            events: Vec::new(),
            dropped: 0,
        });
        // Batches from one thread are pushed in chronological order, so
        // concatenation preserves event order.
        entry.events.extend(batch.events);
        entry.dropped += batch.dropped;
    }
    merged.into_values().collect()
}
