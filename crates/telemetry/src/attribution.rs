//! Post-run attribution over drained timeline traces.
//!
//! [`attribute`] replays each thread's begin/end events with a stack and
//! produces:
//!
//! * **Phase self time** — for every plain span path, total wall time and
//!   *self* time (total minus enclosed children, including enclosed pool
//!   dispatches), so the table answers "where does wall-clock actually
//!   go" rather than double-counting nested spans.
//! * **Per-pool attribution** — per-worker busy time and busy fraction,
//!   chunk-cost skew (max/mean chunk duration), a critical-path estimate
//!   (per dispatch, the busiest worker's summed chunk time — the floor on
//!   wall time any schedule of those chunks could reach), and parallel
//!   efficiency (busy time over worker-seconds available).
//!
//! Rendered as the `--profile` exit table ([`Attribution::render_table`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use crate::timeline::{PoolLabels, PoolRole, ThreadTrace, TimelineKind};

/// One worker's share of a pool's work.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStat {
    /// Worker index within the pool.
    pub worker: u32,
    /// Chunks this worker executed.
    pub chunks: u64,
    /// Summed chunk execution time.
    pub busy_us: u64,
    /// `busy_us` over the pool's total dispatch wall time.
    pub busy_frac: f64,
}

/// Attribution for one named pool, aggregated over all its dispatches.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolAttribution {
    /// Pool name.
    pub pool: String,
    /// Dispatches observed.
    pub dispatches: u64,
    /// Summed caller-side dispatch wall time.
    pub wall_us: u64,
    /// Summed chunk execution time across workers.
    pub busy_us: u64,
    /// Per-worker breakdown, by worker index.
    pub workers: Vec<WorkerStat>,
    /// Longest single chunk.
    pub max_chunk_us: u64,
    /// Mean chunk duration.
    pub mean_chunk_us: f64,
    /// Chunk-cost skew: max over mean chunk duration (1.0 = uniform).
    pub chunk_skew: f64,
    /// Per dispatch, the busiest worker's summed chunk time, summed over
    /// dispatches — the wall-time floor for this chunk assignment.
    pub critical_path_us: u64,
    /// `busy_us` over worker-seconds available (Σ dispatch wall × workers).
    pub parallel_efficiency: f64,
}

/// Self-time statistics for one plain span path.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Full slash-joined span path.
    pub path: String,
    /// Completed spans at this path.
    pub count: u64,
    /// Summed wall time.
    pub total_us: u64,
    /// Summed wall time minus enclosed child spans.
    pub self_us: u64,
}

/// The full attribution result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attribution {
    /// Plain span paths, sorted by self time descending.
    pub phases: Vec<PhaseStat>,
    /// Pools, sorted by name.
    pub pools: Vec<PoolAttribution>,
    /// Timeline events dropped by full buffers (a non-zero value means
    /// the numbers below undercount).
    pub dropped_events: u64,
}

#[derive(Default)]
struct PoolAgg {
    dispatches: u64,
    wall_us: u64,
    /// Σ dispatch wall × workers, for the efficiency denominator.
    worker_us_available: u64,
    workers: BTreeMap<u32, (u64, u64)>, // worker -> (chunks, busy_us)
    chunk_count: u64,
    chunk_total_us: u64,
    max_chunk_us: u64,
    /// (seq, worker) -> busy, for the per-dispatch critical path.
    per_dispatch_worker: BTreeMap<(u64, u32), u64>,
}

struct Frame {
    path: Option<String>,
    ts: u64,
    child_us: u64,
    pool: Option<Box<PoolLabels>>,
}

/// Compute phase self-time and per-pool worker attribution from drained
/// thread traces. Tolerates unbalanced input: stray ends are ignored and
/// spans still open at the end of a trace contribute nothing.
pub fn attribute(traces: &[ThreadTrace]) -> Attribution {
    let mut phases: BTreeMap<String, PhaseStat> = BTreeMap::new();
    let mut pools: BTreeMap<&'static str, PoolAgg> = BTreeMap::new();
    let mut dropped = 0u64;

    for trace in traces {
        dropped += trace.dropped;
        let mut stack: Vec<Frame> = Vec::new();
        for event in &trace.events {
            match &event.kind {
                TimelineKind::Begin { path, pool, .. } => {
                    stack.push(Frame {
                        path: pool.is_none().then(|| path.to_string()),
                        ts: event.ts_us,
                        child_us: 0,
                        pool: pool.clone(),
                    });
                }
                TimelineKind::End => {
                    let Some(frame) = stack.pop() else { continue };
                    let dur = event.ts_us.saturating_sub(frame.ts);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_us += dur;
                    }
                    match frame.pool {
                        None => {
                            if let Some(path) = frame.path {
                                let stat =
                                    phases.entry(path.clone()).or_insert_with(|| PhaseStat {
                                        path,
                                        count: 0,
                                        total_us: 0,
                                        self_us: 0,
                                    });
                                stat.count += 1;
                                stat.total_us += dur;
                                stat.self_us += dur.saturating_sub(frame.child_us);
                            }
                        }
                        Some(labels) => {
                            let agg = pools.entry(labels.pool).or_default();
                            match labels.role {
                                PoolRole::Dispatch { workers, .. } => {
                                    agg.dispatches += 1;
                                    agg.wall_us += dur;
                                    agg.worker_us_available += dur * workers as u64;
                                }
                                PoolRole::Chunk { worker, .. } => {
                                    let w = agg.workers.entry(worker).or_insert((0, 0));
                                    w.0 += 1;
                                    w.1 += dur;
                                    agg.chunk_count += 1;
                                    agg.chunk_total_us += dur;
                                    agg.max_chunk_us = agg.max_chunk_us.max(dur);
                                    *agg.per_dispatch_worker
                                        .entry((labels.seq, worker))
                                        .or_insert(0) += dur;
                                }
                            }
                        }
                    }
                }
                TimelineKind::Instant { .. } => {}
            }
        }
    }

    let mut phase_list: Vec<PhaseStat> = phases.into_values().collect();
    phase_list.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.path.cmp(&b.path)));

    let pool_list = pools
        .into_iter()
        .map(|(name, agg)| {
            let busy_us: u64 = agg.workers.values().map(|(_, b)| b).sum();
            let mean_chunk_us = if agg.chunk_count > 0 {
                agg.chunk_total_us as f64 / agg.chunk_count as f64
            } else {
                0.0
            };
            // Per dispatch, the busiest worker bounds that dispatch's wall
            // time from below; summed over dispatches.
            let mut per_dispatch_max: BTreeMap<u64, u64> = BTreeMap::new();
            for (&(seq, _), &busy) in &agg.per_dispatch_worker {
                let slot = per_dispatch_max.entry(seq).or_insert(0);
                *slot = (*slot).max(busy);
            }
            PoolAttribution {
                pool: name.to_string(),
                dispatches: agg.dispatches,
                wall_us: agg.wall_us,
                busy_us,
                workers: agg
                    .workers
                    .iter()
                    .map(|(&worker, &(chunks, busy))| WorkerStat {
                        worker,
                        chunks,
                        busy_us: busy,
                        busy_frac: if agg.wall_us > 0 {
                            busy as f64 / agg.wall_us as f64
                        } else {
                            0.0
                        },
                    })
                    .collect(),
                max_chunk_us: agg.max_chunk_us,
                mean_chunk_us,
                chunk_skew: if mean_chunk_us > 0.0 {
                    agg.max_chunk_us as f64 / mean_chunk_us
                } else {
                    0.0
                },
                critical_path_us: per_dispatch_max.values().sum(),
                parallel_efficiency: if agg.worker_us_available > 0 {
                    busy_us as f64 / agg.worker_us_available as f64
                } else {
                    0.0
                },
            }
        })
        .collect();

    Attribution {
        phases: phase_list,
        pools: pool_list,
        dropped_events: dropped,
    }
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

impl Attribution {
    /// Render the `--profile` exit table: phase self time, then per-pool
    /// worker busy/idle and chunk-skew numbers.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.phases.is_empty() && self.pools.is_empty() {
            out.push_str("no timeline events recorded\n");
            return out;
        }

        if !self.phases.is_empty() {
            let width = self
                .phases
                .iter()
                .map(|p| p.path.len())
                .max()
                .unwrap_or(5)
                .max("phase".len());
            out.push_str(&format!(
                "{:<width$}  {:>7}  {:>11}  {:>11}\n",
                "phase", "count", "total", "self"
            ));
            for p in &self.phases {
                out.push_str(&format!(
                    "{:<width$}  {:>7}  {:>11}  {:>11}\n",
                    p.path,
                    p.count,
                    fmt_us(p.total_us),
                    fmt_us(p.self_us)
                ));
            }
        }

        for pool in &self.pools {
            out.push_str(&format!(
                "\npool {}: {} dispatch(es), wall {}, busy {}, efficiency {:.1}%, \
                 chunk skew {:.2} (max {} / mean {}), critical path {}\n",
                pool.pool,
                pool.dispatches,
                fmt_us(pool.wall_us),
                fmt_us(pool.busy_us),
                pool.parallel_efficiency * 100.0,
                pool.chunk_skew,
                fmt_us(pool.max_chunk_us),
                fmt_us(pool.mean_chunk_us.round() as u64),
                fmt_us(pool.critical_path_us),
            ));
            out.push_str(&format!(
                "  {:>6}  {:>7}  {:>11}  {:>6}  {:>6}\n",
                "worker", "chunks", "busy", "busy%", "idle%"
            ));
            for w in &pool.workers {
                out.push_str(&format!(
                    "  {:>6}  {:>7}  {:>11}  {:>5.1}%  {:>5.1}%\n",
                    w.worker,
                    w.chunks,
                    fmt_us(w.busy_us),
                    w.busy_frac * 100.0,
                    (1.0 - w.busy_frac).max(0.0) * 100.0,
                ));
            }
        }

        if self.dropped_events > 0 {
            out.push_str(&format!(
                "\nwarning: {} timeline event(s) dropped (buffers full); numbers undercount\n",
                self.dropped_events
            ));
        }
        out
    }
}
