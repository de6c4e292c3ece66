//! Deterministic scoped worker pool for ALEX.
//!
//! ALEX's hot loops — feature-set construction over blocked candidate
//! pairs, PARIS noisy-or scoring, federated per-endpoint dispatch — are
//! embarrassingly parallel, but the surrounding system is *seeded*: the
//! agent's ε-greedy exploration, the fault injector, and the bench harness
//! all rely on reproducible runs. This crate therefore provides
//! parallelism with a hard determinism contract:
//!
//! **Order-preserving reduction.** [`Pool::map`] splits the input slice
//! into contiguous chunks; up to `threads` workers — the caller is worker
//! 0, the rest are scoped threads — claim chunk *indices* from one atomic
//! cursor, so a slow chunk never holds up the others, and the per-chunk
//! outputs are reassembled *in chunk order* before returning. Which worker
//! ran a chunk never affects where its result lands, so the returned `Vec`
//! is byte-identical to the sequential `items.iter().map(f).collect()` at
//! any thread count, and seeded RNG streams and first-visit Monte-Carlo
//! episode order downstream are unaffected by `--threads`.
//!
//! **Chunk floor.** Dispatch overhead is per-chunk, so pools whose items
//! are very cheap (PARIS functionality counting: ~µs per triple batch) set
//! a minimum-items-per-chunk floor via [`Pool::with_min_chunk`]; below the
//! floor the input collapses into fewer, fatter chunks, and a single-chunk
//! dispatch has one worker, the caller, so it spawns nothing.
//!
//! [`Pool::map_chunks`] and [`Pool::reduce`] expose the per-chunk level
//! for map-reduce shapes (e.g. PARIS's functionality counts). Chunk
//! *boundaries* depend on the thread count, so `reduce` is only
//! deterministic when `merge` is exactly associative — true for the
//! integer-valued `f64` counters it is used for (exact below 2^53), and
//! documented at each call site.
//!
//! Threads come from, in priority order: an explicit [`set_threads`] call
//! (the `--threads N` CLI flag), the `ALEX_THREADS` environment variable,
//! and finally [`std::thread::available_parallelism`]. A pool of one
//! thread runs every chunk on the caller and spawns nothing.
//!
//! Pool utilization (tasks run, chunks dispatched, per-pool busy time)
//! lands in the `alex-telemetry` counters `parallel_tasks_total`,
//! `parallel_chunks_total`, and `parallel_busy_us_total{pool=...}`.
//!
//! When the `alex-telemetry` timeline recorder is enabled (`--trace` /
//! `--profile`), every dispatch additionally records a caller-side
//! dispatch span and per-chunk worker spans labelled
//! `{pool, worker, chunk}`, and the caller's [`SpanContext`] is entered on
//! each spawned worker so spans opened inside worker tasks nest under the
//! pool's caller. Disabled, the instrumentation costs one relaxed atomic load
//! per dispatch.
//!
//! **Panic isolation.** Every chunk job runs under
//! [`std::panic::catch_unwind`]; a panicking chunk never takes down a
//! worker, never poisons a lock (the locks are poison-recovered
//! anyway), and never costs the other chunks their results. What happens
//! next is the process-wide [`PanicPolicy`] (the `--panic-policy` flag):
//! under `quarantine` (the default) the panic is counted in
//! `panics_caught_total` and the chunk is deterministically re-executed
//! *sequentially on the dispatching thread* during ordered reassembly, so
//! the output stays byte-identical at any thread count and a
//! deterministic panic still surfaces — on the retry, from the caller,
//! exactly as it would at `--threads 1`; under `fail` workers stop
//! claiming chunks once one has panicked, and the lowest-index panicking
//! chunk's payload is rethrown on the caller after all workers drain.
//!
//! The [`chaos`] module injects seeded per-chunk faults (panic, stall,
//! allocation spike) for the supervisor test suites; injection fires at
//! chunk entry, before the job closure, so a quarantine retry runs the
//! closure exactly once.
//!
//! Zero dependencies outside the workspace: `std::thread::scope` only.

#![forbid(unsafe_code)]

pub mod chaos;

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use alex_telemetry::spans::SpanContext;
use alex_telemetry::timeline::{self, PoolLabels, PoolRole};

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the global thread count (the `--threads N` CLI flag). `0`
/// clears the override, falling back to `ALEX_THREADS` / hardware.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The effective thread count: [`set_threads`] override if set, else the
/// `ALEX_THREADS` environment variable, else the machine's available
/// parallelism (1 if that cannot be determined). Always ≥ 1.
pub fn configured_threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_threads() -> Option<usize> {
    std::env::var("ALEX_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// How a pool treats a panicking chunk job (the `--panic-policy` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Catch and count the panic, then deterministically re-execute the
    /// chunk sequentially on the dispatching thread during reassembly.
    #[default]
    Quarantine,
    /// Rethrow the lowest-index panicking chunk's payload on the
    /// dispatching thread once all workers have drained.
    Fail,
}

impl std::str::FromStr for PanicPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<PanicPolicy, String> {
        match s {
            "quarantine" => Ok(PanicPolicy::Quarantine),
            "fail" => Ok(PanicPolicy::Fail),
            other => Err(format!(
                "unknown panic policy {other:?} (expected quarantine|fail)"
            )),
        }
    }
}

/// Process-wide panic policy; 0 = quarantine (default), 1 = fail.
static PANIC_POLICY: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide [`PanicPolicy`] (the `--panic-policy` CLI flag).
pub fn set_panic_policy(policy: PanicPolicy) {
    PANIC_POLICY.store(policy as usize, Ordering::SeqCst);
}

/// The current process-wide [`PanicPolicy`].
pub fn panic_policy() -> PanicPolicy {
    match PANIC_POLICY.load(Ordering::SeqCst) {
        1 => PanicPolicy::Fail,
        _ => PanicPolicy::Quarantine,
    }
}

/// A named worker pool. Creation is free — threads are scoped to each
/// `map`/`reduce` call (`std::thread::scope`), so a `Pool` is just a
/// thread count plus a telemetry label.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    name: &'static str,
    threads: usize,
    min_chunk: usize,
}

/// Minimum items per chunk: below this, chunking overhead (cursor
/// contention, result reassembly) beats the win from parallelism.
const MIN_CHUNK: usize = 16;

/// Chunks per worker when the input is large enough; >1 so an unlucky
/// slow chunk can be balanced by the atomic cursor.
const CHUNKS_PER_WORKER: usize = 4;

impl Pool {
    /// A pool using the globally configured thread count (see
    /// [`configured_threads`]). `name` labels the pool's busy-time counter.
    pub fn new(name: &'static str) -> Pool {
        Pool::with_threads(name, configured_threads())
    }

    /// A pool with an explicit thread count (≥ 1 enforced).
    pub fn with_threads(name: &'static str, threads: usize) -> Pool {
        Pool {
            name,
            threads: threads.max(1),
            min_chunk: MIN_CHUNK,
        }
    }

    /// Raise the minimum-items-per-chunk floor (the default is
    /// `MIN_CHUNK`). Use for pools whose per-item work is far below
    /// dispatch overhead — e.g. functionality counting at ~0.7µs/item,
    /// where 32 chunks of 22µs each spend more time on dispatch than on
    /// work. The floor only *merges* chunks; chunk boundaries still depend
    /// solely on the configured thread count and input length, never on
    /// scheduling, so determinism is unaffected.
    pub fn with_min_chunk(mut self, min_chunk: usize) -> Pool {
        self.min_chunk = min_chunk.max(1);
        self
    }

    /// The pool's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's minimum-items-per-chunk floor.
    pub fn min_chunk(&self) -> usize {
        self.min_chunk
    }

    /// Chunk size for `len` items: aim for [`CHUNKS_PER_WORKER`] chunks
    /// per worker, floored at the pool's minimum chunk size.
    fn chunk_size(&self, len: usize) -> usize {
        let target = len.div_ceil(self.threads * CHUNKS_PER_WORKER);
        target.max(self.min_chunk)
    }

    /// Map `f` over `items`, returning outputs in input order —
    /// byte-identical to `items.iter().map(f).collect()` at any thread
    /// count. `f` must be pure with respect to item order (it sees only
    /// its item, not any accumulator).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let per_chunk = self.map_chunks(items, |chunk| chunk.iter().map(&f).collect::<Vec<R>>());
        let mut out = Vec::with_capacity(items.len());
        for chunk in per_chunk {
            out.extend(chunk);
        }
        out
    }

    /// Like [`Pool::map`], but every item is its own chunk: use for a
    /// small number of coarse, latency-dominated tasks (one per federated
    /// endpoint) where the data-parallel chunk floor would serialize them.
    /// Output order is input order, as with `map`.
    pub fn map_each<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let per_chunk = self.dispatch(items, 1, |chunk| f(&chunk[0]));
        debug_assert_eq!(per_chunk.len(), items.len());
        per_chunk
    }

    /// Apply `f` to contiguous chunks of `items`, returning per-chunk
    /// results *in chunk order*. Chunk boundaries depend on the thread
    /// count; use [`Pool::map`] when the caller needs thread-count
    /// independence, or ensure downstream merging is exactly associative.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let chunk = self.chunk_size(items.len().max(1));
        self.dispatch(items, chunk, f)
    }

    /// Shared engine behind `map`/`map_chunks`/`map_each`: split into
    /// chunks of `chunk` items, run them on up to `threads` workers — the
    /// caller is worker 0 — that claim chunk indices from one atomic
    /// cursor, and reassemble in chunk order. Chunk jobs run under
    /// `catch_unwind`, and caught panics follow the process-wide
    /// [`PanicPolicy`].
    fn dispatch<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let n_chunks = items.len().div_ceil(chunk);
        self.record(items.len(), n_chunks);
        // Seeded chaos (tests only): reserve this dispatch's block of
        // global chunk ids on the dispatching thread, so ids are
        // reproducible at any thread count. None when chaos is off.
        let chaos = chaos::reserve(n_chunks);

        // Timeline instrumentation: when disabled this is one relaxed
        // atomic load; when enabled, capture the caller's span context and
        // a dispatch sequence number once per dispatch.
        let tl = if timeline::enabled() {
            let ctx = SpanContext::current();
            let path = ctx.child_path(self.name);
            Some((ctx, path, timeline::next_seq()))
        } else {
            None
        };
        let workers = self.threads.min(n_chunks);
        let dispatched = tl.as_ref().map(|(_, path, seq)| {
            timeline::begin(
                self.name,
                path,
                Some(PoolLabels {
                    pool: self.name,
                    seq: *seq,
                    role: PoolRole::Dispatch {
                        chunks: n_chunks as u32,
                        workers: workers as u32,
                    },
                }),
            )
        });
        let span = tl.as_ref().map(|(_, path, seq)| (path, *seq));
        let part = |c: usize| &items[c * chunk..((c + 1) * chunk).min(items.len())];

        let fail = panic_policy() == PanicPolicy::Fail;
        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        // Chunks whose job panicked: `(chunk index, payload)`. The slot
        // stays `None`; the worker catches the unwind and keeps claiming
        // (under `Fail` it stops), so no lock stays poisoned.
        let panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());
        // `Relaxed` suffices: the cursor publishes no data (results go
        // through the slot mutexes and the scope join), and `fetch_add`
        // still hands out every index once, in increasing order.
        let cursor = AtomicUsize::new(0);
        let busy_us = AtomicU64::new(0);
        // One claim loop at every width. Under `Fail` a worker stops
        // claiming once any panic is recorded; the cursor hands out chunk
        // indices in increasing order, so every chunk below a recorded
        // panic was already claimed and still runs, and the lowest
        // recorded panic is the lowest panicking chunk at any width.
        let stop = || fail && !lock_unpoisoned(&panics).is_empty();
        let work = |worker: usize| {
            let start = Instant::now();
            while !stop() {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let part = part(c);
                let result = self
                    .in_chunk_span(span, worker, c, part.len(), || run_job(&f, part, &chaos, c));
                match result {
                    Ok(r) => *lock_unpoisoned(&slots[c]) = Some(r),
                    Err(payload) => lock_unpoisoned(&panics).push((c, payload)),
                }
            }
            busy_us.fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        };
        std::thread::scope(|s| {
            let (work, tl) = (&work, &tl);
            for worker in 1..workers {
                s.spawn(move || {
                    // Workers inherit the caller's span context so spans
                    // opened inside `f` nest under the dispatching caller.
                    let _ctx = tl.as_ref().map(|(ctx, _, _)| ctx.enter());
                    work(worker);
                    // Hand the buffer over before the closure returns:
                    // `thread::scope` unblocks when the closure finishes,
                    // which can be before thread-local destructors run, so
                    // relying on the TLS drop flush would race a drain
                    // right after this dispatch.
                    if tl.is_some() {
                        timeline::flush_current_thread();
                    }
                });
            }
            work(0);
        });
        self.record_busy_us(busy_us.into_inner());
        let panics = panics.into_inner().unwrap_or_else(PoisonError::into_inner);
        if !panics.is_empty() {
            self.note_panics(panics.len() as u64);
        }
        // Deterministic panic selection: workers race to report, so the
        // lowest chunk index wins, not the first report.
        if fail {
            if let Some((_, payload)) = panics.into_iter().min_by_key(|(c, _)| *c) {
                if let Some(b) = dispatched {
                    timeline::end(b);
                }
                resume_unwind(payload);
            }
        }
        // Order-preserving reduction: slot `c` always holds chunk `c`'s
        // output, whichever worker ran it. A `None` slot is a quarantined
        // chunk: re-execute it here, on the caller, in chunk order, so the
        // output stays byte-identical to the no-panic run at any thread
        // count (chaos injection fires once per chunk id, so the retry runs
        // `f` exactly once; a deterministic panic in `f` itself propagates
        // from the caller, as it would without a pool at all).
        let out = slots
            .into_iter()
            .enumerate()
            .map(|(c, slot)| {
                let done = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                done.unwrap_or_else(|| {
                    self.note_quarantined(1);
                    let part = part(c);
                    self.in_chunk_span(span, 0, c, part.len(), || f(part))
                })
            })
            .collect();
        if let Some(b) = dispatched {
            timeline::end(b);
        }
        out
    }

    /// Run `job` as chunk `c` (`items` long) of dispatch `span` on
    /// `worker`, inside its timeline span when the timeline is on.
    fn in_chunk_span<X>(
        &self,
        span: Option<(&Arc<str>, u64)>,
        worker: usize,
        c: usize,
        items: usize,
        job: impl FnOnce() -> X,
    ) -> X {
        let began = span.map(|(path, seq)| {
            let role = PoolRole::Chunk {
                worker: worker as u32,
                chunk: c as u32,
                items: items as u32,
            };
            timeline::begin(
                self.name,
                path,
                Some(PoolLabels {
                    pool: self.name,
                    seq,
                    role,
                }),
            )
        });
        let r = job();
        if let Some(b) = began {
            timeline::end(b);
        }
        r
    }

    /// Chunked map-reduce: fold each chunk into an accumulator with
    /// `fold`, then merge accumulators sequentially *in chunk order* with
    /// `merge`. Deterministic across thread counts only when `merge` is
    /// exactly associative (e.g. integer-valued `f64` counts, set union
    /// into an ordered map); callers own that proof.
    pub fn reduce<T, A, I, F, M>(&self, items: &[T], init: I, fold: F, mut merge: M) -> A
    where
        T: Sync,
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, &T) + Sync,
        M: FnMut(&mut A, A),
    {
        let per_chunk = self.map_chunks(items, |chunk| {
            let mut acc = init();
            for item in chunk {
                fold(&mut acc, item);
            }
            acc
        });
        let mut iter = per_chunk.into_iter();
        let mut total = iter.next().unwrap_or_else(&init);
        for acc in iter {
            merge(&mut total, acc);
        }
        total
    }

    fn record(&self, tasks: usize, chunks: usize) {
        alex_telemetry::counter!("parallel_tasks_total").add(tasks as u64);
        alex_telemetry::counter!("parallel_chunks_total").add(chunks as u64);
    }

    fn record_busy_us(&self, us: u64) {
        alex_telemetry::global()
            .metrics()
            .counter_with_labels("parallel_busy_us_total", &[("pool", self.name)])
            .add(us);
    }

    fn note_panics(&self, n: u64) {
        alex_telemetry::counter!("panics_caught_total").add(n);
    }

    fn note_quarantined(&self, n: u64) {
        alex_telemetry::counter!("panics_quarantined_total").add(n);
    }
}

/// Run one chunk job with chaos injection and panic capture. Injection
/// fires *before* `f`, so an injected panic never half-runs the job and a
/// quarantine retry runs `f` exactly once. `AssertUnwindSafe` is sound
/// here because a panicking chunk's partial state is never observed: its
/// slot stays `None` and the chunk is either re-executed from scratch or
/// the panic is rethrown — the same states `f` could leave behind when
/// unwinding through a plain sequential loop.
fn run_job<T, R>(
    f: &(impl Fn(&[T]) -> R + Sync),
    part: &[T],
    chaos: &Option<(u64, alex_fault::FaultPlan)>,
    c: usize,
) -> Result<R, Box<dyn Any + Send>> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some((base, profile)) = chaos {
            chaos::inject(profile, base + c as u64);
        }
        f(part)
    }))
}

/// Recover the guard from a poisoned mutex: the pool's slots and the
/// installed chaos profile hold plain data, which stays valid even if
/// another thread panicked while holding the lock.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Serializes tests that set or depend on the process-wide panic
    /// policy / chaos profile; recovered on poison since several of these
    /// tests panic on purpose while holding it.
    static GLOBALS: Mutex<()> = Mutex::new(());

    #[test]
    fn map_matches_sequential_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 31 + 7).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let pool = Pool::with_threads("test", threads);
            assert_eq!(
                pool.map(&items, |x| x * 31 + 7),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_preserves_order_with_uneven_work() {
        // Skewed per-item cost exercises the dynamic cursor: late chunks
        // finish before early ones, and the ordered reassembly must not care.
        let items: Vec<usize> = (0..500).collect();
        let pool = Pool::with_threads("test", 4);
        let out = pool.map(&items, |&i| {
            if i % 97 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let pool = Pool::with_threads("test", 8);
        assert_eq!(pool.map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(pool.map(&[5u32], |x| x + 1), vec![6]);
        let three: Vec<u32> = (0..3).collect();
        assert_eq!(pool.map(&three, |x| x + 1), vec![1, 2, 3]);
    }

    #[test]
    fn reduce_integer_counts_are_thread_count_invariant() {
        let items: Vec<u64> = (0..2048).collect();
        let expect: f64 = items.iter().map(|&x| (x % 7) as f64).sum();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads("test", threads);
            let total = pool.reduce(
                &items,
                || 0.0f64,
                |acc, &x| *acc += (x % 7) as f64,
                |acc, other| *acc += other,
            );
            // Integer-valued f64 addition is exact below 2^53: byte-identical.
            assert_eq!(total.to_bits(), expect.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn reduce_empty_returns_init() {
        let pool = Pool::with_threads("test", 4);
        let total = pool.reduce(&[] as &[u32], || 42u32, |a, &x| *a += x, |a, b| *a += b);
        assert_eq!(total, 42);
    }

    #[test]
    fn map_chunks_covers_input_in_order() {
        let items: Vec<u32> = (0..777).collect();
        for threads in [1, 2, 4] {
            let pool = Pool::with_threads("test", threads);
            let chunks = pool.map_chunks(&items, |c| c.to_vec());
            let flat: Vec<u32> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn map_each_gives_every_item_its_own_chunk() {
        let items: Vec<u32> = (0..7).collect();
        for threads in [1, 3, 8] {
            let pool = Pool::with_threads("test", threads);
            let out = pool.map_each(&items, |x| x * 2);
            assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12], "threads={threads}");
        }
        assert_eq!(
            Pool::with_threads("test", 2).map_each(&[] as &[u32], |x| *x),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn min_chunk_floor_merges_chunks() {
        let pool = Pool::with_threads("floor_test", 8).with_min_chunk(4096);
        assert_eq!(pool.min_chunk(), 4096);
        // 1000 items under a 4096 floor → a single chunk, run inline.
        let items: Vec<u32> = (0..1000).collect();
        let chunks = pool.map_chunks(&items, |c| c.len());
        assert_eq!(chunks, vec![1000]);
        // Well above the floor, chunking resumes (and stays ordered).
        let big: Vec<u32> = (0..20_000).collect();
        let chunks = pool.map_chunks(&big, |c| c.len());
        assert!(chunks.len() > 1);
        assert!(chunks.iter().all(|&n| n >= 1));
        assert_eq!(chunks.iter().sum::<usize>(), big.len());
    }

    #[test]
    fn min_chunk_does_not_change_map_output() {
        let items: Vec<u64> = (0..5000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x ^ 0xabcd).collect();
        for floor in [1, 16, 1024, 100_000] {
            let pool = Pool::with_threads("floor_test", 4).with_min_chunk(floor);
            assert_eq!(pool.map(&items, |x| x ^ 0xabcd), expect, "floor={floor}");
        }
    }

    #[test]
    fn skewed_work_keeps_output_order() {
        // The heavy chunks sit at the front: the other workers claim the
        // cheap tail meanwhile, and reassembly must still be in order.
        let items: Vec<usize> = (0..256).collect();
        let pool = Pool::with_threads("skew_test", 4).with_min_chunk(1);
        let out = pool.map(&items, |&i| {
            if i < 64 {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_dispatch_runs_every_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = |pool: Pool, items: &[u32]| {
            pool.map_chunks(items, |_| std::thread::current().id() == caller)
        };
        let many: Vec<u32> = (0..1000).collect();
        let one_thread = on_caller(Pool::with_threads("caller_test", 1), &many);
        assert!(one_thread.len() > 1, "several chunks: {}", one_thread.len());
        assert!(one_thread.iter().all(|&c| c));
        // Fewer items than the chunk floor: one chunk, so one worker.
        let few: Vec<u32> = (0..10).collect();
        assert_eq!(
            on_caller(Pool::with_threads("caller_test", 4), &few),
            vec![true]
        );
    }

    #[test]
    fn threads_floor_is_one() {
        assert_eq!(Pool::with_threads("test", 0).threads(), 1);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn explicit_override_beats_environment() {
        // Serialized against other tests by the env-free assertion order:
        // only this test touches the override.
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        let pool = Pool::new("test");
        assert_eq!(pool.threads(), 3);
        set_threads(0);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn quarantine_preserves_output_when_a_chunk_panics() {
        let _g = lock_unpoisoned(&GLOBALS);
        // A panic in one chunk must not cost any other chunk its result,
        // and the quarantined chunk's sequential retry must land in the
        // right slot: output stays byte-identical to the sequential map.
        // One-shot firing is emulated with an AtomicBool so the retry
        // (which bypasses chaos) mirrors an injected transient panic.
        use std::sync::atomic::AtomicBool;
        assert_eq!(panic_policy(), PanicPolicy::Quarantine);
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let fired = AtomicBool::new(false);
            let pool = Pool::with_threads("panic_test", threads);
            let out = pool.map(&items, |&x| {
                if x == 617 && !fired.swap(true, Ordering::SeqCst) {
                    panic!("transient failure at item {x}");
                }
                x * 3 + 1
            });
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn quarantine_counts_caught_and_retried_panics() {
        let _g = lock_unpoisoned(&GLOBALS);
        use std::sync::atomic::AtomicBool;
        let caught = alex_telemetry::counter!("panics_caught_total").get();
        let retried = alex_telemetry::counter!("panics_quarantined_total").get();
        let fired = AtomicBool::new(false);
        let pool = Pool::with_threads("panic_count_test", 4);
        let items: Vec<u64> = (0..200).collect();
        let _ = pool.map(&items, |&x| {
            if x == 0 && !fired.swap(true, Ordering::SeqCst) {
                panic!("boom");
            }
            x
        });
        assert!(alex_telemetry::counter!("panics_caught_total").get() > caught);
        assert!(alex_telemetry::counter!("panics_quarantined_total").get() > retried);
    }

    #[test]
    fn quarantine_propagates_deterministic_panics_on_retry() {
        // A panic that reproduces on the sequential retry must still
        // surface — quarantine isolates workers, it does not swallow bugs.
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let pool = Pool::with_threads("panic_det_test", threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map(&items, |&x| {
                    if x == 50 {
                        panic!("deterministic bug");
                    }
                    x
                })
            }));
            assert!(result.is_err(), "threads={threads}");
        }
    }

    #[test]
    fn fail_policy_rethrows_lowest_chunk_payload() {
        let _g = lock_unpoisoned(&GLOBALS);
        set_panic_policy(PanicPolicy::Fail);
        let items: Vec<u64> = (0..400).collect();
        let pool = Pool::with_threads("fail_test", 4).with_min_chunk(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |&x| {
                if x % 100 == 7 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        set_panic_policy(PanicPolicy::Quarantine);
        let payload = result.expect_err("fail policy must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        // Chunks are 25 items wide (400 / (4 workers · 4)); the lowest
        // panicking chunk holds item 7, so its payload must win no matter
        // which worker reported first.
        assert_eq!(msg, "boom at 7");
    }

    #[test]
    fn fail_policy_at_one_thread_runs_no_chunk_after_the_panic() {
        let _g = lock_unpoisoned(&GLOBALS);
        set_panic_policy(PanicPolicy::Fail);
        let items: Vec<u64> = (0..10).collect();
        let ran = Mutex::new(Vec::new());
        let pool = Pool::with_threads("fail_one_test", 1).with_min_chunk(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |&x| {
                lock_unpoisoned(&ran).push(x);
                if x == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        set_panic_policy(PanicPolicy::Quarantine);
        assert!(result.is_err(), "fail policy must propagate");
        assert_eq!(*lock_unpoisoned(&ran), vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_policy_parses_and_round_trips() {
        assert_eq!(
            "quarantine".parse::<PanicPolicy>(),
            Ok(PanicPolicy::Quarantine)
        );
        assert_eq!("fail".parse::<PanicPolicy>(), Ok(PanicPolicy::Fail));
        assert!("explode".parse::<PanicPolicy>().is_err());
    }

    #[test]
    fn chaos_injection_is_byte_identical_across_thread_counts() {
        let _g = lock_unpoisoned(&GLOBALS);
        // Slow + alloc chaos never changes results; injected panics are
        // quarantined and retried, so a chaotic run equals a clean one.
        let items: Vec<u64> = (0..2000).collect();
        let clean: Vec<u64> = items.iter().map(|x| x ^ 0x5a5a).collect();
        for threads in [1, 2, 4] {
            chaos::install(
                alex_fault::FaultPlan::parse(
                    "seed=9,panic-rate=0.08,slow-rate=0.1,slow-ms=1,alloc-rate=0.1,alloc-mb=1",
                )
                .unwrap(),
            );
            let pool = Pool::with_threads("chaos_test", threads).with_min_chunk(1);
            let out = pool.map(&items, |x| x ^ 0x5a5a);
            chaos::clear();
            assert_eq!(out, clean, "threads={threads}");
        }
    }

    #[test]
    fn chaos_panic_at_chunk_hits_exactly_that_chunk() {
        let _g = lock_unpoisoned(&GLOBALS);
        chaos::install(alex_fault::FaultPlan::parse("panic-at-chunk=2").unwrap());
        let items: Vec<u64> = (0..64).collect();
        let pool = Pool::with_threads("chaos_at_test", 4).with_min_chunk(16);
        let out = pool.map(&items, |&x| x + 1);
        chaos::clear();
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        // The quarantine counter moved: the injected panic was caught.
        assert!(alex_telemetry::counter!("panics_caught_total").get() >= 1);
    }

    #[test]
    fn utilization_lands_in_counters() {
        let before = alex_telemetry::counter!("parallel_tasks_total").get();
        let chunks_before = alex_telemetry::counter!("parallel_chunks_total").get();
        let pool = Pool::with_threads("util_test", 2);
        let items: Vec<u64> = (0..100).collect();
        let _ = pool.map(&items, |x| x + 1);
        assert!(alex_telemetry::counter!("parallel_tasks_total").get() >= before + 100);
        assert!(alex_telemetry::counter!("parallel_chunks_total").get() > chunks_before);
        let busy = alex_telemetry::global()
            .metrics()
            .counter_with_labels("parallel_busy_us_total", &[("pool", "util_test")]);
        // Busy time is best-effort (can round to 0µs on a fast machine),
        // but the labelled counter must exist and be readable.
        let _ = busy.get();
    }
}
