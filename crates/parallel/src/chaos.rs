//! Seeded chaos injection for pool chunks.
//!
//! The supervisor layer (`alex-guard`) has to be provable, not just
//! plausible: the chaos suites need a way to make *any* chunk of *any*
//! dispatch panic, stall, or spike its allocations, deterministically, so
//! the quarantine-retry path and the budget probes can be exercised on
//! demand. This module is that switchboard.
//!
//! A [`FaultPlan`] is installed process-wide ([`install`]); every pool
//! dispatch then reserves a contiguous block of *global chunk ids*
//! (`reserve`) — dispatches are issued sequentially from the driving
//! thread, so the id assigned to "chunk `c` of the `k`-th dispatch" is the
//! same at every thread count and on every run. A chunk's fate is the
//! plan's content-keyed draw over its id ([`FaultPlan::fires`]), so a
//! chaos run is exactly reproducible.
//!
//! Injection fires at chunk *entry*, before the job closure runs. An
//! injected panic therefore never leaves a half-executed job behind: the
//! quarantine retry runs the closure exactly once, which is the heart of
//! the byte-identity argument even for closures with interior state
//! (endpoint call counters).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use alex_fault::{Fault, FaultPlan};

use crate::lock_unpoisoned;

/// Fast-path gate: one relaxed load when chaos is not installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Next global chunk id to hand out; reset by [`install`].
static NEXT_CHUNK: AtomicU64 = AtomicU64::new(0);
/// The installed plan. Locked once per *dispatch* (cloned into the
/// dispatch), never per chunk.
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Install a fault plan's pool faults process-wide and reset the global
/// chunk-id counter, so chunk ids are reproducible from this point.
pub fn install(plan: FaultPlan) {
    let mut slot = lock_unpoisoned(&PLAN);
    NEXT_CHUNK.store(0, Ordering::SeqCst);
    *slot = Some(plan);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove any installed plan; pools go back to zero-cost dispatch.
pub fn clear() {
    let mut slot = lock_unpoisoned(&PLAN);
    ENABLED.store(false, Ordering::SeqCst);
    *slot = None;
}

/// Whether a fault plan is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reserve `n_chunks` consecutive global chunk ids for one dispatch.
/// Returns the base id plus a copy of the plan, or `None` when chaos is
/// off. Called by the pool once per dispatch, on the dispatching thread,
/// so id assignment is deterministic.
pub(crate) fn reserve(n_chunks: usize) -> Option<(u64, FaultPlan)> {
    if !enabled() {
        return None;
    }
    let plan = lock_unpoisoned(&PLAN).clone()?;
    let base = NEXT_CHUNK.fetch_add(n_chunks as u64, Ordering::SeqCst);
    Some((base, plan))
}

/// Fire the plan's injections for global chunk `id`. Stalls and spikes
/// happen first (they model a misbehaving-but-correct job); the panic, if
/// drawn, fires last and *before the job closure runs* — see the module
/// docs for why that ordering is what makes quarantine retry exact.
pub(crate) fn inject(plan: &FaultPlan, id: u64) {
    if plan.fires(Fault::Slow, id) {
        std::thread::sleep(plan.slow);
    }
    if plan.fires(Fault::Alloc, id) {
        // A transient spike the RSS watermark probe can see: touch every
        // page so the allocation is actually resident, then drop it.
        let mut spike = vec![0u8; plan.alloc_mb * 1024 * 1024];
        for page in spike.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&spike);
    }
    if plan.panic_at.binary_search(&id).is_ok() || plan.fires(Fault::Panic, id) {
        panic!("chaos: injected panic at chunk {id}");
    }
}
