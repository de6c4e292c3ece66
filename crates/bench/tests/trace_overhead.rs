//! Enabled-mode timeline overhead guard: with the recorder on, span
//! recording stays under 5% of the episode loop. It asserts and writes
//! nothing: BENCH files are written only by `cargo bench`, so the last
//! committed `BENCH_trace.json` stays as its run recorded it.
//!
//! Lives in its own test binary: it flips the global recorder on, which
//! must not interleave with the disabled-cost measurement in
//! `telemetry_overhead.rs` (cargo runs test binaries one at a time).

use std::sync::Arc;
use std::time::Instant;

use alex_bench::harness::{Workload, BASE_SEED};
use alex_datagen::{DatasetKind, InitialLinksSpec, PairSpec};
use alex_telemetry::timeline;

#[test]
fn enabled_timeline_overhead_is_under_five_percent_of_episode_loop() {
    timeline::enable();

    // Per-span cost with the recorder on: a begin/end pair appended to the
    // thread-local buffer, drained often enough that the buffer never
    // fills (a full buffer takes the cheap drop path, which would
    // understate the cost). The drains stay inside the measured region, so
    // the per-span figure amortizes collection too — an over-estimate of
    // what a real run pays.
    let probe_path: Arc<str> = Arc::from("bench/probe");
    const BATCHES: u32 = 20;
    const PAIRS: u32 = 10_000;
    let start = Instant::now();
    for _ in 0..BATCHES {
        for _ in 0..PAIRS {
            let began = timeline::begin("probe", &probe_path, None);
            timeline::end(began);
        }
        let _ = timeline::drain();
    }
    let per_span = start.elapsed() / (BATCHES * PAIRS);

    // One real episode loop with the recorder on, recording for real
    // (spans, pool dispatches, worker chunks).
    let workload = Workload::specific_domain(
        PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes),
        InitialLinksSpec::high_p_low_r(BASE_SEED),
    )
    .with_max_episodes(5);
    let start = Instant::now();
    let run = workload.run();
    let episode_time = start.elapsed();
    let episodes = run.run.episodes.len().max(1) as u32;

    let _ = timeline::drain();
    timeline::disable();

    // Same generous over-estimate as the disabled guard: bound the spans
    // one episode can open by episode_size * 12, even though spans sit at
    // episode/phase/dispatch granularity, far coarser than feedback items.
    let ops_per_episode = (workload.alex.episode_size as u32) * 12;
    let overhead = per_span * ops_per_episode * episodes;
    let limit = episode_time.mul_f64(0.05);

    assert!(
        overhead < limit,
        "estimated enabled-timeline overhead {overhead:?} exceeds 5% of the \
         episode loop ({episode_time:?} for {episodes} episodes)"
    );
}
