//! Demonstrates the disabled-path cost model from DESIGN.md: with no event
//! sink attached, the telemetry instrumentation adds well under 2% to the
//! episode loop.
//!
//! Rather than comparing two binaries (the un-instrumented code no longer
//! exists), this measures the per-operation cost of the disabled primitives
//! directly, multiplies by a generous over-estimate of how many such
//! operations one episode performs, and compares against the measured
//! episode wall-clock time.

use std::time::Instant;

use alex_bench::harness::{Workload, BASE_SEED};
use alex_datagen::{DatasetKind, InitialLinksSpec, PairSpec};
use alex_telemetry::{counter, emit, Event};

#[test]
fn disabled_telemetry_overhead_is_under_two_percent_of_episode_loop() {
    assert!(
        !alex_telemetry::global().events().is_attached(),
        "test requires the no-sink configuration"
    );
    assert!(
        !alex_telemetry::timeline::enabled(),
        "test requires the timeline recorder to be off"
    );

    // Per-op cost of the three hot-path primitives, amortized over many
    // calls: a disabled event emit, a counter increment, and a disabled
    // timeline record (one relaxed atomic load).
    const OPS: u32 = 1_000_000;
    let start = Instant::now();
    for i in 0..OPS {
        emit!(Event::EpisodeStart { episode: i as u64 });
        counter!("overhead_test_total").inc();
        alex_telemetry::timeline::instant("overhead_probe");
    }
    // Each iteration did one disabled emit + one counter increment + one
    // disabled timeline record.
    let per_feedback_item = start.elapsed() / OPS;

    // One real episode loop, telemetry compiled in but un-sinked.
    let workload = Workload::specific_domain(
        PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes),
        InitialLinksSpec::high_p_low_r(BASE_SEED),
    )
    .with_max_episodes(5);
    let start = Instant::now();
    let run = workload.run();
    let episode_time = start.elapsed();
    let episodes = run.run.episodes.len().max(1) as u32;

    // Over-estimate: every feedback item costs at most ~6 instrumented
    // operations (feedback event, link add/remove event + counter,
    // exploration action, blacklist check), and the per-episode span/event
    // bookkeeping is bounded by another episode_size worth of ops.
    let ops_per_episode = (workload.alex.episode_size as u32) * 12;
    let overhead = per_feedback_item * ops_per_episode * episodes;

    let limit = episode_time.mul_f64(0.02);
    assert!(
        overhead < limit,
        "estimated disabled-telemetry overhead {overhead:?} exceeds 2% of the \
         episode loop ({episode_time:?} for {episodes} episodes)"
    );
}
