//! Property: an injected mid-run pool panic under `--panic-policy
//! quarantine`, followed by a suspend and a WAL replay (`--resume`), leaves
//! the run byte-identical to an undisturbed single-threaded reference — at
//! every thread count.
//!
//! Pool dispatches fire both before the episode loop (space build) and
//! mid-run (federated queries on every episode commit), so the injected
//! panics land inside episodes, between the WAL commit points the resume
//! leg replays. The chaos schedule is seeded per thread count, so each
//! width quarantines a different set of chunks and must still converge to
//! the same bytes.

mod harness;

use alex::core::StopReason;
use alex::fault::FaultPlan;
use harness::{Disturbance, World};

#[test]
fn quarantined_mid_run_panics_replay_byte_identical_at_every_thread_count() {
    let _serial = harness::serial();
    let world = World::nba(11, false);
    let reference = world.reference();
    let episodes = reference.episodes.len() - 1;
    assert!(
        episodes >= 4,
        "need enough episodes to suspend mid-run, got {episodes}"
    );
    for threads in [1usize, 2, 4, 8] {
        // `panic-at-chunk=0` guarantees a hit at any width (the very first
        // chunk of the very first dispatch); the seeded rates sprinkle
        // more panics and stalls over whatever chunk population this
        // width produces.
        let spec =
            format!("seed={threads},panic-at-chunk=0,panic-rate=0.02,slow-rate=0.05,slow-ms=1");
        let mut d = Disturbance::new(
            format!("threads {threads}"),
            FaultPlan::parse(&spec).expect("plan"),
        );
        d.kill_after = Some(2);
        d.threads = [threads, threads];
        let trial = world.disturb(&d);
        assert_eq!(
            trial.first.as_ref().map(|o| o.stop),
            Ok(StopReason::Suspended)
        );
        assert!(
            trial.panics_caught > 0,
            "threads={threads}: chaos must actually inject panics"
        );
        assert!(!trial.fresh);
        trial.assert_recovers(&reference, &d.label);
    }
}
