//! Crash-safety end-to-end tests: a durable run interrupted at any episode
//! boundary — in-process suspension, SIGKILL of the CLI, or injected
//! storage, pool and endpoint faults — and then resumed must produce
//! exactly the links and report an uninterrupted run would have.

mod harness;

use alex::core::StopReason;
use alex::fault::FaultPlan;
use alex::store::StoreError;
use harness::{Disturbance, World};

/// Suspend a durable run at every possible episode boundary; resuming from
/// each must converge to exactly the reference, whatever the worker-thread
/// count of either session.
#[test]
fn resume_from_every_boundary_matches_reference_across_threads() {
    let _serial = harness::serial();
    let world = World::animals();
    let reference = world.reference();
    let total = reference.episodes.len() as u64 - 1;
    assert!(
        total > 3,
        "reference run too short to cut: {total} episodes"
    );
    for cut in 1..total {
        let mut d = Disturbance::new(format!("cut-{cut}"), FaultPlan::default());
        d.kill_after = Some(cut);
        d.threads = if cut % 2 == 0 { [1, 4] } else { [4, 1] };
        let trial = world.disturb(&d);
        assert_eq!(
            trial.first.as_ref().map(|o| o.stop),
            Ok(StopReason::Suspended)
        );
        trial.assert_recovers(&reference, &d.label);
    }
}

/// A writer that crashes on its first journal append (torn record on disk)
/// must leave a state directory that recovers: the torn record is dropped,
/// counters record the repair, and the resumed run completes identically
/// to a clean one.
#[test]
fn fault_injected_crash_recovers_and_resumes_identically() {
    let _serial = harness::serial();
    let world = World::animals();
    let reference = world.reference();
    let counter = |name| alex::telemetry::global().metrics().counter(name).get();
    let (recoveries, truncated) = (
        counter("store_recoveries_total"),
        counter("store_truncated_records_total"),
    );
    let plan = FaultPlan {
        torn_write_rate: 1.0,
        ..FaultPlan::default()
    };
    let trial = world.disturb(&Disturbance::new("torn", plan));
    let crash = StoreError::InjectedCrash {
        op: "journal append",
    };
    assert_eq!(trial.first.as_ref().err(), Some(&crash.to_string()));
    assert_eq!((trial.injected, trial.truncated_records), ((1, 0), 1));
    assert!(!trial.fresh && trial.recovered_through == 0);
    trial.assert_recovers(&reference, "torn");
    assert_eq!(counter("store_recoveries_total"), recoveries + 1);
    assert_eq!(counter("store_truncated_records_total"), truncated + 1);
}

/// The simulation sweep: seeded random plans over all three injectors
/// (pool panics and stalls, torn writes, bit flips, dropped fsyncs,
/// crashes between rename, endpoint transients), random kill points, pool
/// widths, item budgets and snapshot cadences. Every trial must satisfy
/// the one invariant, and the sweep must reach every kind of outcome.
#[test]
fn seeded_random_plans_recover_to_reference() {
    let _serial = harness::serial();
    let world = World::animals();
    let reference = world.reference();
    let (mut crashed, mut suspended, mut caught, mut degraded) = (0, 0, 0, 0);
    for seed in 0..24 {
        let d = Disturbance::random(seed);
        let trial = world.disturb(&d);
        trial.assert_recovers(&reference, &format!("{d:?}"));
        match &trial.first {
            Err(_) => crashed += 1,
            Ok(o) if o.stop == StopReason::Suspended => suspended += 1,
            Ok(_) => {}
        }
        // A silent bit flip that recovery's CRC caught and resume re-ran.
        caught +=
            (trial.first.is_ok() && trial.injected.1 > 0 && trial.truncated_records > 0) as usize;
        degraded += trial.resumed.is_some_and(|o| o.degraded.contains(&true)) as usize;
    }
    let reached = [crashed, suspended, caught, degraded];
    assert!(
        reached.iter().all(|&n| n > 0),
        "crashed, suspended, caught, degraded: {reached:?}"
    );
}

/// SIGKILL the CLI at an episode-commit boundary, then `--resume`.
#[test]
fn cli_kill_and_resume_yields_byte_identical_links() {
    harness::cli_kill_and_resume(&harness::PLAIN);
}

/// Flag validation is enforced end-to-end, not just in unit tests.
#[test]
fn cli_rejects_inconsistent_durability_flags() {
    let dir = harness::tmpdir("cli-flags");
    let data = dir.join("d.nt");
    std::fs::write(&data, "<http://e/a> <http://e/p> \"v\" .\n").expect("write");
    let d = data.to_string_lossy().to_string();
    for (flags, message) in [
        (&["--resume"][..], "--resume requires --state-dir"),
        (
            &["--snapshot-every", "5"][..],
            "--snapshot-every requires --state-dir",
        ),
    ] {
        let out = harness::alex_bin()
            .args(["improve", &d, &d])
            .args(flags)
            .output()
            .expect("spawn");
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains(message));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
