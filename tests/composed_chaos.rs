//! Composed chaos: all three fault domains at once. A durable improve run
//! faces injected storage faults, an adversarial feedback population, and
//! a faulty federated query plane in the same loop — then is killed and
//! resumed. The resumed run must converge to exactly the links, admission
//! log, and trust posteriors of an uninterrupted reference.

mod harness;

use alex::fault::FaultPlan;
use alex::store::StoreError;
use harness::{Disturbance, World};

/// Storage faults + adversarial feedback + faulty federation, composed:
/// the run crashes on an injected torn write while federated queries fire
/// on every commit; recovery plus resume must land on the uninterrupted
/// reference's exact end state.
#[test]
fn composed_faults_crash_and_resume_converge_to_reference() {
    let _serial = harness::serial();
    let world = World::nba(7, true);
    let reference = world.reference();
    assert!(
        reference.admissions > 0,
        "the trust gate must admit feedback"
    );
    assert!(
        reference.final_f >= reference.initial_f - 1e-9,
        "learning must survive the composed fault load"
    );
    let plan = FaultPlan::parse("seed=9,torn-write=1,transient=0.3").expect("plan");
    let trial = world.disturb(&Disturbance::new("composed", plan));
    let crash = StoreError::InjectedCrash {
        op: "journal append",
    };
    assert_eq!(trial.first.as_ref().err(), Some(&crash.to_string()));
    assert_eq!(trial.truncated_records, 1, "torn record must be dropped");
    assert!(
        trial.answered > 0,
        "federated plane must answer despite faults"
    );
    trial.assert_recovers(&reference, "composed");
}

/// The full chaos gate: seeded chunk panics and stalls (quarantined by the
/// pool), silent storage faults (dropped fsyncs), and a flaky federated
/// query plane (transients + retries) — all in one seeded run that must
/// exit cleanly with exactly the clean-run oracle's end state.
#[test]
fn chaos_gate_full_composition_exits_clean_and_matches_oracle() {
    let _serial = harness::serial();
    let world = World::nba(7, true);
    let reference = world.reference();
    let spec = "seed=13,panic-at-chunk=0,panic-rate=0.02,slow-rate=0.05,slow-ms=1,\
                dropped-fsync=1,transient=0.3";
    let trial = world.disturb(&Disturbance::new(
        "gate",
        FaultPlan::parse(spec).expect("plan"),
    ));
    assert!(
        trial.first.is_ok(),
        "the composed chaos run must exit cleanly: {:?}",
        trial.first
    );
    assert!(
        trial.panics_caught > 0,
        "the plan must actually inject panics"
    );
    assert!(
        trial.answered > 0,
        "federated plane must answer despite faults"
    );
    trial.assert_recovers(&reference, "gate");
}

/// SIGKILL the trust-gated CLI mid-run under an adversarial population,
/// then `--resume` with the same robustness flags.
#[test]
fn cli_kill_and_resume_with_adversaries_is_byte_identical() {
    harness::cli_kill_and_resume(&harness::TRUSTED);
}

/// A CLI run with seeded chunk panics and stalls under `--panic-policy
/// quarantine` is SIGKILLed mid-run, then `--resume`d (chaos still
/// installed): the links equal a clean uninterrupted run's.
#[test]
fn cli_chaos_quarantine_kill_and_resume_byte_identical() {
    harness::cli_kill_and_resume(&harness::CHAOS);
}
