//! Crash-safety end-to-end tests: a durable run interrupted at any episode
//! boundary — in-process suspension, SIGKILL of the CLI, or injected
//! storage faults — and then resumed must produce exactly the links and
//! report an uninterrupted run would have.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;

use alex::core::{
    driver, Agent, AlexConfig, Durability, LinkSpace, OracleFeedback, SpaceConfig, StopReason,
};
use alex::rdf::Dataset;
use alex::store::{DirectStore, FaultPlan, FaultyStore, StoreError};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small space with enough entities that a noisy run churns for many
/// episodes (mirrors the driver unit tests).
fn build() -> (LinkSpace, HashSet<(u32, u32)>) {
    let mut left = Dataset::new("L");
    let mut right = Dataset::new("R");
    let names = [
        "Alpha Aardvark",
        "Beta Bison",
        "Gamma Gazelle",
        "Delta Dingo",
        "Epsilon Eagle",
        "Zeta Zebra",
        "Eta Egret",
        "Theta Tapir",
        "Iota Ibis",
        "Kappa Koala",
        "Lambda Lemur",
        "Mu Marmot",
    ];
    for (i, name) in names.iter().enumerate() {
        left.add_str(&format!("http://l/{i}"), "http://l/label", name);
        left.add_str(&format!("http://l/{i}"), "http://l/type", "animal");
        right.add_str(&format!("http://r/{i}"), "http://r/name", name);
        right.add_str(&format!("http://r/{i}"), "http://r/class", "animal");
    }
    let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
    let truth: HashSet<(u32, u32)> = (0..names.len() as u32).map(|i| (i, i)).collect();
    (space, truth)
}

fn cfg() -> AlexConfig {
    AlexConfig {
        episode_size: 5,
        max_episodes: 12,
        ..AlexConfig::default()
    }
}

fn noisy(truth: &HashSet<(u32, u32)>) -> OracleFeedback {
    OracleFeedback::with_error_rate(truth.clone(), 0.2, 12)
}

/// Final candidate links in iteration order — the byte-identity target.
fn final_links(agent: &Agent) -> Vec<(u32, u32)> {
    agent
        .candidates()
        .iter()
        .map(|id| agent.space().pair(id))
        .collect()
}

/// Suspend a durable run at every possible episode boundary; resuming from
/// each must converge to exactly the reference links, regardless of the
/// worker-thread count in either session.
#[test]
fn resume_from_every_boundary_matches_reference_across_threads() {
    let (space, truth) = build();
    let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

    alex::parallel::set_threads(1);
    let dir_ref = tmpdir("boundary-ref");
    let (mut store, recovery) = DirectStore::open(&dir_ref).expect("open ref store");
    let mut ref_agent = Agent::new(space.clone(), &initial, cfg());
    let reference = driver::run_durable(
        &mut ref_agent,
        &mut noisy(&truth),
        &truth,
        Durability::new(&mut store, recovery).snapshot_every(3),
    )
    .expect("reference run");
    let reference_links = final_links(&ref_agent);
    let total = reference.episode_count() as u64;
    assert!(
        total > 3,
        "reference run too short to cut: {total} episodes"
    );

    for cut in 1..total {
        // Alternate thread counts to prove the result is thread-invariant.
        alex::parallel::set_threads(if cut % 2 == 0 { 1 } else { 4 });
        let dir = tmpdir(&format!("boundary-{cut}"));
        let (mut store, recovery) = DirectStore::open(&dir).expect("open store");
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let report = driver::run_durable(
            &mut agent,
            &mut noisy(&truth),
            &truth,
            Durability::new(&mut store, recovery)
                .snapshot_every(3)
                .stop_after(cut),
        )
        .expect("interrupted run");
        assert_eq!(report.stop, StopReason::Suspended, "cut at {cut}");
        drop(store);

        alex::parallel::set_threads(if cut % 2 == 0 { 4 } else { 1 });
        let (mut store, recovery) = DirectStore::open(&dir).expect("reopen store");
        let mut agent2 = Agent::new(space.clone(), &initial, cfg());
        let resumed = driver::run_durable(
            &mut agent2,
            &mut noisy(&truth),
            &truth,
            Durability::new(&mut store, recovery)
                .snapshot_every(3)
                .resume(true),
        )
        .expect("resumed run");

        assert_eq!(resumed.stop, reference.stop, "cut at {cut}");
        assert_eq!(
            resumed.episode_count() as u64,
            total,
            "cut at {cut}: episode counts differ"
        );
        assert_eq!(
            final_links(&agent2),
            reference_links,
            "cut at {cut}: final links diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
    alex::parallel::set_threads(0); // restore default resolution
}

/// A writer that crashes on its first journal append (torn record on disk)
/// must leave a state directory that recovers: the torn record is dropped,
/// counters record the repair, and a resumed run completes identically to a
/// clean one.
#[test]
fn fault_injected_crash_recovers_and_resumes_identically() {
    let (space, truth) = build();
    let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

    // Clean reference.
    let dir_ref = tmpdir("fault-ref");
    let (mut store, recovery) = DirectStore::open(&dir_ref).expect("open ref store");
    let mut ref_agent = Agent::new(space.clone(), &initial, cfg());
    driver::run_durable(
        &mut ref_agent,
        &mut noisy(&truth),
        &truth,
        Durability::new(&mut store, recovery),
    )
    .expect("reference run");

    // Faulty writer: every append tears. The run dies on episode 1's commit.
    let dir = tmpdir("fault-torn");
    let plan = FaultPlan {
        seed: 9,
        torn_write_rate: 1.0,
        ..FaultPlan::none()
    };
    let (mut store, recovery) = FaultyStore::open(&dir, plan).expect("open faulty store");
    let mut agent = Agent::new(space.clone(), &initial, cfg());
    let err = driver::run_durable(
        &mut agent,
        &mut noisy(&truth),
        &truth,
        Durability::new(&mut store, recovery),
    )
    .expect_err("torn write must surface");
    assert_eq!(
        err,
        StoreError::InjectedCrash {
            op: "journal append"
        }
        .to_string()
    );
    assert_eq!(store.injected_crashes(), 1);
    drop(store);

    // Recovery drops the torn record and the resumed run completes with
    // exactly the clean run's links.
    let recoveries_before = alex::telemetry::counter!("store_recoveries_total").get();
    let truncated_before = alex::telemetry::counter!("store_truncated_records_total").get();

    let (mut store, recovery) = DirectStore::open(&dir).expect("reopen store");
    assert!(!recovery.is_fresh());
    assert_eq!(recovery.truncated_records, 1, "torn record must be dropped");
    assert!(recovery.journal_tail.is_empty());
    let mut agent2 = Agent::new(space, &initial, cfg());
    driver::run_durable(
        &mut agent2,
        &mut noisy(&truth),
        &truth,
        Durability::new(&mut store, recovery).resume(true),
    )
    .expect("resumed run");

    assert_eq!(final_links(&agent2), final_links(&ref_agent));
    assert_eq!(
        alex::telemetry::counter!("store_recoveries_total").get(),
        recoveries_before + 1
    );
    assert_eq!(
        alex::telemetry::counter!("store_truncated_records_total").get(),
        truncated_before + 1
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

// ---------------------------------------------------------------- CLI

fn alex_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

/// SIGKILL the CLI at an episode-commit boundary, then `--resume`: the
/// final links file must be byte-identical to an uninterrupted run's, with
/// different `--threads` on every leg.
#[test]
fn cli_kill_and_resume_yields_byte_identical_links() {
    let dir = tmpdir("cli");
    std::fs::create_dir_all(&dir).expect("create workdir");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    let out = alex_bin()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let improve = |extra: &[&str]| {
        let mut args = vec![
            "improve".to_string(),
            p("left.nt"),
            p("right.nt"),
            "--links".into(),
            p("truth.nt"),
            "--truth".into(),
            p("truth.nt"),
            "--episodes".into(),
            "6".into(),
            "--episode-size".into(),
            "30".into(),
            "--error-rate".into(),
            "0.1".into(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        alex_bin().args(&args).output().expect("spawn improve")
    };

    // Uninterrupted reference at --threads 1.
    let out = improve(&[
        "--state-dir",
        &p("state-ref"),
        "--out",
        &p("ref.nt"),
        "--threads",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference_stdout = String::from_utf8_lossy(&out.stdout).to_string();

    // Interrupted run: SIGKILL right after the 2nd episode commit.
    let out = improve(&[
        "--state-dir",
        &p("state-cut"),
        "--kill-after",
        "2",
        "--threads",
        "4",
    ]);
    assert!(
        !out.status.success(),
        "kill-after run must not exit cleanly"
    );
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(out.status.signal(), Some(9), "expected SIGKILL");
    }

    // Resume at a different thread count and finish.
    let out = improve(&[
        "--state-dir",
        &p("state-cut"),
        "--resume",
        "--out",
        &p("resumed.nt"),
        "--threads",
        "4",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("recovering from"), "{stderr}");

    let reference = std::fs::read(p("ref.nt")).expect("reference links");
    let resumed = std::fs::read(p("resumed.nt")).expect("resumed links");
    assert_eq!(reference, resumed, "final links must be byte-identical");

    // The resumed session reports the full episode history, identical to
    // the reference's (stdout lines are duration-free).
    let resumed_stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let quality_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with("ep ") || l.trim_start().starts_with("initial"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        quality_lines(&reference_stdout),
        quality_lines(&resumed_stdout),
        "per-episode quality must match"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flag validation is enforced end-to-end, not just in unit tests.
#[test]
fn cli_rejects_inconsistent_durability_flags() {
    let dir = tmpdir("cli-flags");
    std::fs::create_dir_all(&dir).expect("create workdir");
    let data = dir.join("d.nt");
    std::fs::write(&data, "<http://e/a> <http://e/p> \"v\" .\n").expect("write");
    let d = data.to_string_lossy().to_string();

    let run = |extra: &[&str]| {
        let mut args = vec!["improve", &d, &d];
        args.extend(extra);
        alex_bin().args(&args).output().expect("spawn")
    };

    let out = run(&["--resume"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume requires --state-dir"));

    let out = run(&["--snapshot-every", "5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--snapshot-every requires --state-dir"));

    let _ = std::fs::remove_dir_all(&dir);
}
