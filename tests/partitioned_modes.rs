//! Partitioned batch mode under durability, trust, budgets and pool chaos,
//! through the CLI: each mode must write the same links as its undisturbed
//! or uninterrupted reference.

use std::path::PathBuf;
use std::process::{Command, Output};

struct Workdir(PathBuf);

impl Workdir {
    /// A fresh directory holding a generated NBA–NYTimes pair and starting
    /// links made of every third ground-truth link.
    fn new(tag: &str) -> Workdir {
        let dir =
            std::env::temp_dir().join(format!("alex-partitioned-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create workdir");
        let w = Workdir(dir);
        let out = alex(&["gen", "--out-dir", &w.p(""), "--pair", "nba", "--seed", "7"]);
        assert!(out.status.success(), "{}", stderr(&out));
        let truth = std::fs::read_to_string(w.p("truth.nt")).expect("truth written");
        let links: String = truth.lines().step_by(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(w.p("links.nt"), links).expect("write links");
        w
    }

    fn p(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().to_string()
    }

    /// `alex improve` over the pair with `extra` flags.
    fn improve(&self, extra: &[&str]) -> Output {
        let (left, right, links, truth) = (
            self.p("left.nt"),
            self.p("right.nt"),
            self.p("links.nt"),
            self.p("truth.nt"),
        );
        let mut args = vec![
            "improve",
            &left,
            &right,
            "--links",
            &links,
            "--truth",
            &truth,
            "--episodes",
            "6",
            "--episode-size",
            "30",
            "--error-rate",
            "0.1",
        ];
        args.extend(extra);
        alex(&args)
    }

    /// Run `improve` writing `out`, which must succeed; returns the links.
    fn links(&self, out: &str, extra: &[&str]) -> (Vec<u8>, Output) {
        let path = self.p(out);
        let mut args = extra.to_vec();
        args.extend(["--out", &path]);
        let run = self.improve(&args);
        assert!(run.status.success(), "{}", stderr(&run));
        (std::fs::read(&path).expect("links written"), run)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn alex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alex"))
        .args(args)
        .output()
        .expect("spawn alex")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn episode_lines(out: &Output) -> usize {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.trim_start().starts_with("ep "))
        .count()
}

/// The `N degraded episode(s)` count of the supervision summary.
fn degraded_episodes(out: &Output) -> usize {
    let err = stderr(out);
    err.lines()
        .find_map(|l| {
            let rest = l.strip_prefix("supervision: ")?;
            rest.split(", ").nth(1)?.split(' ').next()?.parse().ok()
        })
        .unwrap_or_else(|| panic!("no supervision summary:\n{err}"))
}

/// Kill the process, checking that it died by SIGKILL at the commit hook.
fn assert_killed(out: &Output) {
    assert!(
        !out.status.success(),
        "kill-after run must not exit cleanly"
    );
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(out.status.signal(), Some(9), "expected SIGKILL");
    }
}

#[test]
fn partitions_27_kill_and_resume_is_byte_identical() {
    let w = Workdir::new("kill");
    let (reference, run) = w.links(
        "ref.nt",
        &["--partitions", "27", "--state-dir", &w.p("state-ref")],
    );
    assert!(episode_lines(&run) > 2, "reference too short to cut");

    let cut = w.improve(&[
        "--partitions",
        "27",
        "--state-dir",
        &w.p("state-cut"),
        "--kill-after",
        "2",
    ]);
    assert_killed(&cut);
    let (resumed, run) = w.links(
        "resumed.nt",
        &[
            "--partitions",
            "27",
            "--state-dir",
            &w.p("state-cut"),
            "--resume",
            "--threads",
            "2",
        ],
    );
    assert!(stderr(&run).contains("recovering from"), "{}", stderr(&run));
    assert_eq!(reference, resumed, "resumed links must be byte-identical");
}

#[test]
fn partitioned_trust_run_is_thread_invariant() {
    let w = Workdir::new("trust");
    let flags = [
        "--partitions",
        "4",
        "--trust",
        "--sources",
        "5",
        "--adversary-profile",
        "flipper:0.2",
    ];
    let (one, run) = w.links("t1.nt", &[&flags[..], &["--threads", "1"]].concat());
    assert!(stderr(&run).contains("trust: "), "{}", stderr(&run));
    let (two, _) = w.links("t2.nt", &[&flags[..], &["--threads", "2"]].concat());
    assert_eq!(one, two, "links must not depend on --threads");
}

#[test]
fn partitioned_budget_markers_replay_on_resume() {
    let w = Workdir::new("budget");
    let flags = [
        "--partitions",
        "4",
        "--episode-budget-ms",
        "0",
        "--budget-policy",
        "continue",
    ];
    let (reference, run) = w.links(
        "ref.nt",
        &[&flags[..], &["--state-dir", &w.p("state-ref")]].concat(),
    );
    let episodes = episode_lines(&run);
    assert!(episodes > 2, "reference too short to cut");
    assert_eq!(
        degraded_episodes(&run),
        episodes,
        "a 0 ms budget degrades every episode"
    );

    let cut = w.improve(
        &[
            &flags[..],
            &["--state-dir", &w.p("state-cut"), "--kill-after", "2"],
        ]
        .concat(),
    );
    assert_killed(&cut);
    let (resumed, run) = w.links(
        "resumed.nt",
        &[&flags[..], &["--state-dir", &w.p("state-cut"), "--resume"]].concat(),
    );
    assert_eq!(reference, resumed, "resumed links must be byte-identical");
    assert_eq!(episode_lines(&run), episodes);
    assert_eq!(
        degraded_episodes(&run),
        episodes,
        "the resumed report must carry the journaled degraded markers"
    );
}

#[test]
fn partitioned_run_survives_quarantined_chaos() {
    let w = Workdir::new("chaos");
    let (reference, _) = w.links("ref.nt", &["--partitions", "4", "--threads", "2"]);
    let (chaotic, _) = w.links(
        "chaos.nt",
        &[
            "--partitions",
            "4",
            "--threads",
            "2",
            "--chaos-profile",
            "seed=7,panic-rate=0.05",
            "--panic-policy",
            "quarantine",
            "--metrics-dump",
            &w.p("metrics.prom"),
        ],
    );
    let prom = std::fs::read_to_string(w.p("metrics.prom")).expect("metrics written");
    let caught: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("panics_caught_total ")?.trim().parse().ok())
        .unwrap_or(0);
    assert!(caught > 0, "chaos must actually inject panics:\n{prom}");
    assert_eq!(
        reference, chaotic,
        "quarantined chaos must not change the links"
    );
}
