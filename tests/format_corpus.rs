//! The persisted-format corpus: state dirs checked in under
//! `tests/corpus/`, one directory per format version, and the telemetry
//! outputs of one run under `tests/corpus/telemetry/` (see its README).
//!
//! Each state dir was written by a release build of that format from the
//! inputs regenerated here (`alex gen --pair dbpedia-nba-nytimes --seed 7`
//! and `alex link` on them; the inputs themselves are not checked in), and
//! killed mid-run, so resuming it continues the run. A dir of this build's
//! format (6) resumes to the final links pinned when the corpus was
//! written; a dir of another format (4, 5) is rejected with an error
//! naming both versions. Every format's runs end on the same links.
//!
//! The v6 `partitioned` dir was written under the old seed rule, when a
//! `--state-dir` oracle run seeded partition i's oracle `seed + i`; a fresh
//! run of its command line is now seeded `seed + 1000 + i` and ends
//! elsewhere. Its pinned digest is what resuming the dir gives, because the
//! oracle's RNG state travels in every snapshot and journal record.
//!
//! The telemetry files come from the uninterrupted gated run. `alex
//! report` must turn its event log and metrics dump into the pinned JSON
//! and accept its trace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// FNV-1a digests of the regenerated `left.nt`, `right.nt`, `truth.nt` and
/// `links.nt`. A generator or linker change that moves them invalidates
/// every state dir (their base fingerprints pin the inputs): rewrite the
/// corpus with the parent build on the new inputs.
const INPUTS: [(&str, &str); 4] = [
    ("left.nt", "07ac87e18b4ebe36"),
    ("right.nt", "15ed4d934589d1c1"),
    ("truth.nt", "0f92979caadbf2e7"),
    ("links.nt", "2bae33ea9fc3edb0"),
];

/// The trust-gated run: killed at its 3rd episode commit, so the dir holds
/// snapshot 2 and a one-episode journal tail over a non-empty admission log.
const GATED: &[&str] = &[
    "--episodes",
    "6",
    "--episode-size",
    "20",
    "--error-rate",
    "0.3",
    "--trust",
    "--sources",
    "5",
    "--adversary-profile",
    "flipper:0.2",
    "--snapshot-every",
    "2",
];

/// The partitioned run (4 partitions): killed at its 2nd episode commit,
/// so the dir holds snapshot 0 and a two-episode journal.
const PARTITIONED: &[&str] = &[
    "--episodes",
    "5",
    "--episode-size",
    "40",
    "--error-rate",
    "0.2",
    "--partitions",
    "4",
];

fn fnv(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    format!("{h:016x}")
}

fn alex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alex"))
        .args(args)
        .output()
        .expect("run alex")
}

fn check(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A fresh work dir holding the regenerated inputs, checked against
/// [`INPUTS`].
fn inputs(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    let p = |f: &str| dir.join(f).to_string_lossy().into_owned();
    let out = alex(&[
        "gen",
        "--out-dir",
        &p(""),
        "--pair",
        "dbpedia-nba-nytimes",
        "--seed",
        "7",
    ]);
    check(&out, "alex gen");
    let out = alex(&[
        "link",
        &p("left.nt"),
        &p("right.nt"),
        "--out",
        &p("links.nt"),
    ]);
    check(&out, "alex link");
    for (file, digest) in INPUTS {
        let bytes = std::fs::read(dir.join(file)).expect("read input");
        assert_eq!(
            fnv(&bytes),
            digest,
            "regenerated {file} moved: the corpus state dirs no longer match their inputs"
        );
    }
    dir
}

/// Copy corpus state dir `version/name` into `work` (resuming writes to
/// it) and resume it there with `flags`.
fn resume(work: &Path, version: &str, name: &str, flags: &[&str]) -> Output {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(version)
        .join(name);
    let state = work.join(format!("{version}-{name}"));
    std::fs::create_dir_all(&state).expect("create state dir");
    for entry in std::fs::read_dir(&corpus).expect("corpus dir") {
        let entry = entry.expect("corpus entry");
        std::fs::copy(entry.path(), state.join(entry.file_name())).expect("copy corpus file");
    }
    let p = |f: &str| work.join(f).to_string_lossy().into_owned();
    let out = p(&format!("{version}-{name}.nt"));
    let state = state.to_string_lossy().into_owned();
    let mut args = vec![
        "improve",
        &p("left.nt"),
        &p("right.nt"),
        "--links",
        &p("links.nt"),
        "--truth",
        &p("truth.nt"),
        "--threads",
        "2",
        "--state-dir",
        &state,
        "--resume",
        "--out",
        &out,
    ]
    .into_iter()
    .map(String::from)
    .collect::<Vec<_>>();
    args.extend(flags.iter().map(|s| s.to_string()));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    alex(&args)
}

/// The digest of a resumed run's final links.
fn links_digest(work: &Path, version: &str, name: &str) -> String {
    let bytes = std::fs::read(work.join(format!("{version}-{name}.nt"))).expect("resumed links");
    fnv(&bytes)
}

/// The final-links digest of each corpus run, resumed or uninterrupted.
const LINKS: [(&str, &[&str], &str); 2] = [
    ("gated", GATED, "1ed4a6766ac3c04e"),
    ("partitioned", PARTITIONED, "2e6946566d5f4dd0"),
];

/// The size of the last snapshot in a resumed state dir: the run's final
/// state.
fn final_snapshot_bytes(work: &Path, version: &str, name: &str) -> u64 {
    let dir = work.join(format!("{version}-{name}"));
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("resumed state dir")
        .map(|e| e.expect("state dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    snaps.sort();
    let last = snaps.last().expect("a snapshot");
    std::fs::metadata(last).expect("snapshot metadata").len()
}

/// The gated run's final snapshot in format 4, whose footprints were
/// explicit lists; format 5's windows had grown it to 3,175 bytes.
const GATED_FINAL_SNAPSHOT_V4_BYTES: u64 = 3_032;

#[test]
fn v6_state_dirs_resume_to_pinned_links() {
    let work = inputs("v6");
    for (name, flags, digest) in LINKS {
        let out = resume(&work, "v6", name, flags);
        check(&out, name);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("recovering from"), "{name}: {stderr}");
        assert_eq!(links_digest(&work, "v6", name), digest, "{name}");
    }
    let bytes = final_snapshot_bytes(&work, "v6", "gated");
    assert!(
        bytes <= GATED_FINAL_SNAPSHOT_V4_BYTES,
        "the gated run's final snapshot takes {bytes} bytes"
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// This build reads only format 6 and says so, naming both versions,
/// instead of calling a dir of `version` corrupt.
fn assert_rejected_naming_both_versions(version: u32) {
    let dir = format!("v{version}");
    let work = inputs(&dir);
    for (name, flags, _) in LINKS {
        let out = resume(&work, &dir, name, flags);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "error: state dir snapshot is in persist format {version}, but this build \
                 reads format 6 and does not convert between formats (start a fresh run \
                 with a new --state-dir)"
            )),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("corrupt"), "{name}: {stderr}");
        assert!(
            !work.join(format!("{dir}-{name}.nt")).exists(),
            "{name} wrote links"
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// Format 4 kept footprints as explicit lists.
#[test]
fn v4_state_dirs_are_rejected_naming_both_versions() {
    assert_rejected_naming_both_versions(4);
}

/// Format 5 kept a list of pairs admitted after the agent was built, and
/// fixed-width lengths and windows.
#[test]
fn v5_state_dirs_are_rejected_naming_both_versions() {
    assert_rejected_naming_both_versions(5);
}

/// The checked-in telemetry corpus file `name`.
fn telemetry_file(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/telemetry")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn telemetry_corpus_reports_the_pinned_json() {
    let out = alex(&[
        "report",
        &telemetry_file("events.jsonl"),
        "--metrics",
        &telemetry_file("metrics.prom"),
        "--format",
        "json",
    ]);
    check(&out, "alex report");
    let pinned = std::fs::read_to_string(telemetry_file("report.json")).expect("pinned report");
    assert_eq!(String::from_utf8_lossy(&out.stdout), pinned);
}

#[test]
fn telemetry_corpus_trace_passes_the_check() {
    let out = alex(&["report", "--check-trace", &telemetry_file("trace.json")]);
    check(&out, "alex report --check-trace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok: 1 thread(s)"), "{stdout}");
}

/// Logs written before `feedback_applied` carried the step footprint hold
/// per-link and per-action events; each kind parses as skipped, not as an
/// error. The lines are from such a log.
#[test]
fn removed_event_kinds_parse_as_skipped() {
    for line in [
        r#"{"type":"exploration_action","action":"FeatureId(3)"}"#,
        r#"{"type":"link_added","left":3,"right":3}"#,
        r#"{"type":"link_removed","left":1599,"right":817}"#,
        r#"{"type":"blacklist_hit","left":408,"right":8}"#,
        r#"{"type":"rollback","removed":9763}"#,
    ] {
        assert_eq!(alex::telemetry::Event::parse(line), Ok(None), "{line}");
    }
}
