//! End-to-end tests for the `alex` CLI binary: generate → stats → link →
//! improve → query, through real files.

use std::path::PathBuf;
use std::process::Command;

fn alex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn help_and_unknown_command() {
    let out = alex().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = alex().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

/// A misspelled flag is an error naming it, not a silent default: each
/// subcommand accepts only the flags it reads.
#[test]
fn misspelled_flags_exit_2_naming_the_flag() {
    let dir = workdir("misspelled");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let out = alex()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn");
    assert!(out.status.success());

    let cases: [(&[&str], &str); 3] = [
        (
            &["link", &p("left.nt"), &p("right.nt"), "--thresold", "0.5"],
            "unknown flag --thresold for `alex link`",
        ),
        (
            &[
                "improve",
                &p("left.nt"),
                &p("right.nt"),
                "--links",
                &p("truth.nt"),
                "--truth",
                &p("truth.nt"),
                "--episods",
                "2",
                "--episodes-size",
                "10",
            ],
            "unknown flag --episods for `alex improve`",
        ),
        // A flag of another subcommand is unknown here too.
        (
            &["stats", &p("left.nt"), "--cache"],
            "unknown flag --cache for `alex stats`",
        ),
    ];
    for (args, message) in cases {
        let out = alex().args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each `improve` feedback mode rejects the flags only the other mode
/// reads, naming the flag and the mode, instead of ignoring them.
#[test]
fn improve_rejects_flags_its_feedback_mode_never_reads() {
    let dir = workdir("unread");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let out = alex()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn");
    assert!(out.status.success());

    let cases: [(&str, &[&[&str]]); 2] = [
        (
            "oracle",
            &[
                &["--queries", "5"],
                &["--fault-profile", "seed=7"],
                &["--retries", "1"],
                &["--backoff-ms", "1"],
                &["--endpoint-budget-ms", "100"],
                &["--fail-fast"],
            ],
        ),
        ("query", &[&["--partitions", "2"], &["--error-rate", "0.1"]]),
    ];
    for (feedback, unread) in cases {
        for extra in unread {
            let out = alex()
                .args([
                    "improve",
                    &p("left.nt"),
                    &p("right.nt"),
                    "--links",
                    &p("truth.nt"),
                    "--truth",
                    &p("truth.nt"),
                    "--feedback",
                    feedback,
                    "--episodes",
                    "1",
                    "--episode-size",
                    "5",
                ])
                .args(*extra)
                .output()
                .expect("spawn");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
            let message = format!(
                "{} is not read by `alex improve --feedback {feedback}`",
                extra[0]
            );
            assert!(stderr.contains(&message), "{extra:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stats --detail` is a switch: it prints each file's per-predicate
/// table, and the bare command prints one summary row per file.
#[test]
fn stats_detail_is_a_switch() {
    let dir = workdir("stats-detail");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let out = alex()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn");
    assert!(out.status.success());

    let out = alex()
        .args(["stats", &p("left.nt")])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with("file"), "{stdout}");
    assert!(lines[1].starts_with(&p("left.nt")), "{stdout}");

    let out = alex()
        .args(["stats", &p("left.nt"), "--detail"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("triples/entity"), "{stdout}");
    let table = stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("predicate"))
        .skip(1)
        .count();
    assert!(table > 0, "no per-predicate rows: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_pipeline_gen_link_improve_query() {
    let dir = workdir("pipeline");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    // gen
    let out = alex()
        .args([
            "gen",
            "--out-dir",
            &dir.to_string_lossy(),
            "--pair",
            "nba",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["left.nt", "right.nt", "truth.nt"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    // stats
    let out = alex()
        .args(["stats", &p("left.nt"), &p("right.nt")])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("triples"), "{stdout}");

    // link
    let out = alex()
        .args([
            "link",
            &p("left.nt"),
            &p("right.nt"),
            "--threshold",
            "0.95",
            "--out",
            &p("links.nt"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let links = std::fs::read_to_string(p("links.nt")).expect("links written");
    assert!(links.lines().count() > 40, "too few links:\n{links}");
    assert!(links.contains("owl#sameAs"));

    // improve
    let out = alex()
        .args([
            "improve",
            &p("left.nt"),
            &p("right.nt"),
            "--links",
            &p("links.nt"),
            "--truth",
            &p("truth.nt"),
            "--episodes",
            "8",
            "--episode-size",
            "50",
            "--partitions",
            "1",
            "--out",
            &p("improved.nt"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("initial"), "{stdout}");
    let improved = std::fs::read_to_string(p("improved.nt")).expect("improved written");
    assert!(!improved.is_empty(), "improved links written");
    // ALEX legitimately removes wrong links, so the improved set may be
    // smaller than the input — what must not regress is quality.
    let f_values: Vec<f64> = stdout
        .lines()
        .filter_map(|l| l.split("F ").nth(1)?.trim().parse().ok())
        .collect();
    assert!(
        f_values.len() >= 2,
        "expected initial + episode F-measures:\n{stdout}"
    );
    let (initial_f, final_f) = (f_values[0], *f_values.last().unwrap());
    assert!(
        final_f >= initial_f,
        "ALEX should not degrade F-measure: {initial_f} -> {final_f}\n{stdout}"
    );

    // query with links: a federated ASK.
    let out = alex()
        .args([
            "query",
            "--data",
            &p("left.nt"),
            "--data",
            &p("right.nt"),
            "--links",
            &p("improved.nt"),
            "ASK { ?s <http://dbpedia-nba.example.org/ontology/label> ?n }",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "true");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_select_prints_bindings() {
    let dir = workdir("query");
    let data = dir.join("data.nt");
    std::fs::write(
        &data,
        "<http://e/a> <http://e/name> \"Alice\" .\n<http://e/b> <http://e/name> \"Bob\" .\n",
    )
    .expect("write");
    let out = alex()
        .args([
            "query",
            "--data",
            &data.to_string_lossy(),
            "SELECT ?n WHERE { ?s <http://e/name> ?n } ORDER BY ?n",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "n");
    assert!(lines[1].contains("Alice"));
    assert!(lines[2].contains("Bob"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `alex improve --telemetry --metrics-dump --verbose`: the event log and
/// metrics dump must be parseable and reconcile with the printed report.
#[test]
fn improve_telemetry_outputs_reconcile() {
    use alex::telemetry::Event;

    let dir = workdir("telemetry");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    let out = alex()
        .args([
            "gen",
            "--out-dir",
            &dir.to_string_lossy(),
            "--pair",
            "nba",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = alex()
        .args([
            "improve",
            &p("left.nt"),
            &p("right.nt"),
            "--links",
            &p("truth.nt"), // start from truth subset semantics: any valid links work
            "--truth",
            &p("truth.nt"),
            "--episodes",
            "5",
            "--episode-size",
            "40",
            "--partitions",
            "1",
            "--out",
            &p("improved.nt"),
            "--telemetry",
            &p("events.jsonl"),
            "--metrics-dump",
            &p("metrics.prom"),
            "--verbose",
        ])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stderr}");

    // Every JSONL line parses back into a typed event.
    let jsonl = std::fs::read_to_string(p("events.jsonl")).expect("telemetry written");
    let events: Vec<Event> = jsonl
        .lines()
        .map(|l| Event::parse(l).unwrap_or_else(|e| panic!("bad event line {l:?}: {e}")))
        .collect();
    assert!(!events.is_empty());

    // Exactly one episode_end per reported episode ("ep N" stdout lines).
    let reported_episodes = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("ep "))
        .count();
    let episode_ends: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::EpisodeEnd { .. }))
        .collect();
    assert_eq!(
        episode_ends.len(),
        reported_episodes,
        "one episode_end event per reported episode\n{stdout}\n{jsonl}"
    );

    // The metrics dump is Prometheus text format; pull the link counters.
    let prom = std::fs::read_to_string(p("metrics.prom")).expect("metrics written");
    let counter = |name: &str| -> u64 {
        prom.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .map(|v| v.trim().parse().expect("counter value"))
            .unwrap_or(0)
    };
    assert!(
        prom.contains("# TYPE alex_links_added_total counter"),
        "{prom}"
    );
    let (added_total, removed_total) = (
        counter("alex_links_added_total"),
        counter("alex_links_removed_total"),
    );

    // Counters reconcile with the per-episode event sums...
    let (mut ev_added, mut ev_removed) = (0u64, 0u64);
    for e in &episode_ends {
        if let Event::EpisodeEnd { added, removed, .. } = e {
            ev_added += added;
            ev_removed += removed;
        }
    }
    assert_eq!(
        added_total, ev_added,
        "added counter vs episode events\n{prom}"
    );
    assert_eq!(
        removed_total, ev_removed,
        "removed counter vs episode events\n{prom}"
    );

    // ...and with the candidate-set delta: final = initial + added - removed.
    let initial_usable: u64 = stderr
        .lines()
        .find_map(|l| {
            l.strip_prefix("initial links: ")?
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .expect("initial links line on stderr");
    let final_links = std::fs::read_to_string(p("improved.nt"))
        .expect("improved written")
        .lines()
        .count() as u64;
    assert_eq!(
        final_links,
        initial_usable + added_total - removed_total,
        "candidate-set delta must match the counters\n{stderr}\n{prom}"
    );

    // --verbose printed the span summary.
    assert!(
        stderr.contains("improve_partitioned"),
        "span summary on stderr:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn improve_rejects_missing_inputs() {
    // Nonexistent data files fail cleanly.
    let out = alex()
        .args(["improve", "/nonexistent-a.nt", "/nonexistent-b.nt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // With readable data but no --links, the flag error surfaces.
    let dir = workdir("missing-flags");
    let data = dir.join("d.nt");
    std::fs::write(&data, "<http://e/a> <http://e/p> \"v\" .\n").expect("write");
    let d = data.to_string_lossy().to_string();
    let out = alex().args(["improve", &d, &d]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--links"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn probability_flags_reject_values_outside_the_unit_interval() {
    let dir = workdir("unit-flags");
    let data = dir.join("d.nt");
    std::fs::write(&data, "<http://e/a> <http://e/p> \"v\" .\n").expect("write");
    let d = data.to_string_lossy().to_string();
    let out_file = dir.join("links.nt");
    let o = out_file.to_string_lossy().to_string();
    for bad in ["nan", "inf", "-0.1", "1.5"] {
        for baseline in [false, true] {
            let mut cmd = alex();
            cmd.args(["link", &d, &d, "--threshold", bad, "--out", &o]);
            if baseline {
                cmd.arg("--baseline");
            }
            let out = cmd.output().expect("spawn");
            assert_eq!(out.status.code(), Some(2), "--threshold {bad}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--threshold"), "{stderr}");
            assert!(!out_file.exists(), "--threshold {bad} wrote links");
        }
    }
    for bad in ["2", "nan", "-1"] {
        let out = alex()
            .args([
                "improve",
                &d,
                &d,
                "--links",
                &d,
                "--truth",
                &d,
                "--error-rate",
                bad,
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--error-rate {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--error-rate"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn turtle_files_are_accepted() {
    let dir = workdir("turtle");
    let data = dir.join("data.ttl");
    std::fs::write(
        &data,
        "@prefix ex: <http://e/> .\nex:a ex:name \"Alice\" ; a ex:Person .\n",
    )
    .expect("write");
    let out = alex()
        .args(["stats", &data.to_string_lossy()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("2"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--catalog probe` scans each endpoint under the same retries and
/// breaker as queries: one transient fault on a scan no longer kills the
/// run, while a source that stays down still refuses the catalog.
#[test]
fn catalog_probe_survives_transient_faults() {
    let dir = workdir("catalog-faults");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let out = alex()
        .args(["gen", "--out-dir", &p(""), "--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let improve = |faults: &str| {
        alex()
            .args([
                "improve",
                &p("left.nt"),
                &p("right.nt"),
                "--links",
                &p("truth.nt"),
                "--truth",
                &p("truth.nt"),
                "--feedback",
                "query",
                "--episodes",
                "2",
                "--episode-size",
                "20",
                "--queries",
                "10",
                "--catalog",
                "probe",
                "--fault-profile",
                faults,
                "--out",
                &p("out.nt"),
            ])
            .output()
            .expect("spawn improve")
    };

    let out = improve("seed=7,transient=0.2");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = improve("outage=0..");
    assert!(!out.status.success(), "an outage must refuse the catalog");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--catalog probe"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
