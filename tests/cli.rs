//! End-to-end tests for the `alex` CLI binary: generate → stats → link →
//! improve → query, through real files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn alex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A fresh work dir holding `alex gen --pair nba --seed 7`'s files.
fn nba_dir(tag: &str) -> PathBuf {
    let dir = workdir(tag);
    let out = alex()
        .args(["gen", "--out-dir", &dir.to_string_lossy()])
        .args(["--pair", "nba", "--seed", "7"])
        .output()
        .expect("spawn gen");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    dir
}

/// `alex improve` on the NBA files in `dir`, starting from and judged by
/// their ground truth, with `extra` flags.
fn improve_nba(dir: &Path, extra: &[&str]) -> Output {
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let truth = p("truth.nt");
    alex()
        .args(["improve", &p("left.nt"), &p("right.nt")])
        .args(["--links", &truth, "--truth", &truth])
        .args(extra)
        .output()
        .expect("spawn improve")
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
/// subcommand accepts only the flags it reads. `--catalog` takes the one
/// value `probe`, in `query` and in both `improve` feedback modes.
#[test]
fn misspelled_flags_exit_2_naming_the_flag() {
    let dir = nba_dir("misspelled");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    let cases: [(&[&str], &str); 6] = [
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
        (
            &[
                "query",
                "--data",
                &p("left.nt"),
                "--catalog",
                "prob",
                "SELECT ?s WHERE { ?s ?p ?o }",
            ],
            "--catalog must be 'probe', got 'prob'",
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
                "--catalog",
                "catalog.txt",
            ],
            "--catalog must be 'probe', got 'catalog.txt'",
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
                "--feedback",
                "query",
                "--catalog",
                "prob",
            ],
            "--catalog must be 'probe', got 'prob'",
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
    let dir = nba_dir("unread");
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
        (
            "query",
            &[
                &["--partitions", "2"],
                &["--error-rate", "0.1"],
                &["--state-dir", "state"],
                &["--resume"],
                &["--trust"],
                &["--sources", "2"],
                &["--adversary-profile", "flipper:0.2"],
            ],
        ),
    ];
    for (feedback, unread) in cases {
        for extra in unread {
            let run = [
                "--feedback",
                feedback,
                "--episodes",
                "1",
                "--episode-size",
                "5",
            ];
            let out = improve_nba(&dir, &[&run, *extra].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
            let message = format!(
                "{} is not read by `alex improve --feedback {feedback}`",
                extra[0]
            );
            assert!(stderr.contains(&message), "{extra:?}: {stderr}");
        }
    }

    // The mode is read first: a misspelled one is reported as such, not as
    // a conflict with a flag of the other mode.
    let state = dir.join("state");
    let out = improve_nba(
        &dir,
        &[
            "--feedback",
            "orcale",
            "--state-dir",
            &state.to_string_lossy(),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--feedback must be 'oracle' or 'query', got 'orcale'"),
        "{stderr}"
    );
    assert!(!state.exists(), "no state dir is opened");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad cache flags fail before any data is loaded, in both feedback modes
/// and in `alex query`: exit 2, and no link space is built.
#[test]
fn cache_flags_are_checked_before_loading() {
    let dir = nba_dir("cacheflags");
    let cases: [(&[&str], &str); 7] = [
        (
            &["--feedback", "oracle", "--cache-capacity", "0"],
            "--cache-capacity requires --cache",
        ),
        (
            &["--feedback", "oracle", "--cache", "--cache-capacity", "0"],
            "--cache-capacity must be at least 1",
        ),
        (
            &["--feedback", "query", "--cache-capacity", "5"],
            "--cache-capacity requires --cache",
        ),
        (
            &["--feedback", "query", "--cache", "--cache-capacity", "0"],
            "--cache-capacity must be at least 1",
        ),
        (
            &["--feedback", "query", "--fault-profile", ""],
            "--fault-profile: fault plan: empty spec",
        ),
        (
            &[
                "--feedback",
                "query",
                "--fault-profile",
                "seed=1,panic-rate=0.1",
            ],
            "--fault-profile: fault plan: panic-rate is a Pool key",
        ),
        (
            &["--chaos-profile", "transient=0.1"],
            "--chaos-profile: fault plan: transient is a Federation key",
        ),
    ];
    for (extra, message) in cases {
        let run = [extra, &["--episodes", "1", "--episode-size", "5"]].concat();
        let out = improve_nba(&dir, &run);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(message), "{extra:?}: {stderr}");
        assert!(!stderr.contains("initial links"), "{extra:?}: {stderr}");
    }

    let left = dir.join("left.nt");
    let out = alex()
        .args(["query", "--data", &left.to_string_lossy()])
        .args(["--cache-capacity", "5", "ASK { ?s ?p ?o }"])
        .output()
        .expect("spawn query");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--cache-capacity requires --cache"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budget supervision covers query feedback too: a 1 MB RSS ceiling is
/// breached by the first episode, which is finalized, marked degraded and
/// stops the run.
#[test]
fn query_feedback_improve_honours_budgets() {
    let dir = nba_dir("query-budget");
    let out = improve_nba(
        &dir,
        &[
            "--feedback",
            "query",
            "--queries",
            "30",
            "--max-rss-mb",
            "1",
        ],
    );
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stdout.contains("stopped: BudgetExhausted after 1 episodes"),
        "{stdout}"
    );
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("supervision: 1 breach(es)")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stats --detail` is a switch: it prints each file's per-predicate
/// table, and the bare command prints one summary row per file.
#[test]
fn stats_detail_is_a_switch() {
    let dir = nba_dir("stats-detail");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

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
    let dir = nba_dir("pipeline");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
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

    let dir = nba_dir("telemetry");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let out = improve_nba(
        &dir,
        &[
            &[
                "--episodes",
                "5",
                "--episode-size",
                "40",
                "--partitions",
                "1",
            ][..],
            &[
                "--out",
                &p("improved.nt"),
                "--telemetry",
                &p("events.jsonl"),
            ],
            &["--metrics-dump", &p("metrics.prom"), "--verbose"],
        ]
        .concat(),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stderr}");

    // Every JSONL line parses back into a typed event of a current kind.
    let jsonl = std::fs::read_to_string(p("events.jsonl")).expect("telemetry written");
    let events: Vec<Event> = jsonl
        .lines()
        .map(|l| match Event::parse(l) {
            Ok(Some(event)) => event,
            other => panic!("bad event line {l:?}: {other:?}"),
        })
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

    // The per-step records add up to the episode totals.
    let (mut step_added, mut step_removed) = (0u64, 0u64);
    for e in &events {
        if let Event::FeedbackApplied { added, removed, .. } = e {
            step_added += added;
            step_removed += removed;
        }
    }
    assert_eq!((step_added, step_removed), (ev_added, ev_removed));

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

/// A run SIGKILLed at its K-th episode commit (`--kill-after K`) leaves an
/// event log holding `episode_end` for every episode 1..=K: the log is
/// flushed at each episode end, not only when the run finishes.
#[test]
fn killed_run_log_holds_every_committed_episode() {
    use alex::telemetry::Event;

    let dir = nba_dir("killed-log");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    let out = improve_nba(
        &dir,
        &[
            "--episodes",
            "6",
            "--episode-size",
            "30",
            "--error-rate",
            "0.1",
            "--state-dir",
            &p("state"),
            "--kill-after",
            "3",
            "--telemetry",
            &p("events.jsonl"),
        ],
    );
    assert!(!out.status.success(), "the run must die at --kill-after");
    let jsonl = std::fs::read_to_string(p("events.jsonl")).expect("telemetry written");
    let ended: Vec<u64> = jsonl
        .lines()
        .filter_map(|l| match Event::parse(l) {
            Ok(Some(Event::EpisodeEnd { episode, .. })) => Some(episode),
            _ => None,
        })
        .collect();
    assert_eq!(ended, [1, 2, 3], "{jsonl}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `alex report LOG | head -1`: a reader that closes stdout early ends the
/// output quietly; the command must not panic on the broken pipe.
#[test]
fn report_into_a_closed_pipe_does_not_panic() {
    let dir = workdir("closed-pipe");
    // More table than a pipe buffer holds, so the report meets the closed
    // pipe whether it writes before or after the reader goes away.
    let log: String = (1..=3000)
        .map(|ep| {
            format!(
                "{{\"type\":\"episode_end\",\"episode\":{ep},\"precision\":0.5,\
                 \"recall\":0.5,\"f_measure\":0.5,\"added\":1,\"removed\":1,\
                 \"rollbacks\":0,\"threads\":1,\"duration_us\":10}}\n"
            )
        })
        .collect();
    let path = dir.join("events.jsonl");
    std::fs::write(&path, log).expect("write log");
    let mut child = alex()
        .arg("report")
        .arg(&path)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn report");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
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
    let dir = nba_dir("catalog-faults");
    let out = dir.join("out.nt").to_string_lossy().to_string();
    let improve = |faults: &str| {
        let run = [
            "--feedback",
            "query",
            "--episodes",
            "2",
            "--episode-size",
            "20",
        ];
        let federation = [
            "--queries",
            "10",
            "--catalog",
            "probe",
            "--fault-profile",
            faults,
        ];
        improve_nba(&dir, &[&run[..], &federation, &["--out", &out]].concat())
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

/// Query-feedback improve under transient faults, pinned byte for byte:
/// the improved links' sha256, the per-episode lines and the withheld
/// judgment count must not move at any `--threads`.
#[test]
fn query_feedback_improve_is_golden() {
    let dir = nba_dir("query-golden");
    let links = dir.join("out.nt").to_string_lossy().to_string();
    for threads in ["1", "4"] {
        let run = [
            "--feedback",
            "query",
            "--episodes",
            "4",
            "--episode-size",
            "40",
        ];
        let faults = ["--queries", "30", "--fault-profile", "seed=7,transient=0.2"];
        let rest = ["--retries", "0", "--threads", threads, "--out", &links];
        let out = improve_nba(&dir, &[&run[..], &faults, &rest].concat());
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "--threads {threads}: {stderr}");
        let episodes: Vec<&str> = stdout
            .lines()
            .filter(|l| l.trim_start().starts_with("ep "))
            .collect();
        assert_eq!(
            episodes,
            [
                "    ep 1  P 0.608  R 1.000  F 0.756",
                "    ep 2  P 0.514  R 1.000  F 0.679",
                "    ep 3  P 0.520  R 1.000  F 0.684",
                "    ep 4  P 0.522  R 1.000  F 0.686",
            ],
            "--threads {threads}"
        );
        assert!(
            stdout.contains("stopped: MaxEpisodes after 4 episodes"),
            "--threads {threads}: {stdout}"
        );
        assert!(
            stderr
                .lines()
                .any(|l| l == "7 judgment(s) withheld because queries degraded (skipped sources)"),
            "--threads {threads}: {stderr}"
        );
        let sha = Command::new("sha256sum")
            .arg(&links)
            .output()
            .expect("spawn sha256sum");
        assert_eq!(
            String::from_utf8_lossy(&sha.stdout).split(' ').next(),
            Some("5266ee6f4b5345623a960967ea9ec9411fe08aec72a75b447631d0ed691e6648"),
            "--threads {threads}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
