//! End-to-end tests for the profiling layer: `--trace` / `--profile` on
//! the CLI, structural trace validity (including PARIS worker spans
//! nesting under their pool dispatch), and the `alex report` subcommand.

use std::path::{Path, PathBuf};
use std::process::Command;

fn alex() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-trace-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generate the nba pair into `dir` (left.nt / right.nt / truth.nt).
fn gen(dir: &Path) {
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
}

/// `improve --trace --profile --threads 4` writes a structurally valid
/// Chrome trace and prints the attribution table.
#[test]
fn improve_trace_is_valid_and_profile_renders() {
    let dir = workdir("improve");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    gen(&dir);

    let out = alex()
        .args([
            "improve",
            &p("left.nt"),
            &p("right.nt"),
            "--links",
            &p("truth.nt"),
            "--truth",
            &p("truth.nt"),
            "--episodes",
            "3",
            "--episode-size",
            "40",
            "--partitions",
            "1",
            "--threads",
            "4",
            "--out",
            &p("improved.nt"),
            "--trace",
            &p("trace.json"),
            "--profile",
        ])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("wrote"), "trace path announced:\n{stderr}");

    // The profile table: phase self-time header plus per-worker columns.
    assert!(
        stderr.contains("phase"),
        "profile table on stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("busy%"),
        "worker table on stderr:\n{stderr}"
    );

    // The trace file passes full structural validation in-process.
    let json = std::fs::read_to_string(p("trace.json")).expect("trace written");
    let check = alex::telemetry::validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("invalid trace: {e}"));
    assert!(check.spans > 0, "spans recorded: {check:?}");
    assert!(check.threads >= 1, "{check:?}");

    // ...and through the CLI validator.
    let out = alex()
        .args(["report", "--check-trace", &p("trace.json")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok:"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `link --trace` at `--threads 1` and 4: PARIS worker chunk spans carry
/// per-worker labels and nest under the pool dispatch span that issued
/// them (the validator enforces `(pool, seq)` containment).
#[test]
fn link_trace_nests_paris_worker_spans() {
    let dir = workdir("link");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    gen(&dir);

    // At one thread the caller runs every chunk itself, inside its own
    // dispatch span; at four, spawned workers run chunks too.
    for threads in ["1", "4"] {
        let trace = p(&format!("trace-{threads}.json"));
        let out = alex()
            .args([
                "link",
                &p("left.nt"),
                &p("right.nt"),
                "--threshold",
                "0.95",
                "--threads",
                threads,
                "--out",
                &p("links.nt"),
                "--trace",
                &trace,
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );

        let json = std::fs::read_to_string(&trace).expect("trace written");
        let check = alex::telemetry::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("invalid trace at --threads {threads}: {e}"));
        assert!(
            check.pools.iter().any(|p| p.starts_with("paris")),
            "paris pool in trace: {check:?}"
        );
        assert!(check.dispatch_spans > 0, "{check:?}");
        assert!(check.chunk_spans > 0, "{check:?}");
        // Per-worker labels are present on the chunk spans.
        assert!(json.contains("\"role\":\"chunk\""), "chunk labels in trace");
        assert!(json.contains("\"worker\":"), "worker labels in trace");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `alex report` over an improve run's JSONL (+ metrics dump) renders the
/// convergence curve and per-endpoint latency percentiles, and writes the
/// same content as JSON.
#[test]
fn report_aggregates_convergence_and_endpoints() {
    let dir = workdir("report");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();
    gen(&dir);

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
            "query",
            "--episodes",
            "4",
            "--episode-size",
            "40",
            "--out",
            &p("improved.nt"),
            "--telemetry",
            &p("events.jsonl"),
            "--metrics-dump",
            &p("metrics.prom"),
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
            "report",
            &p("events.jsonl"),
            "--metrics",
            &p("metrics.prom"),
            "--json",
            &p("report.json"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("run report: 1 run(s)"), "{stdout}");
    // Convergence rows: one per episode, with the F column.
    assert!(stdout.contains("precision"), "{stdout}");
    // Query feedback dispatched federated queries, so the endpoint table
    // with latency percentiles must be present.
    assert!(stdout.contains("federation:"), "{stdout}");
    assert!(stdout.contains("p50"), "{stdout}");
    // The metrics dump folded into the metric table.
    assert!(stdout.contains("metric"), "{stdout}");

    // The JSON form parses and carries the same sections.
    let json = std::fs::read_to_string(p("report.json")).expect("report written");
    let value = alex::telemetry::json::parse_value_str(&json)
        .unwrap_or_else(|e| panic!("bad report json: {e}"));
    let obj = value.as_obj().expect("report is an object");
    let episodes = obj
        .get("episodes")
        .and_then(|v| v.as_arr())
        .expect("episodes array");
    assert!(!episodes.is_empty(), "episode rows in JSON report");
    let endpoints = obj
        .get("endpoints")
        .and_then(|v| v.as_arr())
        .expect("endpoints array");
    assert!(!endpoints.is_empty(), "endpoint rows in JSON report");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `report --check-trace` rejects malformed traces with a useful error.
#[test]
fn report_check_trace_rejects_malformed() {
    let dir = workdir("badtrace");
    let p = |f: &str| dir.join(f).to_string_lossy().to_string();

    // An E with no open B on its thread.
    std::fs::write(
        p("bad.json"),
        "[{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":5}]",
    )
    .expect("write");
    let out = alex()
        .args(["report", "--check-trace", &p("bad.json")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid trace"), "{stderr}");
    assert!(stderr.contains("E without open B"), "{stderr}");

    // Not JSON at all.
    std::fs::write(p("notjson.json"), "not a trace").expect("write");
    let out = alex()
        .args(["report", "--check-trace", &p("notjson.json")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid trace"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
