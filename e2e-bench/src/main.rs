//! `e2e` — the end-to-end benchmark of the `alex` CLI.
//!
//! ```text
//! e2e [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//! e2e --compare A.json B.json
//! ```
//!
//! Run from the repository root. It builds the release `alex` binary into
//! its own target directory, generates each workload's inputs from the
//! seed, and then:
//!
//! * warms up: reads the binary and each workload's inputs once;
//! * times samples (`--trace 0`) round-robin across the workloads until each
//!   has its minimum sample count and has spent `--seconds` on samples. A
//!   sample spawns the `alex` processes of one run, one at a time, with
//!   tracing off, between two host probes (see `probe.rs`), and must write
//!   the same links as every other sample;
//! * runs the traced in-process passes (`--trace 1`) for the layer metrics;
//!   their links must equal the CLI's.
//!
//! Without `--trace` it does both; without `--workload`, all four. Every
//! metric is printed by name with its unit; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--json` also
//! writes every sample and summary. A failed correctness check makes the
//! exit code non-zero. See README.md in this directory for the metrics and
//! workloads.

mod compare;
mod parse;
mod probe;
mod process;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use alex_telemetry::json::ObjectWriter;

use stats::Summary;
use workloads::{Files, Sample, Workload};

/// End-to-end metrics with their units. `BENCHMARK.json` lists the same
/// metrics under `end_to_end`. The times are scaled to the reference host
/// at rest by the host probe (see `probe.rs`).
const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-sample numbers reported alongside the end-to-end metrics, without a
/// bound: the episode time of the processes that exit normally (scaled like
/// the end-to-end times), which is a few milliseconds in `interactive`, too
/// little to bound; the final F-measure, which differs from seed to seed by
/// more than any useful bound (capped `durable` runs ended between 0.08 and
/// 0.68 over seeds 401 to 408); the CPU time of the sample's processes; the
/// episodes its run took; the unscaled wall time; and the probe time.
const SAMPLE_INFO: &[(&str, &str)] = &[
    ("learn_s", "s"),
    ("f_measure", "frac"),
    ("cpu_s", "s"),
    ("episodes", "count"),
    ("raw_wall_s", "s"),
    ("probe_s", "s"),
];

const DEFAULT_SEED: u64 = 20160501;

/// Default time per workload spent on samples and their probes;
/// `BENCHMARK.json` sets the same `run_seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// Timed samples: `--trace 0` or no `--trace`.
    timed: bool,
    /// Traced pass: `--trace 1` or no `--trace`.
    traced: bool,
    json: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        timed: true,
        traced: true,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        let invalid = |v: &str| format!("invalid value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::from_name(v).ok_or_else(|| invalid(v))?;
                if !opts.workloads.contains(&w) {
                    opts.workloads.push(w);
                }
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| invalid(v))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| invalid(v))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => (opts.timed, opts.traced) = (true, false),
                "1" => (opts.timed, opts.traced) = (false, true),
                v => return Err(invalid(v)),
            },
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        let [a, b] = &args[1..] else {
            return Err("usage: e2e --compare A.json B.json".into());
        };
        let read =
            |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
        let (table, worse) = compare::compare(&read(a)?, &read(b)?, &read("BENCHMARK.json")?)?;
        print!("{table}");
        return Ok(if worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let opts = parse_options(args)?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build e2e with --release".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate e2e: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("e2e must run from <target>/release")?;
    let alex = build_alex(target)?;
    let work = target.join("e2e-work").join(std::process::id().to_string());
    let runs = measure(&opts, &alex, &work);
    if work.exists() {
        std::fs::remove_dir_all(&work)
            .map_err(|e| format!("cannot remove {}: {e}", work.display()))?;
    }
    let runs = runs?;
    report(&opts, &runs)?;
    let correct = runs.iter().all(|r| r.failed == 0);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Build the release `alex` CLI from the repository in the working
/// directory into `target`, next to this binary.
fn build_alex(target: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "alex",
            "--bin",
            "alex",
        ])
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building alex failed ({status}); run e2e from the repository root"
        ));
    }
    Ok(target.join("release").join("alex"))
}

/// One workload's inputs and measurements.
struct Run {
    workload: Workload,
    files: Files,
    /// Commits after which a durable sample's first process is killed.
    kill_after: Option<u64>,
    /// Digest every sample's links must have: the first sample's, or for
    /// `durable` that of one untimed uninterrupted run.
    digest: Option<u64>,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    layers: Option<Vec<f64>>,
}

impl Run {
    /// Run one sample between two host probes and check it; failures are
    /// counted, not returned. An `uninterrupted` durable sample is not
    /// killed.
    fn sample(&mut self, alex: &Path, uninterrupted: bool) -> Option<Sample> {
        self.attempted += 1;
        let kill_after = self.kill_after.filter(|_| !uninterrupted);
        let steps = self.workload.steps(&self.files, kill_after);
        let started = Instant::now();
        let before = probe::probe();
        let sample = workloads::run_sample(alex, &steps, &self.files);
        let after = probe::probe();
        let checked = sample.and_then(|mut s| {
            s.probe_s = (before + after).as_secs_f64() / 2.0;
            s.elapsed_s = started.elapsed().as_secs_f64();
            match self.digest.get_or_insert(s.digest) {
                d if *d == s.digest => Ok(s),
                d => Err(format!(
                    "links digest {:016x} differs from {d:016x}",
                    s.digest
                )),
            }
        });
        self.count(checked)
    }

    /// Read the binary and the workload's data sets once with `alex stats`,
    /// so the first sample finds them in the page cache like every later
    /// one. Each sample is a fresh process, so nothing else carries over.
    fn warm_up(&mut self, alex: &Path) {
        self.attempted += 1;
        let result = workloads::warm_up(alex, &self.files);
        self.count(result);
    }

    /// The value of a successful operation; a failed one is recorded.
    fn count<T>(&mut self, result: Result<T, String>) -> Option<T> {
        result
            .map_err(|e| {
                self.failed += 1;
                self.errors.push(e);
            })
            .ok()
    }

    /// Whether the workload has measured enough: a sample failed, or it
    /// has its minimum sample count and another sample, with its probes,
    /// would end past `seconds` by more than half a sample.
    fn done(&self, seconds: f64) -> bool {
        if self.failed > 0 {
            return true;
        }
        let spent: Vec<f64> = self.samples.iter().map(|s| s.elapsed_s).collect();
        match Summary::of(&spent) {
            Some(s) => {
                s.n >= self.workload.min_samples()
                    && spent.iter().sum::<f64>() + s.median / 2.0 >= seconds
            }
            None => false,
        }
    }
}

fn measure(opts: &Options, alex: &Path, work: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for &w in &opts.workloads {
        let mut run = Run {
            workload: w,
            files: workloads::generate(w, opts.seed, &work.join(w.name()))?,
            kill_after: None,
            digest: None,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            layers: None,
        };
        run.warm_up(alex);
        if w == Workload::Durable && run.failed == 0 {
            // A resumed run must reproduce an uninterrupted one, whose
            // length also puts the kill point at half its episodes.
            if let Some(reference) = run.sample(alex, true) {
                run.kill_after = Some((reference.episodes / 2).max(1));
            }
        }
        runs.push(run);
    }
    if opts.timed {
        while runs.iter().any(|r| !r.done(opts.seconds)) {
            for run in runs.iter_mut().filter(|r| !r.done(opts.seconds)) {
                if let Some(s) = run.sample(alex, false) {
                    run.samples.push(s);
                }
            }
        }
    }
    if opts.traced {
        for run in runs.iter_mut().filter(|r| r.failed == 0) {
            if run.digest.is_none() {
                // The CLI's links, which every in-process pass must equal.
                run.sample(alex, false);
            }
            let (Some(digest), 0) = (run.digest, run.failed) else {
                continue;
            };
            run.attempted += 1;
            let kill_after = run.kill_after.unwrap_or(0);
            let layers = traced::measure(run.workload, &run.files, kill_after, digest);
            run.layers = run.count(layers);
        }
    }
    Ok(runs)
}

/// The value of metric `name` of `END_TO_END` or `SAMPLE_INFO` in one
/// sample.
fn metric(sample: &Sample, name: &str) -> f64 {
    match name {
        "wall_s" => sample.wall_s * sample.scale(),
        "setup_s" => sample.setup_s * sample.scale(),
        "learn_s" => sample.learn_s * sample.scale(),
        "raw_wall_s" => sample.wall_s,
        "probe_s" => sample.probe_s,
        "peak_rss_mb" => sample.peak_rss_mb,
        "f_measure" => sample.f_measure,
        "cpu_s" => sample.cpu_s,
        "episodes" => sample.episodes as f64,
        _ => unreachable!("unknown sample metric {name}"),
    }
}

fn report(opts: &Options, runs: &[Run]) -> Result<(), String> {
    // The last line keys metrics by name alone when one workload ran.
    let single = runs.len() == 1;
    let key = |workload: &str, metric: &str| {
        if single {
            metric.to_string()
        } else {
            format!("{workload}/{metric}")
        }
    };
    let mut last = ObjectWriter::new();
    let mut workloads_json = ObjectWriter::new();
    for run in runs {
        let name = run.workload.name();
        println!(
            "== {name}: {} timed sample(s), {} attempted, {} failed",
            run.samples.len(),
            run.attempted,
            run.failed
        );
        for e in &run.errors {
            println!("   FAILED: {e}");
        }
        let mut body = ObjectWriter::new();
        body.u64("attempted", run.attempted)
            .u64("failed", run.failed)
            .str("digest", &format!("{:016x}", run.digest.unwrap_or(0)));
        if let Some(k) = run.kill_after {
            body.u64("kill_after", k);
        }
        let mut metrics = ObjectWriter::new();
        for &(m, unit) in END_TO_END.iter().chain(SAMPLE_INFO) {
            let values: Vec<f64> = run.samples.iter().map(|s| metric(s, m)).collect();
            let Some(s) = Summary::of(&values) else {
                continue;
            };
            println!(
                "   {m:<12} median {:>10.4} {unit:<4}  q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  n {}",
                s.median, s.q1, s.q3, s.min, s.max, s.n
            );
            metrics.raw(m, &summary_json(&s, unit, &values));
            if END_TO_END.iter().any(|(e, _)| *e == m) {
                last.raw(&key(name, m), &value_json(s.median, unit));
            }
        }
        body.raw("metrics", &metrics.finish());
        if let Some(layers) = &run.layers {
            let mut layers_json = ObjectWriter::new();
            for (&(m, unit), &v) in traced::LAYERS.iter().zip(layers) {
                println!("   {m:<36} {v:>14.4} {unit}");
                layers_json.raw(m, &value_json(v, unit));
                last.raw(&key(name, m), &value_json(v, unit));
            }
            body.raw("layers", &layers_json.finish());
        }
        workloads_json.raw(name, &body.finish());
    }

    if let Some(path) = &opts.json {
        let mut doc = ObjectWriter::new();
        doc.str("bench", "alex-e2e")
            .str("git_rev", &git_rev())
            .u64(
                "host_cores",
                std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            )
            .str("profile", "release")
            .u64("seed", opts.seed)
            .f64("seconds", opts.seconds)
            .raw("workloads", &workloads_json.finish());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.finish() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let mut line = ObjectWriter::new();
    line.bool("correct", runs.iter().all(|r| r.failed == 0))
        .u64("attempted", runs.iter().map(|r| r.attempted).sum())
        .u64("failed", runs.iter().map(|r| r.failed).sum())
        .raw("metrics", &last.finish());
    println!("{}", line.finish());
    Ok(())
}

fn value_json(value: f64, unit: &str) -> String {
    let mut o = ObjectWriter::new();
    o.f64("value", value).str("unit", unit);
    o.finish()
}

fn summary_json(s: &Summary, unit: &str, samples: &[f64]) -> String {
    let mut o = ObjectWriter::new();
    o.str("unit", unit)
        .f64("median", s.median)
        .f64("q1", s.q1)
        .f64("q3", s.q3)
        .f64("min", s.min)
        .f64("max", s.max)
        .u64("n", s.n as u64);
    let list: Vec<String> = samples.iter().map(|v| format!("{v:?}")).collect();
    o.raw("samples", &format!("[{}]", list.join(",")));
    o.finish()
}

/// The checked-out commit, or "unknown" outside a git repository.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn single_workload_invocation_parses() {
        let o = parse_options(&args("--workload batch --seed 7 --seconds 12 --trace 0")).unwrap();
        assert_eq!(o.workloads, vec![Workload::Batch]);
        assert_eq!(
            (o.seed, o.seconds, o.timed, o.traced),
            (7, 12.0, true, false)
        );
        let o = parse_options(&args("--trace 1")).unwrap();
        assert_eq!(o.workloads, Workload::ALL.to_vec());
        assert!(!o.timed && o.traced);
        let o = parse_options(&[]).unwrap();
        assert!(o.timed && o.traced && o.seed == DEFAULT_SEED);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this binary reports.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(path) = dir
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            panic!("no BENCHMARK.json above {}", dir.display());
        };
        let text = std::fs::read_to_string(path).unwrap();
        let doc = alex_telemetry::json::parse_value_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.as_obj().unwrap()[key]
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_obj().unwrap();
                    let s = |k: &str| m[k].as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(traced::LAYERS));
        let names: Vec<String> = doc.as_obj().unwrap()["workloads"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.as_obj().unwrap()["name"].as_str().unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }
}
