//! The four workloads: their generated inputs, the `alex` command lines one
//! sample runs, and the per-sample correctness checks.

use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};

use alex_datagen::{
    generate_pair, sample_initial_links, DatasetKind, InitialLinksSpec, PairConfig, PairSpec,
};
use alex_rdf::ntriples;
use alex_sparql::SameAsLinks;

use crate::parse;
use crate::process;

/// Worker threads for every run: the core count of the 2-core host the
/// benchmark was calibrated on, so no run oversubscribes through its pool.
pub const THREADS: usize = 2;

/// Partitions of the batch workload (the paper's §7.3 setting).
pub const BATCH_PARTITIONS: usize = 27;

/// Share of the generator's DBpedia–NYTimes entity counts the batch
/// workload generates.
const BATCH_SCALE: f64 = 0.5;

/// The last stderr line of a `--kill-after` process, printed right before
/// it sends itself SIGKILL.
const KILL_MARKER: &str = "kill-after: SIGKILL at episode";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Batch,
    Interactive,
    QueryLoop,
    Durable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Batch,
        Workload::Interactive,
        Workload::QueryLoop,
        Workload::Durable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Interactive => "interactive",
            Workload::QueryLoop => "query_loop",
            Workload::Durable => "durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fewest timed samples a run takes, however long they last.
    pub fn min_samples(self) -> usize {
        match self {
            Workload::Batch | Workload::QueryLoop => 5,
            Workload::Interactive => 15,
            Workload::Durable => 7,
        }
    }

    /// Partitions the link space is split into.
    pub fn partitions(self) -> usize {
        match self {
            Workload::Batch => BATCH_PARTITIONS,
            _ => 1,
        }
    }

    /// Feedback items per episode, split across partitions.
    pub fn episode_size(self) -> usize {
        match self {
            Workload::Interactive => 10,
            Workload::QueryLoop => 200,
            Workload::Batch | Workload::Durable => 1000,
        }
    }

    /// Episode cap. Over seeds 1 to 8, `query_loop` converges after 12 to
    /// 26 episodes and `durable` after 22 to 40; their caps lie below that,
    /// so every seed runs the same number of episodes and a sample's work
    /// does not depend on when the seed's run converges. `durable` stops at
    /// 8 because the trust gate's undo footprints, most of its memory, grow
    /// with every episode at a rate that depends on the seed: over seeds 301
    /// to 308 the quartile spread of its peak resident set was 19% at 16
    /// episodes and 8% at 8.
    pub fn max_episodes(self) -> usize {
        match self {
            Workload::QueryLoop => 8,
            Workload::Durable => 8,
            Workload::Batch | Workload::Interactive => 40,
        }
    }

    fn pair(self) -> PairSpec {
        use DatasetKind as K;
        match self {
            Workload::Batch => PairSpec::of(K::DBpedia, K::NYTimes),
            Workload::Interactive => PairSpec::of(K::DBpediaNba, K::NYTimes),
            Workload::QueryLoop => PairSpec::of(K::OpenCyc, K::NYTimes),
            Workload::Durable => PairSpec::of(K::DBpedia, K::Lexvo),
        }
    }

    /// The generator settings of the workload's data pair. `batch` keeps
    /// DBpedia–NYTimes's shape at `BATCH_SCALE` of its entity counts.
    fn pair_config(self, seed: u64) -> PairConfig {
        let mut cfg = self.pair().config(seed);
        if self == Workload::Batch {
            let scale = |n: usize| (n as f64 * BATCH_SCALE).round() as usize;
            cfg.shared = scale(cfg.shared);
            cfg.left_only = scale(cfg.left_only);
            cfg.right_only = scale(cfg.right_only);
        }
        cfg
    }

    /// The sampled starting links; `None` for `interactive`, whose starting
    /// links come from PARIS inside the sample.
    fn initial_links(self, seed: u64) -> Option<InitialLinksSpec> {
        match self {
            Workload::Batch => Some(InitialLinksSpec::high_p_low_r(seed.wrapping_add(17))),
            Workload::Interactive => None,
            Workload::QueryLoop => Some(InitialLinksSpec::high_p_low_r(seed.wrapping_add(21))),
            Workload::Durable => Some(InitialLinksSpec::low_p_low_r(seed.wrapping_add(3))),
        }
    }

    /// The processes one sample runs, in order. A durable sample with
    /// `kill_after` is killed after that many episode commits and resumed
    /// by a second process; without it, it is one uninterrupted run.
    pub fn steps(self, files: &Files, kill_after: Option<u64>) -> Vec<Step> {
        let path = |p: &Path| p.display().to_string();
        let improve = |links: &Path| {
            [
                strings(&["improve", &path(&files.left), &path(&files.right)]),
                strings(&["--links", &path(links), "--truth", &path(&files.truth)]),
                strings(&["--episode-size", &self.episode_size().to_string()]),
                strings(&["--episodes", &self.max_episodes().to_string()]),
            ]
            .concat()
        };
        let common = strings(&[
            "--threads",
            &THREADS.to_string(),
            "--verbose",
            "--out",
            &path(&files.out),
        ]);
        let step = |parts: Vec<Vec<String>>, killed| Step {
            args: parts.concat(),
            killed,
        };
        match self {
            Workload::Batch => vec![step(
                vec![
                    improve(&files.links),
                    strings(&["--partitions", &BATCH_PARTITIONS.to_string()]),
                    common,
                ],
                false,
            )],
            Workload::Interactive => vec![
                step(
                    vec![
                        strings(&["link", &path(&files.left), &path(&files.right)]),
                        strings(&["--threads", &THREADS.to_string(), "--verbose"]),
                        strings(&["--out", &path(&files.links)]),
                    ],
                    false,
                ),
                step(
                    vec![
                        improve(&files.links),
                        strings(&["--partitions", "1"]),
                        common,
                    ],
                    false,
                ),
            ],
            Workload::QueryLoop => vec![step(
                vec![
                    improve(&files.links),
                    strings(&["--feedback", "query", "--queries", "300", "--cache"]),
                    strings(&["--catalog", "probe"]),
                    strings(&["--fault-profile", "seed=7,latency-ms=1"]),
                    common,
                ],
                false,
            )],
            Workload::Durable => {
                let durable = [
                    improve(&files.links),
                    strings(&["--state-dir", &path(&files.state)]),
                    strings(&["--trust", "--sources", "5"]),
                    strings(&["--adversary-profile", "flipper:0.2"]),
                    common,
                ]
                .concat();
                match kill_after {
                    None => vec![step(vec![durable], false)],
                    Some(k) => vec![
                        step(
                            vec![durable.clone(), strings(&["--kill-after", &k.to_string()])],
                            true,
                        ),
                        step(vec![durable, strings(&["--resume"])], false),
                    ],
                }
            }
        }
    }
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// One `alex` process of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub args: Vec<String>,
    /// The process must die by SIGKILL right after its `--kill-after` line.
    pub killed: bool,
}

/// The files one workload reads and writes, all inside its work directory.
#[derive(Debug, Clone)]
pub struct Files {
    pub left: PathBuf,
    pub right: PathBuf,
    pub truth: PathBuf,
    /// Starting links: sampled at generation, or written by PARIS.
    pub links: PathBuf,
    /// The improved links a sample writes.
    pub out: PathBuf,
    /// Durable state directory.
    pub state: PathBuf,
}

impl Files {
    pub fn in_dir(dir: &Path) -> Files {
        Files {
            left: dir.join("left.nt"),
            right: dir.join("right.nt"),
            truth: dir.join("truth.nt"),
            links: dir.join("links.nt"),
            out: dir.join("out.nt"),
            state: dir.join("state"),
        }
    }
}

/// Generate the workload's inputs from `seed` into `dir`.
pub fn generate(w: Workload, seed: u64, dir: &Path) -> Result<Files, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let files = Files::in_dir(dir);
    let pair = generate_pair(&w.pair_config(seed));
    let resolve = |links: &[(alex_rdf::Term, alex_rdf::Term)]| {
        SameAsLinks::from_pairs(links.iter().map(|&(l, r)| {
            (
                pair.left.resolve(l).to_string(),
                pair.right.resolve(r).to_string(),
            )
        }))
        .to_ntriples()
    };
    write(&files.left, &ntriples::serialize(&pair.left))?;
    write(&files.right, &ntriples::serialize(&pair.right))?;
    write(&files.truth, &resolve(&pair.ground_truth))?;
    if let Some(regime) = w.initial_links(seed) {
        write(&files.links, &resolve(&sample_initial_links(&pair, regime)))?;
    }
    Ok(files)
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Read the `alex` binary and the workload's data sets once.
pub fn warm_up(alex: &Path, files: &Files) -> Result<(), String> {
    let args = [&files.left, &files.right].map(|p| p.display().to_string());
    let done = process::run(alex, &[vec!["stats".to_string()], args.to_vec()].concat())
        .map_err(|e| format!("cannot run {}: {e}", alex.display()))?;
    if done.status.success() {
        Ok(())
    } else {
        Err(format!("`alex stats` ended with {}", done.status))
    }
}

/// What one sample measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Spawn-to-exit time, summed over the sample's processes.
    pub wall_s: f64,
    /// Episode span totals, summed over the processes that exit normally.
    pub learn_s: f64,
    /// Wall time outside episodes, summed over the processes that exit
    /// normally. A killed process dies before printing its span table, so
    /// its split is unknown and only `wall_s` counts it.
    pub setup_s: f64,
    /// Highest `VmHWM` over the sample's processes.
    pub peak_rss_mb: f64,
    /// F-measure of the last episode line.
    pub f_measure: f64,
    /// Episode lines the last process printed.
    pub episodes: u64,
    /// CPU time summed over the sample's processes.
    pub cpu_s: f64,
    /// FNV-1a digest of the improved links.
    pub digest: u64,
    /// Mean time of the host probes right before and after the sample.
    pub probe_s: f64,
    /// From the start of the first probe to the end of the second.
    pub elapsed_s: f64,
}

impl Sample {
    /// Factor that turns the sample's times into seconds on the reference
    /// host at rest. Only time spent computing runs slower on a busy host;
    /// time spent waiting, as `query_loop` waits on its endpoints, does not.
    /// The computing share of the wall time is estimated as CPU time over
    /// wall time, capped at 1, and only that share is scaled by the probe.
    pub fn scale(&self) -> f64 {
        let computing = (self.cpu_s / self.wall_s).min(1.0);
        1.0 - computing + computing * crate::probe::REFERENCE_S / self.probe_s
    }
}

/// Run one sample. Fails when a process exits other than expected or the
/// output is missing.
pub fn run_sample(alex: &Path, steps: &[Step], files: &Files) -> Result<Sample, String> {
    remove(&files.out)?;
    remove(&files.state)?;
    let mut sample = Sample {
        wall_s: 0.0,
        learn_s: 0.0,
        setup_s: 0.0,
        peak_rss_mb: 0.0,
        f_measure: 0.0,
        episodes: 0,
        cpu_s: 0.0,
        digest: 0,
        probe_s: crate::probe::REFERENCE_S,
        elapsed_s: 0.0,
    };
    let mut last_stdout = String::new();
    for step in steps {
        let done = process::run(alex, &step.args)
            .map_err(|e| format!("cannot run {}: {e}", alex.display()))?;
        check_exit(step, &done)?;
        let wall = done.wall.as_secs_f64();
        sample.wall_s += wall;
        if !step.killed {
            let learn = parse::episode_seconds(&done.stderr);
            sample.learn_s += learn;
            sample.setup_s += wall - learn;
        }
        sample.peak_rss_mb = sample.peak_rss_mb.max(done.peak_rss_kb as f64 / 1024.0);
        sample.cpu_s += done.cpu_s;
        last_stdout = done.stdout;
    }
    let episodes = parse::episode_lines(&last_stdout);
    let last = episodes
        .last()
        .ok_or_else(|| "the run printed no episode line".to_string())?;
    sample.f_measure = last.f_measure;
    sample.episodes = episodes.len() as u64;
    let links = std::fs::read(&files.out)
        .map_err(|e| format!("no output links at {}: {e}", files.out.display()))?;
    sample.digest = fnv1a(&links);
    Ok(sample)
}

fn check_exit(step: &Step, done: &process::Finished) -> Result<(), String> {
    let last_line = done.stderr.lines().rev().find(|l| !l.trim().is_empty());
    let ok = if step.killed {
        done.status.signal() == Some(9) && last_line.is_some_and(|l| l.starts_with(KILL_MARKER))
    } else {
        done.status.success()
    };
    if ok {
        return Ok(());
    }
    Err(format!(
        "`alex {}` ended with {} (expected {}); stderr ends: {}",
        step.args.join(" "),
        done.status,
        if step.killed {
            "SIGKILL after its kill-after line"
        } else {
            "exit 0"
        },
        last_line.unwrap_or("")
    ))
}

fn remove(path: &Path) -> Result<(), String> {
    let result = if path.is_dir() {
        std::fs::remove_dir_all(path)
    } else {
        std::fs::remove_file(path)
    };
    match result {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn only_the_computing_share_is_scaled() {
        let reference = crate::probe::REFERENCE_S;
        let sample = |cpu_s, probe_s| Sample {
            wall_s: 2.0,
            learn_s: 0.0,
            setup_s: 2.0,
            peak_rss_mb: 0.0,
            f_measure: 0.0,
            episodes: 0,
            cpu_s,
            digest: 0,
            probe_s,
            elapsed_s: 0.0,
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(sample(4.0, reference).scale(), 1.0));
        // Computing all the time on a host running at half speed.
        assert!(close(sample(3.0, 2.0 * reference).scale(), 0.5));
        // Computing half the time: the waiting half is not scaled.
        assert!(close(sample(1.0, 2.0 * reference).scale(), 0.75));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn durable_sample_is_a_killed_leg_then_a_resume() {
        let files = Files::in_dir(Path::new("w"));
        let steps = Workload::Durable.steps(&files, Some(13));
        assert_eq!(steps.len(), 2);
        assert!(steps[0].killed && !steps[1].killed);
        assert!(steps[0]
            .args
            .windows(2)
            .any(|a| a == ["--kill-after", "13"]));
        assert!(steps[1].args.iter().any(|a| a == "--resume"));
        let reference = Workload::Durable.steps(&files, None);
        assert_eq!(reference.len(), 1);
        assert!(!reference[0].args.iter().any(|a| a == "--kill-after"));
    }

    #[test]
    fn every_step_runs_on_the_fixed_thread_count() {
        let files = Files::in_dir(Path::new("w"));
        for w in Workload::ALL {
            for step in w.steps(&files, Some(1)) {
                assert!(step.args.windows(2).any(|a| a == ["--threads", "2"]));
            }
        }
    }
}
