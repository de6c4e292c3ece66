//! Shared scaffolding of the fault suites: one CLI kill-and-resume table,
//! one in-process disturbed-vs-reference runner with its one invariant,
//! and the federation fixtures the differential suites compare engines on.
//! Each suite includes it with `mod harness;` and uses what it needs.
#![allow(dead_code)]

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use alex::core::{
    driver, workload_from_links, AdversarialPopulation, Agent, AlexConfig, Durability,
    FeedbackBridge, FeedbackSource, LinkSpace, OracleFeedback, Partition, QueryFeedback, RunReport,
    SpaceConfig, StopReason, TrustConfig,
};
use alex::datagen::{
    assign_roles, generate_pair, sample_initial_links, AdversaryProfile, DatasetKind, Domain,
    Flavor, GeneratedPair, InitialLinksSpec, PairConfig, PairSpec, SideConfig,
};
use alex::fault::FaultPlan;
use alex::guard::{chaos, set_panic_policy, BreachPolicy, Budget, PanicPolicy, Supervisor};
use alex::rdf::{Dataset, Term};
use alex::sparql::{
    parse, BreakerConfig, DatasetEndpoint, FaultyEndpoint, FederatedEngine, Query,
    ResilienceConfig, RetryPolicy,
};
use alex::store::{DirectStore, FaultyStore, Store};
use alex::telemetry::counter;

// ------------------------------------------------------------ process

/// The pool width, panic policy, chaos plan, telemetry sinks and counters
/// are process globals: tests that touch them run one at a time.
/// Poison-recovered, so one failing test does not cascade.
pub fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh, empty directory private to this call.
pub fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("alex-fault-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

pub fn alex_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alex"))
}

/// `alex` run inside `dir` with whitespace-separated `args`.
pub fn alex_in(dir: &Path, args: &str) -> Command {
    let mut cmd = alex_bin();
    cmd.current_dir(dir).args(args.split_whitespace());
    cmd
}

/// Run `cmd` and require a zero exit.
pub fn ok(mut cmd: Command) -> Output {
    let out = cmd.output().expect("spawn alex");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{cmd:?}: {stderr}");
    out
}

/// The duration-free per-episode lines of an `improve` stdout.
pub fn quality_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.trim_start().starts_with("ep ") || l.trim_start().starts_with("initial"))
        .map(str::to_string)
        .collect()
}

/// A work directory holding `alex gen --pair nba --seed <seed>` output.
pub fn nba_workdir(tag: &str, seed: u64) -> PathBuf {
    let dir = tmpdir(tag);
    ok(alex_in(
        &dir,
        &format!("gen --out-dir . --pair nba --seed {seed}"),
    ));
    dir
}

/// `improve` over an [`nba_workdir`], with the truth as initial links.
pub const IMPROVE: &str = "improve left.nt right.nt --links truth.nt --truth truth.nt";

// ------------------------------------------------- CLI kill-and-resume

/// One row of the CLI kill-and-resume table: the `gen` seed, the `improve`
/// flags every leg shares, and the flags only the disturbed legs add.
pub struct KillResume {
    pub tag: &'static str,
    pub seed: u64,
    pub run: &'static str,
    pub disturb: &'static str,
}

pub const PLAIN: KillResume = KillResume {
    tag: "plain",
    seed: 7,
    run: "--episodes 6 --episode-size 30 --error-rate 0.1",
    disturb: "",
};

pub const TRUSTED: KillResume = KillResume {
    tag: "trusted",
    seed: 7,
    run: "--episodes 6 --episode-size 40 --trust --sources 6 --adversary-profile poisoner:0.3",
    disturb: "",
};

pub const CHAOS: KillResume = KillResume {
    tag: "chaos",
    seed: 11,
    run: "--episodes 6 --episode-size 40",
    disturb: "--panic-policy quarantine \
              --chaos-profile seed=7,panic-at-chunk=0+5,panic-rate=0.02,slow-rate=0.05,slow-ms=1",
};

/// `--cache` is inert for oracle feedback but must stay accepted, so a
/// resume can reuse its original command line.
pub const CACHED: KillResume = KillResume {
    tag: "cached",
    seed: 7,
    run: "--episodes 6 --episode-size 30 --error-rate 0.1 --cache",
    disturb: "",
};

/// An uninterrupted `--threads 1` reference, a `--threads 4` run SIGKILLed
/// after its 2nd commit, and a `--threads 4` `--resume`: the resumed links
/// and per-episode lines must equal the reference's byte for byte.
pub fn cli_kill_and_resume(row: &KillResume) {
    let dir = nba_workdir(&format!("cli-{}", row.tag), row.seed);
    let leg = |flags: &str| alex_in(&dir, &format!("{IMPROVE} {} {flags}", row.run));
    let reference = ok(leg("--state-dir ref --out ref.nt --threads 1"));
    let cut = leg(&format!(
        "--state-dir cut --kill-after 2 --threads 4 {}",
        row.disturb
    ))
    .output()
    .expect("spawn improve");
    let tag = row.tag;
    assert!(
        !cut.status.success(),
        "[{tag}] kill-after run must not exit cleanly"
    );
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(cut.status.signal(), Some(9), "[{tag}] expected SIGKILL");
    }
    let resume = format!(
        "--state-dir cut --resume --out resumed.nt --threads 4 {}",
        row.disturb
    );
    let resumed = ok(leg(&resume));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("recovering from"), "[{tag}] {stderr}");

    let read = |f: &str| std::fs::read(dir.join(f)).expect("links");
    assert!(!read("ref.nt").is_empty(), "[{tag}] empty reference");
    assert_eq!(read("ref.nt"), read("resumed.nt"), "[{tag}] links");
    assert_eq!(
        quality_lines(&reference),
        quality_lines(&resumed),
        "[{tag}] episodes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `improve --feedback query` with `extra` flags at `--threads 1` and `4`
/// must print the plain `--threads 1` run's episode lines and write its
/// links byte for byte.
pub fn cli_improve_matches_plain(tag: &str, episodes: u32, queries: u32, extra: &str) {
    let dir = nba_workdir(&format!("improve-{tag}"), 7);
    let run = |threads: u32, extra: &str| {
        let out = format!("{tag}-{threads}-{}.nt", extra.len());
        let flags = format!("--feedback query --episodes {episodes} --episode-size 30");
        let flags = format!("{flags} --queries {queries} --threads {threads} --out {out} {extra}");
        let stdout = ok(alex_in(&dir, &format!("{IMPROVE} {flags}")));
        (
            quality_lines(&stdout),
            std::fs::read(dir.join(out)).expect("links"),
        )
    };
    let plain = run(1, "");
    for threads in [1, 4] {
        assert_eq!(
            run(threads, extra),
            plain,
            "{extra} diverged at --threads {threads}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------ federation fixtures

/// A small generated pair with 5% noise and 10% dropped attributes.
pub fn synthetic_pair(seed: u64, sizes: [usize; 3], extra: Vec<Domain>) -> GeneratedPair {
    let side = |name: &str, ns: &str, flavor| SideConfig {
        name: name.into(),
        ns: ns.into(),
        flavor,
        noise: 0.05,
        drop_prob: 0.1,
        sparse: false,
    };
    generate_pair(&PairConfig {
        seed,
        left: side("L", "http://l.example.org/", Flavor::Left),
        right: side("R", "http://r.example.org/", Flavor::Right),
        shared: sizes[0],
        left_only: sizes[1],
        right_only: sizes[2],
        confusable_frac: 0.25,
        domains: vec![Domain::Person, Domain::Organization],
        left_extra_domains: extra,
    })
}

/// At most `n` federated queries over `pair`, one per ground-truth link
/// in order, each answerable only across that link.
pub fn queries(pair: &GeneratedPair, n: usize) -> Vec<Query> {
    let truth: Vec<(String, String)> = pair
        .ground_truth
        .iter()
        .map(|&(l, r)| (pair.left.resolve(l).into(), pair.right.resolve(r).into()))
        .collect();
    workload_from_links(&pair.left, &pair.right, &truth, n)
}

/// Retries and a breaker quick enough for tests: `max_retries` retries
/// with 20–200 µs backoffs, a breaker opening after `threshold` failures
/// and half-opening after 1 ms.
pub fn resilience(max_retries: u32, threshold: u32) -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_retries,
            initial_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_micros(200),
            ..RetryPolicy::default()
        },
        breaker: BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(1),
            ..BreakerConfig::default()
        },
        seed: 0xC4A05,
        ..ResilienceConfig::default()
    }
}

/// Retry-masked transients: enough retries that every probe eventually
/// succeeds, and a breaker threshold high enough that a change in send
/// counts cannot shift a breaker transition.
pub fn masked() -> ResilienceConfig {
    resilience(5, 1000)
}

/// Fault scenarios a differential pair of engines must agree under: none,
/// and retry-masked transients.
pub fn scenarios() -> [(&'static str, FaultPlan, Option<ResilienceConfig>); 2] {
    let transients = FaultPlan::parse("seed=13,transient=0.1").expect("plan");
    [
        ("fault-free", FaultPlan::default(), None),
        ("masked-transients", transients, Some(masked())),
    ]
}

/// An engine over `endpoints`, each behind its own fault plan.
pub fn faulty_engine<'a>(
    endpoints: impl IntoIterator<Item = (&'a Dataset, FaultPlan)>,
) -> FederatedEngine {
    let mut engine = FederatedEngine::new();
    for (ds, plan) in endpoints {
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(ds.clone()),
            plan,
        )));
    }
    engine
}

/// The improve loop learning from federated answers over `pair` through
/// `engine`: `queries` generated queries, initial links sampled at
/// precision 0.85 and recall 0.30 from `seed`.
pub fn query_loop(
    pair: &GeneratedPair,
    engine: FederatedEngine,
    seed: u64,
    queries: usize,
    cfg: AlexConfig,
) -> (RunReport, Agent, QueryFeedback) {
    let space = LinkSpace::build(&pair.left, &pair.right, &SpaceConfig::default());
    let bridge = FeedbackBridge::new(
        &pair.left,
        space.left_index(),
        &pair.right,
        space.right_index(),
    );
    let to_id = |l: Term, r: Term| Some((space.left_index().id(l)?, space.right_index().id(r)?));
    let truth: HashSet<_> = pair
        .ground_truth
        .iter()
        .filter_map(|&(l, r)| to_id(l, r))
        .collect();
    let (precision, recall) = (0.85, 0.30);
    let spec = InitialLinksSpec {
        precision,
        recall,
        seed,
    };
    let initial: Vec<_> = sample_initial_links(pair, spec)
        .iter()
        .filter_map(|&(l, r)| to_id(l, r))
        .collect();
    let mut agent = Agent::new(space, &initial, cfg);
    let (left, right, queries) = (
        pair.left.clone(),
        pair.right.clone(),
        self::queries(pair, queries),
    );
    let mut source = QueryFeedback::new(engine, left, right, queries, bridge, truth.clone());
    let report = driver::run(&mut agent, &mut source, &truth);
    (report, agent, source)
}

// ------------------------------------- in-process disturbed vs reference

/// A fresh feedback source judging against the truth.
type NewSource = fn(&HashSet<(u32, u32)>) -> Box<dyn FeedbackSource>;

/// A durable improve run to disturb: its space, truth and initial links,
/// the agent config and snapshot cadence, a fresh feedback source per
/// session, and the data sets and queries of the federated query fired on
/// every commit (so pool dispatches, and federation faults, land
/// mid-run between journal commits).
pub struct World {
    space: LinkSpace,
    truth: HashSet<(u32, u32)>,
    initial: Vec<(u32, u32)>,
    cfg: AlexConfig,
    snapshot_every: u64,
    feedback: NewSource,
    sides: [Dataset; 2],
    queries: Vec<Query>,
}

impl World {
    /// Twelve animals on each side, judged by a 20%-noisy oracle in
    /// five-item episodes: many short episodes, so many kill points.
    pub fn animals() -> World {
        let names = "Alpha Aardvark,Beta Bison,Gamma Gazelle,Delta Dingo,Epsilon Eagle,Zeta Zebra,\
                     Eta Egret,Theta Tapir,Iota Ibis,Kappa Koala,Lambda Lemur,Mu Marmot";
        let names: Vec<&str> = names.split(',').collect();
        let (mut left, mut right) = (Dataset::new("L"), Dataset::new("R"));
        for (i, name) in names.iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            left.add_str(&format!("http://l/{i}"), "http://l/type", "animal");
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
            right.add_str(&format!("http://r/{i}"), "http://r/class", "animal");
        }
        let query = "SELECT ?s ?n WHERE { ?s <http://l/type> \"animal\" . ?s <http://l/label> ?n }";
        World {
            space: LinkSpace::build(&left, &right, &SpaceConfig::default()),
            truth: (0..names.len() as u32).map(|i| (i, i)).collect(),
            initial: vec![(0, 0), (1, 1), (2, 2)],
            cfg: AlexConfig {
                episode_size: 5,
                max_episodes: 12,
                ..AlexConfig::default()
            },
            snapshot_every: 3,
            feedback: |truth| -> Box<dyn FeedbackSource> {
                Box::new(OracleFeedback::with_error_rate(truth.clone(), 0.2, 12))
            },
            sides: [left, right],
            queries: vec![parse(query).expect("query parses")],
        }
    }

    /// DBpedia-NBA × NYTimes from `seed`, starting from half the truth
    /// plus one wrong link. Plain: an oracle in 120-item episodes. Trusted:
    /// the trust gate over six sources, 30% of them targeted poisoners.
    pub fn nba(seed: u64, trusted: bool) -> World {
        let pair = generate_pair(
            &PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes).config(seed),
        );
        let space = LinkSpace::build(&pair.left, &pair.right, &SpaceConfig::default());
        let truth: HashSet<(u32, u32)> = pair
            .ground_truth
            .iter()
            .filter_map(|&(l, r)| Some((space.left_index().id(l)?, space.right_index().id(r)?)))
            .collect();
        let mut initial: Vec<(u32, u32)> = truth.iter().copied().collect();
        initial.sort_unstable();
        initial.truncate(initial.len() / 2);
        initial.push((0, 1));
        let cfg = AlexConfig {
            episode_size: 120,
            max_episodes: if trusted { 8 } else { 6 },
            trust: trusted.then(TrustConfig::default),
            ..AlexConfig::default()
        };
        let feedback: NewSource = if trusted {
            |truth| -> Box<dyn FeedbackSource> {
                let profile = AdversaryProfile::parse("poisoner:0.3").expect("profile");
                let roles = assign_roles(Some(&profile), 6, 42);
                Box::new(AdversarialPopulation::new(truth.clone(), roles, 0.0, 42))
            }
        } else {
            |truth| -> Box<dyn FeedbackSource> { Box::new(OracleFeedback::new(truth.clone(), 5)) }
        };
        World {
            space,
            truth,
            initial,
            cfg,
            snapshot_every: if trusted { 3 } else { 2 },
            feedback,
            queries: queries(&pair, if trusted { 16 } else { 12 }),
            sides: [pair.left, pair.right],
        }
    }

    /// The undisturbed reference: clean store, clean endpoints, no chaos,
    /// one thread.
    pub fn reference(&self) -> Outcome {
        chaos::clear();
        alex::parallel::set_threads(1);
        let dir = tmpdir("reference");
        let (mut store, recovery) = DirectStore::open(&dir).expect("open reference store");
        let clean = Disturbance::new("reference", FaultPlan::default());
        let (report, agent, _) = self.session(&mut store, recovery, &clean, false);
        let _ = std::fs::remove_dir_all(&dir);
        Outcome::of(report.expect("reference run"), &agent)
    }

    /// One session of `d` over `store`: a fresh agent and source, and a
    /// federated query through endpoints behind `d`'s plan on every
    /// commit, counting the queries answered. A first session stops at
    /// `d`'s kill point under `d`'s budget; a resumed one runs to the end
    /// unsupervised.
    fn session(
        &self,
        store: &mut dyn Store,
        recovery: alex::store::Recovery,
        d: &Disturbance,
        resume: bool,
    ) -> (Result<RunReport, String>, Agent, usize) {
        let mut agent = Agent::new(self.space.clone(), &self.initial, self.cfg.clone());
        let mut source = (self.feedback)(&self.truth);
        let mut engine = faulty_engine(self.sides.iter().map(|ds| (ds, d.plan.clone())));
        engine.set_resilience(resilience(3, 5));
        let mut answered = 0;
        let mut durability = Durability::new(store, recovery)
            .snapshot_every(d.snapshot_every.unwrap_or(self.snapshot_every))
            .resume(resume)
            .on_commit(|ep| {
                let query = &self.queries[ep as usize % self.queries.len()];
                answered += usize::from(engine.execute_full(query).is_ok());
            });
        let (kill_after, budget) = if resume {
            (None, None)
        } else {
            (d.kill_after, d.budget)
        };
        if let Some(n) = kill_after {
            durability = durability.stop_after(n);
        }
        let mut supervisor = budget.map(|b| Supervisor::new(b, BreachPolicy::Continue));
        let parts = vec![Partition {
            agent: &mut agent,
            source: source.as_mut(),
        }];
        let report =
            driver::run_partitions(parts, &self.truth, Some(durability), supervisor.as_mut());
        (report, agent, answered)
    }

    /// Run `disturbance`, then recover its state directory cleanly and
    /// resume under the same chaos plan (a crashing *writer* is the fault
    /// model; recovery must repair what it left).
    pub fn disturb(&self, d: &Disturbance) -> Trial {
        set_panic_policy(PanicPolicy::Quarantine);
        let panics_before = counter!("panics_caught_total").get();
        let dir = tmpdir(&format!("disturbed-{}", d.label));

        alex::parallel::set_threads(d.threads[0]);
        chaos::install(d.plan.clone());
        let (mut store, recovery) =
            FaultyStore::open(&dir, d.plan.clone()).expect("open faulty store");
        let (first, agent, answered_first) = self.session(&mut store, recovery, d, false);
        let first = first.map(|report| Outcome::of(report, &agent));
        let injected = (store.injected_crashes(), store.injected_corruptions());
        drop(store);

        alex::parallel::set_threads(d.threads[1]);
        chaos::install(d.plan.clone());
        let (mut store, recovery) = DirectStore::open(&dir).expect("reopen store");
        let recovered_through = recovery
            .snapshot
            .iter()
            .chain(&recovery.journal_tail)
            .map(|(seq, _)| *seq)
            .max()
            .unwrap_or(0);
        let (fresh, truncated_records) = (recovery.is_fresh(), recovery.truncated_records);
        let (resumed, agent, answered_resumed) = self.session(&mut store, recovery, d, true);
        let finished = first
            .as_ref()
            .is_ok_and(|o| o.stop != StopReason::Suspended);
        let resumed = match resumed {
            Ok(report) => Some(Outcome::of(report, &agent)),
            Err(e) if finished && e.contains("already completed") => None,
            Err(e) => panic!("[{}] resumed run: {e}", d.label),
        };
        chaos::clear();
        alex::parallel::set_threads(0);
        let _ = std::fs::remove_dir_all(&dir);
        Trial {
            first,
            injected,
            fresh,
            truncated_records,
            recovered_through,
            resumed,
            answered: answered_first + answered_resumed,
            panics_caught: counter!("panics_caught_total").get() - panics_before,
        }
    }
}

/// What disturbs one run: a fault plan for all three injectors (pool
/// chaos, the store, the endpoints queried on commit), an in-process kill
/// point, the pool widths of the disturbed and the resumed session, a
/// budget supervising the disturbed session only, and the snapshot
/// cadence (the world's when `None`), which moves I/O but not learning.
#[derive(Debug, Clone)]
pub struct Disturbance {
    pub label: String,
    pub plan: FaultPlan,
    pub kill_after: Option<u64>,
    pub threads: [usize; 2],
    pub budget: Option<Budget>,
    pub snapshot_every: Option<u64>,
}

impl Disturbance {
    pub fn new(label: impl Into<String>, plan: FaultPlan) -> Disturbance {
        Disturbance {
            label: label.into(),
            plan,
            kill_after: None,
            threads: [4, 1],
            budget: None,
            snapshot_every: None,
        }
    }

    /// A random disturbance drawn from `seed`: pool chaos, store faults
    /// and endpoint transients at fractional rates, a kill point, pool
    /// widths, an item budget and a snapshot cadence.
    pub fn random(seed: u64) -> Disturbance {
        // The index of one of `n` options, drawn for `salt`.
        let pick = |salt: u64, n: usize| (alex::fault::draw(seed, 0xD15, salt) * n as f64) as usize;
        let plan = FaultPlan {
            seed,
            transient_rate: [0.0, 0.3][pick(1, 2)],
            panic_at: vec![0; pick(2, 2)],
            panic_rate: [0.0, 0.02, 0.1][pick(3, 3)],
            slow_rate: [0.0, 0.05][pick(4, 2)],
            torn_write_rate: [0.0, 0.1, 0.3][pick(5, 3)],
            bit_flip_rate: [0.0, 0.1, 0.3][pick(6, 3)],
            dropped_fsync_rate: [0.0, 0.5][pick(7, 2)],
            crash_between_rename_rate: [0.0, 0.3][pick(8, 2)],
            ..FaultPlan::default()
        };
        Disturbance {
            label: format!("random-{seed}"),
            plan,
            kill_after: [None, Some(1), Some(2), Some(3)][pick(9, 4)],
            threads: [[1, 4][pick(10, 2)], [1, 4][pick(11, 2)]],
            budget: [None, Some(Budget::unlimited().max_items(10))][pick(12, 2)],
            snapshot_every: Some([2, 10][pick(13, 2)]),
        }
    }
}

/// A session's comparable result: the report minus wall-clock durations,
/// its degraded markers, and the agent's full learning state.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub stop: StopReason,
    pub episodes: Vec<String>,
    pub degraded: Vec<bool>,
    pub state: String,
    pub admissions: usize,
    pub initial_f: f64,
    pub final_f: f64,
}

impl Outcome {
    fn of(report: RunReport, agent: &Agent) -> Outcome {
        let mut episodes = vec![format!(
            "initial {:?} relaxed {:?}",
            report.initial_quality, report.relaxed_converged_at
        )];
        episodes.extend(report.episodes.iter().map(|e| {
            format!(
                "ep {} q {:?} +{} -{} rb {}",
                e.episode, e.quality, e.added, e.removed, e.rollbacks
            )
        }));
        Outcome {
            stop: report.stop,
            episodes,
            degraded: report.episodes.iter().map(|e| e.degraded).collect(),
            state: format!("{:?} {:?}", agent.capture_state(), agent.candidate_pairs()),
            admissions: agent.trust_gate().map_or(0, |gate| gate.log.len()),
            initial_f: report.initial_quality.f_measure,
            final_f: report.final_quality().f_measure,
        }
    }
}

/// A disturbed run, its recovery and its resumption.
#[derive(Debug)]
pub struct Trial {
    /// The disturbed session: its outcome, or the error that ended it.
    pub first: Result<Outcome, String>,
    /// Crashes and silent corruptions the store injected.
    pub injected: (u64, u64),
    /// Whether recovery found nothing, and how many records it dropped.
    pub fresh: bool,
    pub truncated_records: u64,
    /// The last episode recovery restored, from snapshot or journal.
    pub recovered_through: u64,
    /// The resumed session; `None` when the disturbed one ran to the end
    /// and recovery found its completed snapshot.
    pub resumed: Option<Outcome>,
    /// Federated queries answered across both sessions.
    pub answered: usize,
    /// Pool panics quarantined across both sessions.
    pub panics_caught: u64,
}

impl Trial {
    /// The one invariant. The resumed run ends in the reference's state
    /// with the reference's episode history, as does a disturbed session
    /// that ran to the end; and where the disturbed session marked
    /// episodes degraded, the markers of the episodes recovery restored
    /// survive resume, while no other episode carries one.
    pub fn assert_recovers(&self, reference: &Outcome, label: &str) {
        let finished = self
            .first
            .as_ref()
            .ok()
            .filter(|o| o.stop != StopReason::Suspended);
        for (leg, got) in [("resumed", self.resumed.as_ref()), ("disturbed", finished)] {
            let Some(got) = got else { continue };
            assert_eq!(got.stop, reference.stop, "[{label}] {leg} stop");
            assert_eq!(got.episodes, reference.episodes, "[{label}] {leg} episodes");
            assert!(
                got.state == reference.state,
                "[{label}] {leg} learning state diverged"
            );
        }
        let committed = self
            .first
            .as_ref()
            .map(|o| o.degraded.clone())
            .unwrap_or_default();
        let resumed = self.resumed.as_ref().map_or(&[][..], |o| &o.degraded[..]);
        for (i, &marked) in resumed.iter().enumerate() {
            let restored = (i as u64) < self.recovered_through;
            let want = restored && committed.get(i).copied().unwrap_or(marked);
            assert_eq!(
                marked,
                want,
                "[{label}] degraded marker of episode {}",
                i + 1
            );
        }
    }
}
