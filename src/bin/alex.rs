//! `alex` — command-line interface to the ALEX stack.
//!
//! ```text
//! alex gen      --out-dir DIR [--pair dbpedia-nytimes] [--seed N]
//! alex stats    FILE...
//! alex link     LEFT RIGHT [--threshold T] [--baseline] [--out links.nt]
//! alex improve  LEFT RIGHT --links L.nt --truth T.nt [options] [--out out.nt]
//! alex query    --data A.nt --data B.nt [--links L.nt] (--query-file F | QUERY)
//! alex report   EVENTS.jsonl... [--metrics F.prom] [--json OUT] [--check-trace T.json]
//! ```
//!
//! `link`, `improve`, and `query` also accept the observability flags
//! `--telemetry FILE.jsonl` (structured event log), `--metrics-dump
//! FILE.prom` (Prometheus text exposition of the global counters),
//! `--verbose` (per-span timing summary on stderr),
//! `--trace FILE.json` (Chrome trace-event timeline, Perfetto-loadable),
//! and `--profile` (worker-attribution table on stderr). `report` turns
//! event logs back into a convergence / latency / completeness summary.
//!
//! Every flag is declared once, in [`FLAGS`], and each command parses its
//! whole command line into typed options before it reads a data file or
//! creates an output file, so a bad flag costs no setup.
//!
//! Data files may be N-Triples (`.nt`) or the supported Turtle subset
//! (`.ttl`). Links are exchanged as `owl:sameAs` N-Triples, so the output
//! of `link`/`improve` is directly usable by any linked-data tool.

// User input must never reach a panic in the CLI layer.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use alex::core::{
    final_links, run_partitioned_with, workload_from_links, Agent, AlexConfig, Durability,
    FeedbackBridge, Judges, PartitionedConfig, Quality, QueryFeedback, RunReport, SourceId,
    SpaceConfig, StopReason, TrustConfig, TrustGate,
};
use alex::fault::{Domain, FaultPlan};
use alex::guard::{BreachPolicy, Budget, PanicPolicy, Supervisor};

use alex::datagen::{all_pairs, generate_pair, AdversaryProfile, DatasetKind, PairSpec};
use alex::linking::{LabelBaseline, LinkerOutput, Paris, ParisConfig};
use alex::rdf::{ntriples, turtle, Dataset, Term};
use alex::sparql::{
    parse, Completeness, DatasetEndpoint, FaultyEndpoint, FederatedEngine, Query, ResilienceConfig,
    SameAsLinks,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("link") => cmd_link(&args[1..]),
        Some("improve") => cmd_improve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => print_out(USAGE),
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
alex — Automatic Link Exploration in Linked Data

USAGE:
  alex gen --out-dir DIR [--pair NAME] [--seed N]
      Generate a synthetic data-set pair with ground truth.
      Writes left.nt, right.nt, truth.nt. NAME is e.g. dbpedia-nytimes
      (default), dbpedia-drugbank, opencyc-lexvo, ... (see DESIGN.md).

  alex stats FILE... [--detail]
      Triple/entity/predicate counts for RDF files (.nt or .ttl);
      --detail adds a per-predicate functionality breakdown.

  alex link LEFT RIGHT [--threshold T] [--baseline] [--out FILE]
      Link two data sets with the PARIS-like aligner (or the label
      baseline) and write owl:sameAs N-Triples (default: stdout).

  alex improve LEFT RIGHT --links FILE --truth FILE
              [--episodes N] [--episode-size K] [--partitions P]
              [--error-rate E] [--out FILE]
      Run ALEX: start from --links, learn from oracle feedback against
      --truth, print per-episode precision/recall/F, and write the
      improved links. --partitions defaults to 4 with one oracle per
      partition, or to 1 when --sources N>1 or --adversary-profile makes
      a source population; the durability, budget, trust and telemetry
      flags change neither that default nor any feedback seed.

  alex query --data FILE [--data FILE ...] [--links FILE]
             (--query-file FILE | QUERY)
      Evaluate a SPARQL query (SELECT or ASK) over one or more data
      sets federated through optional sameAs links; answers produced
      through links show their provenance. Partial results (skipped
      sources) are reported on stderr.

  alex report EVENTS.jsonl [EVENTS.jsonl ...] [--metrics FILE.prom]
              [--format table|json] [--json OUT.json]
              [--check-trace TRACE.json]
      Aggregate one or more runs' --telemetry event logs (plus an
      optional --metrics-dump file) into a run report: per-episode
      F-measure / link-churn convergence, federation cache probe hit ratio
      and completeness, per-endpoint latency p50/p95/p99 and
      retry/breaker counts. --json writes the JSON form to a file;
      --format json prints it instead of the table. --check-trace
      validates a --trace output file (well-formed Chrome trace JSON,
      balanced begin/end pairs per thread, chunks inside dispatches).

  improve also accepts --feedback oracle|query (default oracle).
  With 'query', feedback comes from judging federated query answers
  over the two data sets (the paper's deployment loop) instead of
  sampling the ground truth directly; --queries N caps the workload
  size (default 50) and --episode-size defaults to 200. Both modes
  run the same loop; query feedback runs one partition. --partitions,
  --error-rate and the ADVERSARIAL ROBUSTNESS and DURABILITY flags
  apply to oracle feedback only, --queries and the FAULT TOLERANCE
  flags to query feedback only; a flag the chosen mode does not read
  exits 2. The ANSWER CACHING and SMARTER FEDERATION flags are
  accepted but inert with oracle feedback.

FAULT TOLERANCE (improve --feedback query, and query):
  --fault-profile SPEC      Inject seeded faults into every endpoint, e.g.
                            'seed=7,transient=0.3,truncate=0.1,latency-ms=5,outage=100..200'
                            (rates in [0,1]; outage is a call-index
                            window, 'start..' means forever). Each send
                            of a probe draws its own fate; 'seed=N'
                            alone injects nothing.
  --retries N               Max retry attempts per endpoint probe
                            (default 2; exponential backoff + jitter).
  --backoff-ms MS           Initial retry backoff (default 10).
  --endpoint-budget-ms MS   Per-request deadline; requests past the
                            budget fail with a deadline error (default:
                            none).
  --fail-fast               Turn graceful degradation off: any endpoint
                            failure aborts the query instead of
                            completing partially without that source.

ADVERSARIAL ROBUSTNESS (improve, oracle feedback):
  --trust                   Gate link mutations behind trust-weighted
                            quorum admission: each feedback item is a
                            vote; votes apply only once the voters'
                            trust-weighted net agreement crosses the
                            quorum. Low-trust votes are deferred, never
                            dropped. Admissions contradicted by a later
                            quorum flip or a discredited source are
                            undone by cascading provenance rollback.
  --quorum T                Trust-weighted net agreement required to
                            admit a judgment (default 1.0; fresh
                            sources carry weight 0.5, so two agreeing
                            fresh sources admit). Requires --trust;
                            a quorum --sources fresh sources cannot
                            reach is rejected.
  --sources N               Size of the feedback-source population
                            (default 1; one population per partition).
                            Sources rotate round-robin and carry stable
                            1-based ids.
  --adversary-profile SPEC  Make a seeded fraction of the population
                            adversarial: KIND:FRACTION[:PARAM] with
                            KIND one of flipper (random lies), poisoner
                            (lies only on high-value links), sybil
                            (always lies), coalition (shared seeded
                            target set). E.g. 'poisoner:0.3'.
  These flags compose with --state-dir: trust state (reliability
  posteriors, pending votes, the admission log) is journaled and
  snapshotted, so kill-and-resume preserves the defense exactly.
  Keep them unchanged across --resume invocations.

DURABILITY (improve, oracle feedback):
  --state-dir DIR           Journal every episode and snapshot the full
                            learning state of every partition under DIR; a
                            killed run can be continued with --resume.
                            Durable runs are deterministic: an
                            interrupted-and-resumed run produces exactly
                            the links an uninterrupted one would.
  --resume                  Continue the run found in --state-dir
                            (snapshot restore + journal replay). A fresh
                            directory starts fresh, so --resume is always
                            safe to pass.
  --snapshot-every N        Full-snapshot cadence in episodes (default
                            10; 0 journals only).
  --kill-after N            SIGKILL this process right after the N-th
                            episode commit of this session (crash-safety
                            harness; requires --state-dir).

PARALLELISM (link, improve, query):
  --threads N               Worker threads for the deterministic pool
                            driving space build, PARIS alignment, and
                            federated endpoint dispatch. Default: the
                            ALEX_THREADS env var, else all available
                            cores. Results are byte-identical at any N.
  --panic-policy P          What the pool does when a worker job panics:
                            'quarantine' (default) isolates the panicking
                            chunk and deterministically re-executes it
                            sequentially on the dispatching thread, so
                            output stays byte-identical at any --threads;
                            'fail' re-raises the panic after the dispatch
                            drains (lowest chunk wins, deterministically).
                            A partition's episode round that panicked
                            after it began learning is never re-executed
                            (its agent may be half-updated): the run
                            fails instead.

SUPERVISION (improve):
  --episode-budget-ms MS    Wall-clock budget per episode. Budgets are
                            checked at episode boundaries: an episode is
                            never interrupted mid-flight, it is finalized,
                            committed (when --state-dir), and marked
                            degraded.
  --run-budget-ms MS        Wall-clock budget for the whole run.
  --max-rss-mb MB           Resident-set watermark (from /proc); breach
                            marks the episode degraded like the clocks.
  --budget-policy P         What a breach does next: 'stop' (default)
                            finalizes the breaching episode then stops the
                            run with BudgetExhausted; 'continue' keeps
                            running and only records the degradation.
                            Breach markers are journaled with the episode
                            (--state-dir), so a resumed run replays them.
  --chaos-profile SPEC      Seeded chunk-level fault injection into every
                            pool dispatch (chaos suites), e.g.
                            'seed=7,panic-at-chunk=3+17,panic-rate=0.01,slow-rate=0.05,slow-ms=2,alloc-rate=0.01,alloc-mb=8'.
                            Chunk ids are global and deterministic, so a
                            chaos schedule replays exactly; combined with
                            --panic-policy quarantine the output is still
                            byte-identical to the undisturbed run.

ANSWER CACHING (improve --feedback query, and query):
  --cache                   Enable the LRU answer cache in the
                            federated executor: each endpoint probe
                            (endpoint, s, p, o) is answered from memory
                            once seen, and an endpoint request carries
                            only the unseen probes. A probe's answer does
                            not depend on links, so link changes keep
                            every entry. Output is byte-identical with
                            the cache on or off, at any --threads, when
                            endpoints answer (fault-free or retry-masked).
                            Accepted but inert for oracle-feedback
                            improve (so resume invocations can keep their
                            flags unchanged).
  --cache-capacity N        Max cached probe answers (default 4096;
                            requires --cache). Counters, in probes:
                            cache_hits_total, cache_misses_total,
                            cache_evictions_total.

SMARTER FEDERATION (improve --feedback query, and query):
  --catalog probe           Consult a per-endpoint predicate/class
                            coverage catalog so the executor only
                            dispatches each triple pattern to endpoints
                            that can possibly answer it, instead of
                            broadcasting. The catalog is built by
                            scanning every endpoint once at startup
                            ('probe' is the only accepted value). Since
                            the scan saw every triple, pruning never
                            changes answers or downgrades completeness —
                            only endpoints that provably hold no
                            matching triple are skipped. Counters:
                            federation_pruned_probes_total.

OBSERVABILITY (link, improve, and query):
  --telemetry FILE.jsonl    Write the structured event log (one JSON
                            object per line: episodes, one
                            feedback_applied record per feedback step,
                            federated query stats, ...).
  --metrics-dump FILE.prom  Dump the global metrics registry in
                            Prometheus text exposition format on exit.
  --verbose                 Print the per-span wall-clock summary to
                            stderr on exit.
  --trace FILE.json         Record the span/worker timeline and write it
                            as Chrome trace-event JSON on exit — load it
                            in Perfetto (ui.perfetto.dev) or
                            chrome://tracing. Worker-pool chunks appear
                            as spans labelled {pool, worker, chunk}
                            nested under the dispatching caller.
  --profile                 Record the same timeline and print the
                            attribution table on exit: per-phase self
                            time, per-worker busy/idle, chunk-cost skew,
                            and a per-pool critical-path estimate.
";

/// Every flag, declared once. Each group lists the commands that accept
/// its flags; a trailing `=` marks a flag that takes a value. Any other
/// `--name` is an unknown flag for that command.
#[rustfmt::skip]
const FLAGS: &[(&[&str], &str)] = &[
    (&["gen"], "out-dir= pair= seed="),
    (&["stats"], "detail"),
    (&["link"], "threshold= baseline"),
    (&["link", "improve"], "out="),
    (&["improve", "query"], "links="),
    (&["improve"], "truth= feedback= queries= episodes= episode-size= partitions= error-rate="),
    (&["improve"], "state-dir= resume snapshot-every= kill-after="),
    (&["improve"], "trust quorum= sources= adversary-profile="),
    (&["improve"], "episode-budget-ms= run-budget-ms= max-rss-mb= budget-policy="),
    (&["query"], "data= query-file="),
    (&["improve", "query"], "fault-profile= retries= backoff-ms= endpoint-budget-ms= fail-fast"),
    (&["improve", "query"], "cache cache-capacity= catalog="),
    (&["link", "improve", "query"], "threads= panic-policy= chaos-profile="),
    (&["link", "improve", "query"], "telemetry= metrics-dump= verbose trace= profile"),
    (&["report"], "metrics= json= format= check-trace="),
];

/// One command line checked against [`FLAGS`]: the positional arguments
/// and the given flags in order, each with its value (`None` for a
/// switch). Reading a flag or a positional marks it, so [`Args::finish`]
/// can reject one the command accepts but the chosen mode never read.
struct Args {
    positional: Vec<String>,
    /// How many leading positionals were read.
    positionals_read: Cell<usize>,
    flags: Vec<(&'static str, Option<String>, Cell<bool>)>,
}

impl Args {
    fn parse(cmd: &str, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            positionals_read: Cell::new(0),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.positional.push(arg.clone());
                continue;
            };
            let declared = FLAGS
                .iter()
                .filter(|(commands, _)| commands.contains(&cmd))
                .flat_map(|&(_, names)| names.split_whitespace())
                .find(|decl| decl.trim_end_matches('=') == name);
            let Some(decl) = declared else {
                return Err(format!("unknown flag --{name} for `alex {cmd}`"));
            };
            let name = decl.trim_end_matches('=');
            let missing = || format!("--{name} requires a value");
            let value = match decl.ends_with('=') {
                true => Some(args.next().ok_or_else(missing)?.clone()),
                false => None,
            };
            parsed.flags.push((name, value, Cell::new(false)));
        }
        Ok(parsed)
    }

    /// Every positional argument; marks them all read.
    fn positionals(&self) -> &[String] {
        self.positionals_read.set(self.positional.len());
        &self.positional
    }

    /// The first positional argument; marks it read.
    fn first_positional(&self) -> Option<&String> {
        self.positionals_read
            .set(self.positionals_read.get().max(1));
        self.positional.first()
    }

    /// The value of every `--name` given, in order; marks the flag read.
    fn all(&self, name: &str) -> Vec<Option<&str>> {
        let given = self.flags.iter().filter(|(n, ..)| *n == name);
        given
            .map(|(_, value, read)| {
                read.set(true);
                value.as_deref()
            })
            .collect()
    }

    /// Whether `--name` was given.
    fn has(&self, name: &str) -> bool {
        !self.all(name).is_empty()
    }

    /// The last value given for `--name`.
    fn value(&self, name: &str) -> Option<&str> {
        self.all(name).pop().flatten()
    }

    /// `--name V` parsed as a `T`; `None` when the flag is absent.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value '{v}' for --{name}"))
            })
            .transpose()
    }

    fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// `--name N` parsed as a count of at least 1; `None` when absent.
    fn count<T: FromStr + From<u8> + PartialEq>(&self, name: &str) -> Result<Option<T>, String> {
        match self.parsed(name)? {
            Some(n) if n == T::from(0) => Err(format!("--{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A probability-like flag: a finite number in `[0, 1]`.
    fn unit(&self, name: &str, default: f64) -> Result<f64, String> {
        let v: f64 = self.parsed_or(name, default)?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(format!("--{name} must be a number in [0, 1], got {v}"))
        }
    }

    /// Set an [`AlexConfig`] field from `--name` (or `default`) and let the
    /// config judge the value: one it rejects is an error naming the flag.
    fn config_field<T: FromStr>(
        &self,
        cfg: &mut AlexConfig,
        name: &str,
        default: T,
        set: impl FnOnce(&mut AlexConfig, T),
    ) -> Result<(), String> {
        set(cfg, self.parsed_or(name, default)?);
        cfg.validate().map_err(|e| format!("--{name}: {e}"))
    }

    /// The end of a command's parse: a given flag or positional that
    /// `alex {by}` never read is an error naming it, not a silent no-op.
    fn finish(&self, by: &str) -> Result<(), String> {
        if let Some(arg) = self.positional.get(self.positionals_read.get()) {
            return Err(format!("argument '{arg}' is not read by `alex {by}`"));
        }
        match self.flags.iter().find(|(.., read)| !read.get()) {
            Some((name, ..)) => Err(format!("--{name} is not read by `alex {by}`")),
            None => Ok(()),
        }
    }
}

/// The pool and observability options `link`, `improve` and `query`
/// share.
struct RunOpts {
    threads: Option<usize>,
    panic_policy: Option<PanicPolicy>,
    chaos: Option<FaultPlan>,
    telemetry: Option<String>,
    metrics_dump: Option<String>,
    verbose: bool,
    trace: Option<String>,
    profile: bool,
}

impl RunOpts {
    fn parse(args: &Args) -> Result<RunOpts, String> {
        let panic_policy = args.value("panic-policy").map(str::parse).transpose();
        Ok(RunOpts {
            threads: args.count("threads")?,
            panic_policy: panic_policy.map_err(|e: String| format!("--panic-policy: {e}"))?,
            chaos: fault_plan(args, "chaos-profile", Domain::Pool)?,
            telemetry: args.value("telemetry").map(str::to_string),
            metrics_dump: args.value("metrics-dump").map(str::to_string),
            verbose: args.has("verbose"),
            trace: args.value("trace").map(str::to_string),
            profile: args.has("profile"),
        })
    }

    /// The run's first effects, once every flag has parsed and the input
    /// files have loaded (so an unreadable input leaves no log): apply the
    /// process-global pool settings (without `--threads` the pool keeps its
    /// own resolution order — the ALEX_THREADS env var, else
    /// `available_parallelism`), attach the JSONL event sink and enable the
    /// timeline recorder.
    fn start(&self) -> Result<(), String> {
        if let Some(n) = self.threads {
            alex::parallel::set_threads(n);
        }
        if let Some(policy) = self.panic_policy {
            alex::parallel::set_panic_policy(policy);
        }
        if let Some(plan) = &self.chaos {
            alex::guard::chaos::install(plan.clone());
        }
        if let Some(path) = &self.telemetry {
            let sink = alex::telemetry::JsonlFileSink::create(path)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            alex::telemetry::global()
                .events()
                .attach(std::sync::Arc::new(sink));
        }
        if self.trace.is_some() || self.profile {
            alex::telemetry::timeline::enable();
        }
        Ok(())
    }

    /// Flush the event log; write the metrics dump, trace, attribution
    /// table and span summary that were asked for.
    fn finish(&self) -> Result<(), String> {
        let telemetry = alex::telemetry::global();
        telemetry.events().flush();
        if self.trace.is_some() || self.profile {
            // One drain serves both consumers.
            let traces = alex::telemetry::timeline::drain();
            if let Some(path) = &self.trace {
                alex::telemetry::write_chrome_trace(path, &traces)
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if self.profile {
                eprint!("{}", alex::telemetry::attribute(&traces).render_table());
            }
        }
        if let Some(path) = &self.metrics_dump {
            std::fs::write(path, telemetry.metrics().render_prometheus())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        if self.verbose {
            eprint!("{}", telemetry.spans().render_summary());
        }
        Ok(())
    }
}

/// Run-supervision options: the budget plus what to do on breach.
#[derive(Debug, PartialEq)]
struct GuardOpts {
    budget: Budget,
    policy: BreachPolicy,
}

/// Parse and validate the budget-supervision flags. `None` when no budget
/// flag was given; an error when `--budget-policy` appears alone (a policy
/// with nothing to police is a spelling mistake, not a request).
fn guard_opts(args: &Args) -> Result<Option<GuardOpts>, String> {
    let mut budget = Budget::unlimited();
    if let Some(ms) = args.parsed("episode-budget-ms")? {
        budget = budget.episode_wall_ms(ms);
    }
    if let Some(ms) = args.parsed("run-budget-ms")? {
        budget = budget.run_wall_ms(ms);
    }
    if let Some(mb) = args.parsed("max-rss-mb")? {
        budget = budget.max_rss_mb(mb);
    }
    let policy = args.value("budget-policy");
    if budget.is_unlimited() {
        if policy.is_some() {
            return Err("--budget-policy requires a budget flag \
                        (--episode-budget-ms, --run-budget-ms, or --max-rss-mb)"
                .into());
        }
        return Ok(None);
    }
    let policy = policy.map_or(Ok(BreachPolicy::Stop), str::parse);
    let policy = policy.map_err(|e: String| format!("--budget-policy: {e}"))?;
    Ok(Some(GuardOpts { budget, policy }))
}

/// Print the supervision verdict after a supervised run.
fn print_supervision(sup: &Supervisor, report: &RunReport) {
    for breach in sup.breach_log() {
        eprintln!("budget breach: {breach}");
    }
    eprintln!(
        "supervision: {} breach(es), {} degraded episode(s); run {}",
        sup.breaches(),
        report.degraded_episodes(),
        if report.is_complete() {
            "complete"
        } else {
            "incomplete (degraded)"
        }
    );
}

/// `--cache` / `--cache-capacity N` → Some(capacity) when the answer
/// cache is requested. `--cache-capacity` without `--cache` is rejected
/// rather than silently ignored.
fn cache_opts(args: &Args) -> Result<Option<usize>, String> {
    match (args.has("cache"), args.has("cache-capacity")) {
        (false, true) => Err("--cache-capacity requires --cache".into()),
        (false, false) => Ok(None),
        (true, _) => Ok(Some(args.count("cache-capacity")?.unwrap_or(4096))),
    }
}

/// `--catalog probe` → whether to build the predicate-coverage catalog
/// the executor consults to prune endpoints; without it every pattern is
/// broadcast. A catalog only ever comes from scanning the endpoints, so
/// any other value is an error.
fn catalog_opts(args: &Args) -> Result<bool, String> {
    match args.value("catalog") {
        None => Ok(false),
        Some("probe") => Ok(true),
        Some(other) => Err(format!("--catalog must be 'probe', got '{other}'")),
    }
}

/// Parse the fault-plan flag `name` when present: `--fault-profile` takes
/// the federation keys, `--chaos-profile` the pool keys.
fn fault_plan(args: &Args, name: &str, domain: Domain) -> Result<Option<FaultPlan>, String> {
    args.value(name)
        .map(|spec| FaultPlan::parse_for(spec, domain).map_err(|e| format!("--{name}: {e}")))
        .transpose()
}

/// Federated-engine options (`query` and `improve --feedback query`).
struct FederationOpts {
    cache: Option<usize>,
    catalog: bool,
    faults: Option<FaultPlan>,
    resilience: ResilienceConfig,
}

fn federation_opts(args: &Args) -> Result<FederationOpts, String> {
    let mut opts = FederationOpts {
        cache: cache_opts(args)?,
        catalog: catalog_opts(args)?,
        faults: fault_plan(args, "fault-profile", Domain::Federation)?,
        resilience: ResilienceConfig::default(),
    };
    let resilience = &mut opts.resilience;
    if let Some(retries) = args.parsed("retries")? {
        resilience.retry.max_retries = retries;
    }
    if let Some(ms) = args.parsed("backoff-ms")? {
        resilience.retry.initial_backoff = Duration::from_millis(ms);
    }
    let budget = args.parsed("endpoint-budget-ms")?;
    resilience.endpoint_budget = budget.map(Duration::from_millis);
    resilience.fail_fast = args.has("fail-fast");
    Ok(opts)
}

/// A federated engine with one endpoint per data set (wrapped in the fault
/// injector under `--fault-profile`), `links`, and the resilience, cache
/// and catalog options applied; the catalog is probed last, so every
/// endpoint gets an entry.
fn federated_engine(
    datasets: Vec<Arc<Dataset>>,
    links: Option<SameAsLinks>,
    opts: &FederationOpts,
) -> Result<FederatedEngine, String> {
    let mut engine = FederatedEngine::new();
    for ds in datasets {
        let endpoint = DatasetEndpoint::new(ds);
        match &opts.faults {
            Some(p) => engine.add_endpoint(Box::new(FaultyEndpoint::new(endpoint, p.clone()))),
            None => engine.add_endpoint(Box::new(endpoint)),
        }
    }
    if let Some(links) = links {
        engine.set_links(links);
    }
    engine.set_resilience(opts.resilience.clone());
    if let Some(capacity) = opts.cache {
        engine.enable_cache(capacity);
    }
    if opts.catalog {
        // After every endpoint is registered, so each gets an entry; a
        // scan failure aborts rather than leave an endpoint uncovered.
        let catalog = engine
            .build_catalog()
            .map_err(|e| format!("--catalog probe: {e}"))?;
        engine.set_catalog(Some(catalog));
    }
    Ok(engine)
}

/// Load an RDF file, dispatching on extension (.ttl → Turtle, else
/// N-Triples).
fn load_dataset(path: &str) -> Result<Dataset, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("data")
        .to_string();
    let mut ds = Dataset::new(name);
    if path.ends_with(".ttl") {
        turtle::parse_into(&mut ds, &content).map_err(|e| format!("{path}: {e}"))?;
    } else {
        ntriples::parse_into(&mut ds, &content).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(ds)
}

/// Load owl:sameAs pairs from a file.
fn load_links(path: &str) -> Result<SameAsLinks, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    SameAsLinks::from_ntriples(&content).map_err(|e| format!("{path}: {e}"))
}

fn write_or_print(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => print_out(content),
    }
}

/// Write `text` to stdout. A reader that closed the pipe early (`alex
/// report LOG | head -1`) already has what it wanted, so that is not an
/// error, where `print!` would panic.
fn print_out(text: &str) -> Result<(), String> {
    use std::io::Write;
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

/// `println!` through [`print_out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        print_out(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// Durable-run options (`--state-dir` and friends), validated as a group.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DurableOpts {
    state_dir: String,
    snapshot_every: u64,
    resume: bool,
    kill_after: Option<u64>,
}

/// Parse and validate the durability flags. `None` when no `--state-dir`
/// was given; an error when a dependent flag appears without it (or with a
/// setting durable runs cannot honor).
fn durable_opts(args: &Args) -> Result<Option<DurableOpts>, String> {
    let state_dir = args.value("state-dir");
    for dependent in ["resume", "snapshot-every", "kill-after"] {
        if args.has(dependent) && state_dir.is_none() {
            return Err(format!(
                "--{dependent} requires --state-dir: it only applies to durable runs"
            ));
        }
    }
    let Some(dir) = state_dir else {
        return Ok(None);
    };
    Ok(Some(DurableOpts {
        state_dir: dir.to_string(),
        snapshot_every: args.parsed_or("snapshot-every", 10u64)?,
        resume: args.has("resume"),
        kill_after: args.count("kill-after")?,
    }))
}

/// Parse the trust gate (`--trust`, `--quorum`) and the judges (`--sources`,
/// `--adversary-profile`). A gate that can never admit is an error: trust
/// moves only when a vote settles, so fresh voters must reach the quorum.
fn robustness_opts(args: &Args) -> Result<(Option<TrustConfig>, Judges), String> {
    let quorum = args.parsed("quorum")?;
    let trust = match (args.has("trust"), quorum) {
        (false, Some(_)) => return Err("--quorum requires --trust".into()),
        (false, None) => None,
        (true, quorum) => {
            let mut cfg = TrustConfig::default();
            cfg.quorum = quorum.unwrap_or(cfg.quorum);
            cfg.validate().map_err(|e| format!("--quorum: {e}"))?;
            Some(cfg)
        }
    };
    let profile = args.value("adversary-profile").map(AdversaryProfile::parse);
    let profile = profile
        .transpose()
        .map_err(|e| format!("--adversary-profile: {e}"))?;
    let sources = args.count("sources")?.unwrap_or(1);
    if let Some(cfg) = trust {
        let most = sources as f64 * TrustGate::new(cfg).weight(SourceId::ANONYMOUS);
        if most < cfg.quorum {
            return Err(format!(
                "--trust can never admit a judgment: {sources} fresh source(s) (--sources) \
                 weigh {most}, below --quorum {}",
                cfg.quorum
            ));
        }
    }
    Ok((trust, Judges::new(sources, profile)))
}

fn pair_spec_by_name(name: &str) -> Result<PairSpec, String> {
    let normalize = |s: &str| s.to_lowercase().replace([' ', '_'], "-");
    let target = normalize(name);
    for spec in all_pairs() {
        let label = normalize(&spec.label())
            .replace(" - ", "-")
            .replace("--", "-");
        let short = format!(
            "{}-{}",
            normalize(spec.left.paper_name()),
            normalize(spec.right.paper_name())
        )
        .replace("-(nba)", "-nba");
        if label == target || short == target {
            return Ok(spec);
        }
    }
    // Friendly aliases.
    let alias = match target.as_str() {
        "nba" => Some((DatasetKind::DBpediaNba, DatasetKind::NYTimes)),
        _ => None,
    };
    if let Some((l, r)) = alias {
        return Ok(PairSpec::of(l, r));
    }
    Err(format!(
        "unknown pair '{name}'; try e.g. dbpedia-nytimes, dbpedia-drugbank, opencyc-lexvo"
    ))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let args = Args::parse("gen", args)?;
    let out_dir = args.value("out-dir").ok_or("--out-dir is required")?;
    let spec = pair_spec_by_name(args.value("pair").unwrap_or("dbpedia-nytimes"))?;
    let seed: u64 = args.parsed_or("seed", 20160501)?;
    args.finish("gen")?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let pair = generate_pair(&spec.config(seed));
    let write = |file: &str, content: String| -> Result<(), String> {
        let path = format!("{out_dir}/{file}");
        std::fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok(())
    };
    write("left.nt", ntriples::serialize(&pair.left))?;
    write("right.nt", ntriples::serialize(&pair.right))?;
    let truth_links = SameAsLinks::from_pairs(pair.ground_truth.iter().map(|&(l, r)| {
        (
            pair.left.resolve(l).to_string(),
            pair.right.resolve(r).to_string(),
        )
    }));
    write("truth.nt", truth_links.to_ntriples())?;
    eprintln!(
        "generated '{}': {} + {} triples, {} ground-truth links (seed {seed})",
        spec.label(),
        pair.left.len(),
        pair.right.len(),
        pair.gt_len()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let args = Args::parse("stats", args)?;
    let files = args.positionals();
    if files.is_empty() {
        return Err("stats requires at least one file".into());
    }
    let detailed = args.has("detail");
    args.finish("stats")?;
    if !detailed {
        outln!(
            "{:<28} {:>9} {:>9} {:>11}",
            "file",
            "triples",
            "entities",
            "predicates"
        )?;
    }
    for f in files {
        let ds = load_dataset(f)?;
        if detailed {
            print_out(&alex::rdf::DatasetStats::of(&ds).report(&ds))?;
        } else {
            outln!(
                "{:<28} {:>9} {:>9} {:>11}",
                f,
                ds.len(),
                ds.entities().count(),
                ds.graph().predicates().count()
            )?;
        }
    }
    Ok(())
}

fn cmd_link(args: &[String]) -> Result<(), String> {
    let args = Args::parse("link", args)?;
    let [left_path, right_path] = args.positionals() else {
        return Err("link requires exactly two data files".into());
    };
    let threshold = args.unit("threshold", 0.80)?;
    let baseline = args.has("baseline");
    let out = args.value("out");
    let run = RunOpts::parse(&args)?;
    args.finish("link")?;
    let left = load_dataset(left_path)?;
    let right = load_dataset(right_path)?;
    run.start()?;

    let started = std::time::Instant::now();
    let output: LinkerOutput = if baseline {
        LabelBaseline {
            threshold,
            ..LabelBaseline::default()
        }
        .link(&left, &right)
    } else {
        Paris::with_config(ParisConfig {
            output_threshold: threshold,
            ..ParisConfig::default()
        })
        .link(&left, &right)
    };
    eprintln!(
        "linked {} x {} entities -> {} links in {:.2?}",
        output.left_index.len(),
        output.right_index.len(),
        output.links.len(),
        started.elapsed()
    );
    let links = SameAsLinks::from_pairs(
        output
            .term_pairs()
            .into_iter()
            .map(|(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
    );
    write_or_print(out, &links.to_ntriples())?;
    run.finish()
}

/// Validated `alex improve` options. `federation`, with the `--queries`
/// workload size, is set exactly under query feedback; `durable` and
/// `judges` are read only under oracle feedback.
struct ImproveOpts {
    left: String,
    right: String,
    links: String,
    truth: String,
    out: Option<String>,
    cfg: PartitionedConfig,
    federation: Option<(FederationOpts, usize)>,
    durable: Option<DurableOpts>,
    judges: Judges,
    guard: Option<GuardOpts>,
    run: RunOpts,
}

/// Parse `alex improve`. `--feedback oracle|query` (default oracle) is
/// read first, so a misspelled mode is reported as such; then the flags
/// that mode reads, and a given flag it never read is an error naming
/// flag and mode. Query feedback runs one unpartitioned agent judged by
/// federated answers: no noisy oracle, no journal (live answers cannot be
/// replayed deterministically) and no source population (answers carry no
/// user attribution for the trust gate).
fn improve_opts(args: &Args) -> Result<ImproveOpts, String> {
    let [left, right] = args.positionals() else {
        return Err("improve requires exactly two data files".into());
    };
    let mode = args.value("feedback").unwrap_or("oracle");
    let (federation, durable, (trust, judges)) = match mode {
        "oracle" => {
            // Checked, but inert with oracle feedback, so a `--resume`
            // command line can keep them.
            cache_opts(args)?;
            catalog_opts(args)?;
            (None, durable_opts(args)?, robustness_opts(args)?)
        }
        "query" => {
            let queries = args.parsed_or("queries", 50)?;
            let federation = Some((federation_opts(args)?, queries));
            (federation, None, (None, Judges::Oracle))
        }
        other => {
            return Err(format!(
                "--feedback must be 'oracle' or 'query', got '{other}'"
            ))
        }
    };
    let query = federation.is_some();
    let run = RunOpts::parse(args)?;
    let guard = guard_opts(args)?;
    let mut alex = AlexConfig {
        trust,
        ..AlexConfig::default()
    };
    let episode_size = if query { 200 } else { 1000 };
    args.config_field(&mut alex, "episode-size", episode_size, |c, n| {
        c.episode_size = n
    })?;
    args.config_field(&mut alex, "episodes", 40, |c, n| c.max_episodes = n)?;
    let (partitions, feedback_error_rate) = match query {
        true => (1, 0.0),
        false => (
            args.count("partitions")?
                .unwrap_or(judges.default_partitions()),
            args.unit("error-rate", 0.0)?,
        ),
    };
    let cfg = PartitionedConfig {
        partitions,
        alex,
        space: SpaceConfig::default(),
        feedback_error_rate,
    };
    let opts = ImproveOpts {
        left: left.clone(),
        right: right.clone(),
        links: args.value("links").ok_or("--links is required")?.into(),
        truth: args.value("truth").ok_or("--truth is required")?.into(),
        out: args.value("out").map(str::to_string),
        cfg,
        federation,
        durable,
        judges,
        guard,
        run,
    };
    args.finish(&format!("improve --feedback {mode}"))?;
    Ok(opts)
}

fn cmd_improve(args: &[String]) -> Result<(), String> {
    let opts = improve_opts(&Args::parse("improve", args)?)?;
    let left = Arc::new(load_dataset(&opts.left)?);
    let right = Arc::new(load_dataset(&opts.right)?);
    let links = load_links(&opts.links)?;
    let truth = load_links(&opts.truth)?;
    opts.run.start()?;
    improve(&left, &right, &links, &truth, &opts)?;
    opts.run.finish()
}

/// `(left term, right term)` pairs of the links whose IRIs both data sets
/// know.
fn term_pairs(left: &Dataset, right: &Dataset, set: &SameAsLinks) -> Vec<(Term, Term)> {
    set.iter()
        .filter_map(|l| {
            let lt = left.interner().get(&l.left).map(Term::Iri)?;
            let rt = right.interner().get(&l.right).map(Term::Iri)?;
            Some((lt, rt))
        })
        .collect()
}

/// Print the initial and per-episode quality and the stop line on stdout,
/// and the run's wall time on stderr, so identical runs print identical
/// stdout.
fn print_run(report: &RunReport) -> Result<(), String> {
    let print_q = |tag: &str, q: Quality| {
        outln!(
            "{tag:>8}  P {:.3}  R {:.3}  F {:.3}",
            q.precision,
            q.recall,
            q.f_measure
        )
    };
    print_q("initial", report.initial_quality)?;
    for e in &report.episodes {
        print_q(&format!("ep {}", e.episode), e.quality)?;
    }
    outln!(
        "stopped: {:?} after {} episodes",
        report.stop,
        report.episodes.len()
    )?;
    eprintln!("run time: {:.2?}", report.total_duration);
    Ok(())
}

/// Wrap an opened state dir in the run's durability settings. With
/// `--kill-after N` the process SIGKILLs itself right after the N-th
/// episode commit of this session.
fn durability<'a>(
    opts: &DurableOpts,
    store: &'a mut alex::store::DirectStore,
    recovery: alex::store::Recovery,
) -> Durability<'a> {
    if !recovery.is_fresh() {
        eprintln!(
            "recovering from {}: snapshot {}, {} journal episode(s){}",
            opts.state_dir,
            recovery
                .snapshot
                .as_ref()
                .map(|(seq, _)| seq.to_string())
                .unwrap_or_else(|| "none".into()),
            recovery.journal_tail.len(),
            if recovery.repaired() {
                " (repaired torn/corrupt records)"
            } else {
                ""
            }
        );
    }
    let durability = Durability::new(store, recovery)
        .snapshot_every(opts.snapshot_every)
        .resume(opts.resume);
    let Some(kill_after) = opts.kill_after else {
        return durability;
    };
    let mut commits_this_session = 0u64;
    durability.on_commit(move |episode| {
        commits_this_session += 1;
        if commits_this_session == kill_after {
            // A genuine SIGKILL — no unwinding, no destructors, no
            // flushing — exactly what the crash-safety tests need.
            eprintln!("kill-after: SIGKILL at episode {episode} commit");
            let _ = std::process::Command::new("kill")
                .args(["-9", &std::process::id().to_string()])
                .status();
            // Unreachable once the signal lands; sleep so we never race
            // past the commit boundary and run another episode.
            std::thread::sleep(Duration::from_secs(60));
        }
    })
}

/// `improve`, in either feedback mode, over the partitions built and run
/// by `run_partitioned_with`; the mode picks only each partition's
/// feedback source and the suffix of the "initial links" line. Oracle
/// feedback: `opts.judges` alone make and seed each partition's source;
/// `--state-dir`, `--trust` and the budget flags only observe. Query
/// feedback, the paper's deployment loop: one partition judged by
/// federated query answers through the bridge; under `--fault-profile` the
/// loop skips episodes whose every judgment was withheld. In both modes
/// budget flags mark overrunning episodes degraded.
fn improve(
    left: &Arc<Dataset>,
    right: &Arc<Dataset>,
    links: &SameAsLinks,
    truth: &SameAsLinks,
    opts: &ImproveOpts,
) -> Result<(), String> {
    let cfg = &opts.cfg;
    let initial = term_pairs(left, right, links);
    let truth_pairs = term_pairs(left, right, truth);
    if truth_pairs.is_empty() {
        return Err("no ground-truth link references entities of these data sets".into());
    }
    // Query feedback's workload is anchored on ground-truth links: each
    // query is answerable only by crossing a sameAs link, so its answers
    // carry judgeable provenance.
    let mut workload = None;
    let setup = match &opts.federation {
        Some((federation, queries)) => {
            let truth_iris: Vec<(String, String)> = truth
                .iter()
                .map(|l| (l.left.clone(), l.right.clone()))
                .collect();
            let queries = workload_from_links(left, right, &truth_iris, *queries);
            if queries.is_empty() {
                return Err(
                    "could not derive any federated query from the ground-truth links".into(),
                );
            }
            let setup = format!("; workload: {} queries", queries.len());
            workload = Some((federation, queries));
            setup
        }
        None => {
            let mut setup = format!("partitions: {}", cfg.partitions);
            if let Judges::Population { sources, profile } = opts.judges {
                let spec = profile.map(|p| format!("{:?}:{}:{}", p.kind, p.fraction, p.param));
                let spec = spec.map_or("none".into(), |s| s.to_lowercase());
                setup += &format!(", sources: {sources}, adversary: {spec}");
            }
            if cfg.alex.trust.is_some() {
                setup += ", trust: on";
            }
            if let Some(d) = &opts.durable {
                setup += &format!(", durable: {}", d.state_dir);
            }
            format!(" ({setup})")
        }
    };
    eprintln!(
        "initial links: {} usable of {}; ground truth: {} usable of {}{setup}",
        initial.len(),
        links.len(),
        truth_pairs.len(),
        truth.len(),
    );

    // The engine is built before the spaces, so a failed catalog probe
    // stops the run before the space build.
    let mut federation = match workload {
        Some((federation, queries)) => Some((
            federated_engine(vec![Arc::clone(left), Arc::clone(right)], None, federation)?,
            queries,
        )),
        None => None,
    };
    let mut store;
    let durability = match &opts.durable {
        None => None,
        Some(opts) => {
            let (opened, recovery) = alex::store::DirectStore::open(Path::new(&opts.state_dir))
                .map_err(|e| format!("cannot open state dir {}: {e}", opts.state_dir))?;
            store = opened;
            Some(durability(opts, &mut store, recovery))
        }
    };
    let mut supervisor = opts
        .guard
        .as_ref()
        .map(|g| Supervisor::new(g.budget, g.policy));
    let (report, agents) = run_partitioned_with(
        left,
        right,
        &initial,
        &truth_pairs,
        cfg,
        // Query feedback runs one partition: its one source takes the engine.
        |i, space, truth| match federation.take() {
            Some((engine, queries)) => {
                let bridge =
                    FeedbackBridge::new(left, space.left_index(), right, space.right_index());
                Box::new(QueryFeedback::new(
                    engine,
                    Arc::clone(left),
                    Arc::clone(right),
                    queries,
                    bridge,
                    truth.clone(),
                ))
            }
            None => opts.judges.source(i, truth, cfg),
        },
        durability,
        supervisor.as_mut(),
    )?;

    if let Some(sup) = &supervisor {
        print_supervision(sup, &report);
    }
    print_run(&report)?;
    if report.withheld_judgments > 0 {
        eprintln!(
            "{} judgment(s) withheld because queries degraded (skipped sources)",
            report.withheld_judgments
        );
    }
    if report.failed_queries > 0 {
        eprintln!(
            "{} federated query(ies) failed (endpoint errors under --fail-fast)",
            report.failed_queries
        );
    }
    let gates: Vec<_> = agents.iter().filter_map(Agent::trust_gate).collect();
    if !gates.is_empty() {
        // Summed over the partitions' gates.
        let sum = |f: fn(&TrustGate) -> usize| gates.iter().map(|g| f(g)).sum::<usize>();
        eprintln!(
            "trust: {} admissions ({} revoked), {} votes pending on {} links, \
             {} sources discredited",
            sum(|g| g.log.len()),
            sum(|g| g.log.iter().filter(|r| r.revoked).count()),
            sum(|g| g.buffer.pending_votes()),
            sum(|g| g.buffer.pending_links()),
            sum(|g| g.discredited.len()),
        );
    }
    if let (StopReason::Suspended, Some(d)) = (report.stop, &opts.durable) {
        eprintln!(
            "run suspended; continue with: alex improve ... --state-dir {} --resume",
            d.state_dir
        );
    }
    let Some(out) = &opts.out else {
        return Ok(());
    };
    let set = SameAsLinks::from_pairs(
        final_links(&agents)
            .iter()
            .map(|&(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
    );
    write_or_print(Some(out), &set.to_ntriples())
}

/// Validated `alex query` options; the query is already parsed.
struct QueryOpts {
    data: Vec<String>,
    links: Option<String>,
    query: Query,
    federation: FederationOpts,
    run: RunOpts,
}

fn query_opts(args: &Args) -> Result<QueryOpts, String> {
    let data: Vec<String> = args
        .all("data")
        .into_iter()
        .flatten()
        .map(String::from)
        .collect();
    if data.is_empty() {
        return Err("query requires at least one --data file".into());
    }
    let federation = federation_opts(args)?;
    let run = RunOpts::parse(args)?;
    let text = match args.value("query-file") {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("--query-file: cannot read {path}: {e}"))?,
        None => args
            .first_positional()
            .cloned()
            .ok_or("provide a query string or --query-file")?,
    };
    let opts = QueryOpts {
        data,
        links: args.value("links").map(str::to_string),
        query: parse(&text).map_err(|e| format!("query: {e}"))?,
        federation,
        run,
    };
    args.finish("query")?;
    Ok(opts)
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let opts = query_opts(&Args::parse("query", args)?)?;
    let datasets = opts
        .data
        .iter()
        .map(|f| load_dataset(f).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let links = opts.links.as_deref().map(load_links).transpose()?;
    opts.run.start()?;
    let engine = federated_engine(datasets, links, &opts.federation)?;
    let query = &opts.query;

    if query.kind == alex::sparql::QueryKind::Ask {
        let answer = engine.ask(query).map_err(|e| format!("evaluation: {e}"))?;
        outln!("{answer}")?;
        return opts.run.finish();
    }
    let result = engine
        .execute_full(query)
        .map_err(|e| format!("evaluation: {e}"))?;
    if let Completeness::Partial { skipped_sources } = &result.completeness {
        eprintln!(
            "warning: partial result — skipped source(s): {}",
            skipped_sources.join(", ")
        );
    }
    let answers = result.answers;
    let vars = query.projection();
    outln!("{}", vars.join("\t"))?;
    for a in &answers {
        let row: Vec<String> = vars
            .iter()
            .map(|v| {
                a.bindings
                    .get(v)
                    .map(|val| val.to_string())
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        if a.links_used.is_empty() {
            outln!("{}", row.join("\t"))?;
        } else {
            let prov: Vec<String> = a
                .links_used
                .iter()
                .map(|l| format!("{} sameAs {}", l.left, l.right))
                .collect();
            outln!("{}\t# via {}", row.join("\t"), prov.join("; "))?;
        }
    }
    eprintln!("{} answer(s)", answers.len());
    opts.run.finish()
}

/// Output shape for `alex report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Table,
    Json,
}

/// Validated `alex report` options.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReportOpts {
    logs: Vec<String>,
    metrics: Option<String>,
    json_out: Option<String>,
    format: ReportFormat,
    check_trace: Option<String>,
}

/// Parse and validate the `report` flags: at least one events log (or a
/// `--check-trace` file) is required, and `--format` must be known.
fn report_opts(args: &Args) -> Result<ReportOpts, String> {
    let format = match args.value("format").unwrap_or("table") {
        "table" => ReportFormat::Table,
        "json" => ReportFormat::Json,
        other => return Err(format!("--format must be 'table' or 'json', got '{other}'")),
    };
    let opts = ReportOpts {
        logs: args.positionals().to_vec(),
        metrics: args.value("metrics").map(str::to_string),
        json_out: args.value("json").map(str::to_string),
        format,
        check_trace: args.value("check-trace").map(str::to_string),
    };
    if opts.logs.is_empty() && opts.check_trace.is_none() {
        return Err(
            "report requires at least one events JSONL file (or --check-trace FILE)".into(),
        );
    }
    if opts.logs.is_empty() && (opts.metrics.is_some() || opts.json_out.is_some()) {
        return Err("--metrics/--json apply to events logs; give at least one JSONL file".into());
    }
    args.finish("report")?;
    Ok(opts)
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let opts = report_opts(&Args::parse("report", args)?)?;

    if let Some(path) = &opts.check_trace {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let check = alex::telemetry::validate_chrome_trace(&json)
            .map_err(|e| format!("{path}: invalid trace: {e}"))?;
        outln!(
            "trace {path} ok: {} thread(s), {} event(s), {} span(s) \
             ({} dispatch, {} chunk), pools [{}]",
            check.threads,
            check.events,
            check.spans,
            check.dispatch_spans,
            check.chunk_spans,
            check.pools.join(", ")
        )?;
    }
    if opts.logs.is_empty() {
        return Ok(());
    }

    let mut report = alex::telemetry::RunReport::new();
    for log in &opts.logs {
        let content =
            std::fs::read_to_string(log).map_err(|e| format!("cannot read {log}: {e}"))?;
        let mut events = Vec::new();
        for (n, line) in content.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event =
                alex::telemetry::Event::parse(line).map_err(|e| format!("{log}:{}: {e}", n + 1))?;
            events.extend(event);
        }
        report.add_events(&events);
    }
    if let Some(path) = &opts.metrics {
        let prom = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        report.add_metrics_dump(&prom);
    }
    if let Some(out) = &opts.json_out {
        let mut json = report.to_json();
        json.push('\n');
        std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    match opts.format {
        ReportFormat::Json => outln!("{}", report.to_json()),
        ReportFormat::Table => print_out(&report.render_table()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn args_of(cmd: &str, line: &str) -> Args {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse(cmd, &args).unwrap()
    }

    fn flags_of(line: &str) -> Args {
        args_of("improve", line)
    }

    /// `alex improve` options over placeholder paths (parsing opens none).
    fn improve_of(line: &str) -> Result<ImproveOpts, String> {
        improve_opts(&flags_of(&format!(
            "l.nt r.nt --links x.nt --truth x.nt {line}"
        )))
    }

    #[test]
    fn every_flag_is_declared_once_and_documented() {
        let commands = ["gen", "stats", "link", "improve", "query", "report"];
        let names: Vec<&str> = FLAGS
            .iter()
            .flat_map(|(accepted_by, names)| {
                assert!(accepted_by.iter().all(|c| commands.contains(c)), "{names}");
                names.split_whitespace().map(|n| n.trim_end_matches('='))
            })
            .collect();
        assert_eq!(names.len(), 49);
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "--{name} declared twice");
            let flag = format!("--{name}");
            let documented = USAGE.match_indices(&flag).any(|(at, _)| {
                let next = USAGE[at + flag.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '-')
            });
            assert!(documented, "{flag} missing from USAGE");
        }
    }

    #[test]
    fn no_durability_flags_means_no_durable_opts() {
        assert_eq!(durable_opts(&flags_of("--episodes 5")).unwrap(), None);
    }

    #[test]
    fn cache_flag_is_boolean_and_defaults_capacity() {
        assert_eq!(cache_opts(&flags_of("--episodes 5")).unwrap(), None);
        assert_eq!(cache_opts(&flags_of("--cache")).unwrap(), Some(4096));
        assert_eq!(
            cache_opts(&flags_of("--cache --cache-capacity 64")).unwrap(),
            Some(64)
        );
    }

    #[test]
    fn cache_capacity_requires_cache() {
        assert!(cache_opts(&flags_of("--cache-capacity 64")).is_err());
        assert!(cache_opts(&flags_of("--cache --cache-capacity 0")).is_err());
        assert!(cache_opts(&flags_of("--cache --cache-capacity lots")).is_err());
    }

    #[test]
    fn robustness_flags_parse_and_validate() {
        let none = robustness_opts(&flags_of("--episodes 5")).unwrap();
        assert_eq!(none, (None, Judges::Oracle));
        let (trust, judges) = robustness_opts(&flags_of("--trust --sources 2")).unwrap();
        assert!((trust.unwrap().quorum - 1.0).abs() < 1e-12);
        assert!(matches!(judges, Judges::Population { sources: 2, .. }));
        let one = robustness_opts(&flags_of("--sources 1")).unwrap();
        assert_eq!(one, (None, Judges::Oracle));
        let (trust, judges) =
            robustness_opts(&flags_of("--trust --quorum 0.4 --sources 8")).unwrap();
        assert!((trust.unwrap().quorum - 0.4).abs() < 1e-12);
        assert!(matches!(judges, Judges::Population { sources: 8, .. }));
        let (trust, judges) =
            robustness_opts(&flags_of("--adversary-profile poisoner:0.3")).unwrap();
        assert!(trust.is_none());
        let profile = AdversaryProfile::parse("poisoner:0.3").ok();
        assert_eq!(
            judges,
            Judges::Population {
                sources: 1,
                profile
            }
        );
    }

    #[test]
    fn guard_flags_parse_and_validate() {
        assert_eq!(guard_opts(&flags_of("--episodes 5")).unwrap(), None);
        let g = guard_opts(&flags_of("--episode-budget-ms 50"))
            .unwrap()
            .unwrap();
        assert!(!g.budget.is_unlimited());
        assert_eq!(g.policy, BreachPolicy::Stop);
        let g = guard_opts(&flags_of(
            "--run-budget-ms 1000 --max-rss-mb 512 --budget-policy continue",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(g.policy, BreachPolicy::Continue);
        let g = guard_opts(&flags_of("--episode-budget-ms 50 --partitions 1"))
            .unwrap()
            .unwrap();
        assert_eq!(g.policy, BreachPolicy::Stop);
        // Both feedback modes run the supervised loop.
        let opts = improve_of("--episode-budget-ms 50 --feedback query").unwrap();
        assert!(opts.federation.is_some());
        assert!(opts.guard.is_some());
    }

    #[test]
    fn guard_flags_reject_bad_combinations() {
        let err = guard_opts(&flags_of("--budget-policy stop")).unwrap_err();
        assert!(err.contains("requires a budget flag"), "{err}");
        assert!(!err.contains("  "), "{err}");
        let err = guard_opts(&flags_of("--episode-budget-ms lots")).unwrap_err();
        assert!(err.contains("episode-budget-ms"), "{err}");
        let err = guard_opts(&flags_of(
            "--episode-budget-ms 50 --budget-policy sometimes",
        ))
        .unwrap_err();
        assert!(err.contains("stop|continue"), "{err}");
    }

    #[test]
    fn budget_trust_and_durability_compose_with_partitions() {
        let g = guard_opts(&flags_of("--episode-budget-ms 50 --partitions 4"))
            .unwrap()
            .unwrap();
        assert_eq!(g.policy, BreachPolicy::Stop);
        let (trust, _) = robustness_opts(&flags_of("--trust --sources 2 --partitions 4")).unwrap();
        assert!(trust.is_some());
        let opts =
            improve_of("--trust --sources 2 --state-dir s --episode-budget-ms 50 --partitions 4");
        assert_eq!(opts.unwrap().cfg.partitions, 4);
        // Only the feedback source sets the default: observers keep the
        // oracle's 4, a population or query feedback runs one.
        for line in [
            "",
            "--state-dir s",
            "--episode-budget-ms 50",
            "--trust --quorum 0.5",
        ] {
            assert_eq!(improve_of(line).unwrap().cfg.partitions, 4, "{line}");
        }
        for line in [
            "--sources 2",
            "--adversary-profile flipper:0.2",
            "--feedback query",
        ] {
            assert_eq!(improve_of(line).unwrap().cfg.partitions, 1, "{line}");
        }
    }

    #[test]
    fn robustness_flags_reject_bad_combinations() {
        let err = robustness_opts(&flags_of("--quorum 0.5")).unwrap_err();
        assert!(err.contains("--trust"), "{err}");
        let err = robustness_opts(&flags_of("--trust --quorum 0")).unwrap_err();
        assert!(err.contains("quorum"), "{err}");
        let err = robustness_opts(&flags_of("--trust --sources 0")).unwrap_err();
        assert!(err.contains("--sources"), "{err}");
        // One fresh source weighs 0.5, below the default quorum of 1.0, and
        // trust moves only when a vote settles: nothing could ever admit.
        for line in ["--trust", "--trust --sources 2 --quorum 1.5"] {
            let err = robustness_opts(&flags_of(line)).unwrap_err();
            assert!(
                err.contains("--sources") && err.contains("--quorum"),
                "{err}"
            );
        }
        let err =
            robustness_opts(&flags_of("--trust --adversary-profile gremlin:0.3")).unwrap_err();
        assert!(err.contains("adversary"), "{err}");
        let err = improve_of("--trust --feedback query").err().unwrap();
        assert!(err.contains("--trust is not read"), "{err}");
    }

    #[test]
    fn trust_is_a_value_less_flag() {
        let args = flags_of("--trust --quorum 0.5");
        assert!(args.positional.is_empty());
        assert!(args.has("trust"));
        assert_eq!(args.value("quorum"), Some("0.5"));
    }

    #[test]
    fn cache_is_a_value_less_flag() {
        // `--cache --cache-capacity 8` must not swallow the next token
        // as the value of --cache.
        let args = flags_of("--cache --cache-capacity 8 extra");
        assert_eq!(args.positional, vec!["extra"]);
        assert!(args.has("cache"));
        assert_eq!(args.value("cache-capacity"), Some("8"));
    }

    #[test]
    fn catalog_flag_distinguishes_probe_from_file() {
        assert_eq!(catalog_opts(&flags_of("--episodes 5")), Ok(false));
        assert_eq!(catalog_opts(&flags_of("--catalog probe")), Ok(true));
        // A catalog file is not a source: only probing can cover every
        // predicate an endpoint holds.
        assert_eq!(
            catalog_opts(&flags_of("--catalog runs/catalog.txt")),
            Err("--catalog must be 'probe', got 'runs/catalog.txt'".into())
        );
    }

    #[test]
    fn state_dir_enables_durable_defaults() {
        let opts = durable_opts(&flags_of("--state-dir /tmp/s"))
            .unwrap()
            .unwrap();
        assert_eq!(
            opts,
            DurableOpts {
                state_dir: "/tmp/s".into(),
                snapshot_every: 10,
                resume: false,
                kill_after: None,
            }
        );
    }

    #[test]
    fn all_durability_flags_parse() {
        let opts = durable_opts(&flags_of(
            "--state-dir /tmp/s --resume --snapshot-every 3 --kill-after 2",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(
            opts,
            DurableOpts {
                state_dir: "/tmp/s".into(),
                snapshot_every: 3,
                resume: true,
                kill_after: Some(2),
            }
        );
    }

    #[test]
    fn resume_without_state_dir_is_rejected() {
        let err = durable_opts(&flags_of("--resume")).unwrap_err();
        assert!(err.contains("--resume requires --state-dir"), "{err}");
    }

    #[test]
    fn snapshot_every_without_state_dir_is_rejected() {
        let err = durable_opts(&flags_of("--snapshot-every 5")).unwrap_err();
        assert!(
            err.contains("--snapshot-every requires --state-dir"),
            "{err}"
        );
    }

    #[test]
    fn kill_after_without_state_dir_is_rejected() {
        let err = durable_opts(&flags_of("--kill-after 2")).unwrap_err();
        assert!(err.contains("--kill-after requires --state-dir"), "{err}");
    }

    #[test]
    fn state_dir_accepts_multiple_partitions() {
        let opts = improve_of("--state-dir /tmp/s --partitions 27").unwrap();
        assert_eq!(opts.cfg.partitions, 27);
        assert_eq!(opts.durable.unwrap().state_dir, "/tmp/s");
    }

    #[test]
    fn state_dir_rejects_query_feedback() {
        let err = improve_of("--state-dir /tmp/s --feedback query")
            .err()
            .unwrap();
        assert!(
            err.contains("--state-dir is not read by `alex improve --feedback query`"),
            "{err}"
        );
        let opts = improve_of("--state-dir /tmp/s --feedback oracle").unwrap();
        assert!(opts.federation.is_none() && opts.durable.is_some());
    }

    #[test]
    fn kill_after_must_be_positive() {
        let err = durable_opts(&flags_of("--state-dir /tmp/s --kill-after 0")).unwrap_err();
        assert!(err.contains("--kill-after"), "{err}");
    }

    #[test]
    fn zero_episodes_are_rejected_by_the_config() {
        for flag in ["--episodes", "--episode-size"] {
            for feedback in ["oracle", "query"] {
                let err = improve_of(&format!("--feedback {feedback} {flag} 0"))
                    .err()
                    .unwrap();
                assert!(err.starts_with(&format!("{flag}: ")), "{err}");
            }
        }
    }

    #[test]
    fn profile_is_a_value_less_flag() {
        // `--profile --trace out.json` must not swallow --trace as the
        // value of --profile.
        let args = args_of("link", "--profile --trace out.json left.nt");
        assert_eq!(args.positional, vec!["left.nt"]);
        assert!(args.has("profile"));
        assert_eq!(args.value("trace"), Some("out.json"));
    }

    #[test]
    fn observability_flags_parse_uniformly() {
        let line = "--telemetry e.jsonl --metrics-dump m.prom --verbose";
        for cmd in ["link", "improve", "query"] {
            let run = RunOpts::parse(&args_of(cmd, line)).unwrap();
            assert_eq!(run.telemetry.as_deref(), Some("e.jsonl"));
            assert_eq!(run.metrics_dump.as_deref(), Some("m.prom"));
            assert!(run.verbose);
        }
        // --trace requires a value.
        let err = Args::parse("query", &["--trace".to_string()])
            .err()
            .unwrap();
        assert!(err.contains("--trace requires a value"), "{err}");
    }

    #[test]
    fn report_requires_logs_or_check_trace() {
        let err = report_opts(&args_of("report", "")).unwrap_err();
        assert!(err.contains("at least one events JSONL"), "{err}");
        // --check-trace alone is a valid invocation.
        let opts = report_opts(&args_of("report", "--check-trace t.json")).unwrap();
        assert_eq!(opts.check_trace.as_deref(), Some("t.json"));
        assert!(opts.logs.is_empty());
    }

    #[test]
    fn report_parses_full_flag_set() {
        let opts = report_opts(&args_of(
            "report",
            "a.jsonl b.jsonl --metrics m.prom --json out.json --format json",
        ))
        .unwrap();
        assert_eq!(
            opts,
            ReportOpts {
                logs: vec!["a.jsonl".into(), "b.jsonl".into()],
                metrics: Some("m.prom".into()),
                json_out: Some("out.json".into()),
                format: ReportFormat::Json,
                check_trace: None,
            }
        );
    }

    #[test]
    fn report_rejects_bad_combinations() {
        let err =
            report_opts(&args_of("report", "--format yaml --check-trace t.json")).unwrap_err();
        assert!(err.contains("--format"), "{err}");
        // Log-scoped flags without any log are caught, not ignored.
        let err =
            report_opts(&args_of("report", "--check-trace t.json --metrics m.prom")).unwrap_err();
        assert!(err.contains("at least one JSONL"), "{err}");
    }
}
