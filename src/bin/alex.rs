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
//! Data files may be N-Triples (`.nt`) or the supported Turtle subset
//! (`.ttl`). Links are exchanged as `owl:sameAs` N-Triples, so the output
//! of `link`/`improve` is directly usable by any linked-data tool.

use std::path::Path;
use std::process::ExitCode;

use alex::core::{
    final_links, run_partitioned_with, workload_from_links, AdversarialPopulation, Agent,
    AlexConfig, Durability, FeedbackBridge, FeedbackSource, OracleFeedback, PartitionedConfig,
    Quality, QueryFeedback, RunReport, SpaceConfig, StopReason, TrustConfig, TrustGate,
};
use alex::fault::{Domain, FaultPlan};
use alex::guard::{BreachPolicy, Budget, Supervisor};

use alex::datagen::{
    all_pairs, assign_roles, generate_pair, AdversaryProfile, DatasetKind, PairSpec,
};
use alex::linking::{LabelBaseline, LinkerOutput, Paris, ParisConfig};
use alex::rdf::{ntriples, turtle, Dataset, Term};
use alex::sparql::{
    parse, Completeness, DatasetEndpoint, FaultyEndpoint, FederatedEngine, ResilienceConfig,
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
      improved links. --partitions defaults to 4, or to 1 when any
      durability, adversarial-robustness or supervision flag is given.

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
                            fresh sources admit). Requires --trust.
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
  --cache                   Enable the sharded LRU answer cache in the
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

/// Named `--flag value` options in command-line order.
type Flags = Vec<(String, String)>;

/// Parse `--flag value` style options; returns (positional, flags).
fn split_args(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if name == "baseline"
                || name == "detail"
                || name == "verbose"
                || name == "fail-fast"
                || name == "resume"
                || name == "cache"
                || name == "profile"
                || name == "trust"
            {
                flags.push((name.to_string(), "true".to_string()));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} requires a value"))?;
            flags.push((name.to_string(), value.clone()));
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok((positional, flags))
}

/// Pool flags, read by [`configure_threads`] (`link`, `improve`, `query`).
const POOL_FLAGS: &[&str] = &["threads", "panic-policy", "chaos-profile"];
/// Observability flags, read by [`telemetry_setup`] (same commands).
const TELEMETRY_FLAGS: &[&str] = &["telemetry", "metrics-dump", "verbose", "trace", "profile"];
/// Federation flags (`query` and `improve --feedback query`).
const FEDERATION_FLAGS: &[&str] = &[
    "fault-profile",
    "retries",
    "backoff-ms",
    "endpoint-budget-ms",
    "fail-fast",
    "cache",
    "cache-capacity",
    "catalog",
];
/// `improve`'s own flags: the run shape, durability, adversarial
/// robustness and supervision.
const IMPROVE_FLAGS: &[&str] = &[
    "links",
    "truth",
    "out",
    "feedback",
    "queries",
    "episodes",
    "episode-size",
    "partitions",
    "error-rate",
    "state-dir",
    "resume",
    "snapshot-every",
    "kill-after",
    "trust",
    "quorum",
    "sources",
    "adversary-profile",
    "episode-budget-ms",
    "run-budget-ms",
    "max-rss-mb",
    "budget-policy",
];

/// Flags that one `improve` feedback mode never reads, so passing one is
/// an error naming the flag and the mode. `--cache`, `--cache-capacity`
/// and `--catalog` stay accepted but inert with oracle feedback, so a
/// `--resume` command line can keep them.
const ORACLE_UNREAD: &[&str] = &[
    "queries",
    "fault-profile",
    "retries",
    "backoff-ms",
    "endpoint-budget-ms",
    "fail-fast",
];
/// See [`ORACLE_UNREAD`]; query feedback runs one unpartitioned agent
/// judged by federated answers: no noisy oracle, no journal (live answers
/// cannot be replayed deterministically) and no source population (answers
/// carry no user attribution for the trust gate).
const QUERY_UNREAD: &[&str] = &[
    "partitions",
    "error-rate",
    "state-dir",
    "resume",
    "snapshot-every",
    "kill-after",
    "trust",
    "quorum",
    "sources",
    "adversary-profile",
];

/// `--feedback oracle|query` (default oracle), read before any other
/// `improve` flag so a misspelled mode is reported as such; a flag the
/// mode never reads is an error naming flag and mode.
fn feedback_mode(flags: &Flags) -> Result<&str, String> {
    let feedback = flag(flags, "feedback").unwrap_or("oracle");
    let unread = match feedback {
        "oracle" => ORACLE_UNREAD,
        "query" => QUERY_UNREAD,
        other => {
            return Err(format!(
                "--feedback must be 'oracle' or 'query', got '{other}'"
            ))
        }
    };
    match flags
        .iter()
        .find(|(name, _)| unread.contains(&name.as_str()))
    {
        Some((name, _)) => Err(format!(
            "--{name} is not read by `alex improve --feedback {feedback}`"
        )),
        None => Ok(feedback),
    }
}

/// [`split_args`] for `alex <cmd>`, which reads only the flags in
/// `accepted`: any other flag is an error naming it, so a misspelled flag
/// fails instead of leaving its default silently in place.
fn command_args(
    cmd: &str,
    accepted: &[&[&str]],
    args: &[String],
) -> Result<(Vec<String>, Flags), String> {
    let (positional, flags) = split_args(args)?;
    let known = |name: &str| accepted.iter().any(|set| set.contains(&name));
    match flags.iter().find(|(name, _)| !known(name)) {
        Some((name, _)) => Err(format!("unknown flag --{name} for `alex {cmd}`")),
        None => Ok((positional, flags)),
    }
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// `--name V` parsed as a `T`; `None` when the flag is absent.
fn parse_opt<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    flag(flags, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value '{v}' for --{name}"))
        })
        .transpose()
}

fn parse_flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(parse_opt(flags, name)?.unwrap_or(default))
}

/// A probability-like flag: a finite number in `[0, 1]`.
fn parse_unit_flag(flags: &[(String, String)], name: &str, default: f64) -> Result<f64, String> {
    let v: f64 = parse_flag(flags, name, default)?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(format!("--{name} must be a number in [0, 1], got {v}"))
    }
}

/// Apply the process-global pool settings: `--threads N` (pool width;
/// without the flag the pool keeps its own resolution order — the
/// ALEX_THREADS env var, else `available_parallelism`), `--panic-policy`
/// (quarantine|fail), and `--chaos-profile` (seeded chunk-fault
/// injection for the chaos suites).
fn configure_threads(flags: &Flags) -> Result<(), String> {
    if let Some(n) = parse_opt(flags, "threads")? {
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        alex::parallel::set_threads(n);
    }
    if let Some(v) = flag(flags, "panic-policy") {
        let policy = v
            .parse()
            .map_err(|e: String| format!("--panic-policy: {e}"))?;
        alex::parallel::set_panic_policy(policy);
    }
    if let Some(plan) = fault_plan(flags, "chaos-profile", Domain::Pool)? {
        alex::guard::chaos::install(plan);
    }
    Ok(())
}

/// Run-supervision options: the budget plus what to do on breach.
#[derive(Debug, PartialEq)]
struct GuardOpts {
    budget: Budget,
    policy: BreachPolicy,
}

impl GuardOpts {
    fn make_supervisor(&self) -> Supervisor {
        Supervisor::new(self.budget, self.policy)
    }
}

/// Parse and validate the budget-supervision flags. `None` when no budget
/// flag was given; an error when `--budget-policy` appears alone (a policy
/// with nothing to police is a spelling mistake, not a request).
fn guard_opts(flags: &Flags) -> Result<Option<GuardOpts>, String> {
    let mut budget = Budget::unlimited();
    if let Some(ms) = parse_opt(flags, "episode-budget-ms")? {
        budget = budget.episode_wall_ms(ms);
    }
    if let Some(ms) = parse_opt(flags, "run-budget-ms")? {
        budget = budget.run_wall_ms(ms);
    }
    if let Some(mb) = parse_opt(flags, "max-rss-mb")? {
        budget = budget.max_rss_mb(mb);
    }
    if budget.is_unlimited() {
        if flag(flags, "budget-policy").is_some() {
            return Err("--budget-policy requires a budget flag \
                        (--episode-budget-ms, --run-budget-ms, or --max-rss-mb)"
                .into());
        }
        return Ok(None);
    }
    let policy = match flag(flags, "budget-policy") {
        None => BreachPolicy::Stop,
        Some(v) => v
            .parse()
            .map_err(|e: String| format!("--budget-policy: {e}"))?,
    };
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
fn cache_opts(flags: &Flags) -> Result<Option<usize>, String> {
    let enabled = flag(flags, "cache").is_some();
    if !enabled {
        if flag(flags, "cache-capacity").is_some() {
            return Err("--cache-capacity requires --cache".into());
        }
        return Ok(None);
    }
    let capacity: usize = parse_flag(flags, "cache-capacity", 4096)?;
    if capacity == 0 {
        return Err("--cache-capacity must be at least 1".into());
    }
    Ok(Some(capacity))
}

/// `--catalog probe` → whether to build the predicate-coverage catalog
/// the executor consults to prune endpoints; without it every pattern is
/// broadcast. A catalog only ever comes from scanning the endpoints, so
/// any other value is an error.
fn catalog_opts(flags: &Flags) -> Result<bool, String> {
    match flag(flags, "catalog") {
        None => Ok(false),
        Some("probe") => Ok(true),
        Some(other) => Err(format!("--catalog must be 'probe', got '{other}'")),
    }
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

/// Observability flags shared by `link`, `improve`, and `query`: attach
/// the JSONL event sink and enable the timeline recorder up front, dump
/// metrics / trace / attribution / span summary on [`Self::finish`].
struct TelemetryOpts {
    metrics_dump: Option<String>,
    verbose: bool,
    trace: Option<String>,
    profile: bool,
}

fn telemetry_setup(flags: &Flags) -> Result<TelemetryOpts, String> {
    if let Some(path) = flag(flags, "telemetry") {
        let sink = alex::telemetry::JsonlFileSink::create(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        alex::telemetry::global()
            .events()
            .attach(std::sync::Arc::new(sink));
    }
    let opts = TelemetryOpts {
        metrics_dump: flag(flags, "metrics-dump").map(str::to_string),
        verbose: flag(flags, "verbose").is_some(),
        trace: flag(flags, "trace").map(str::to_string),
        profile: flag(flags, "profile").is_some(),
    };
    if opts.trace.is_some() || opts.profile {
        alex::telemetry::timeline::enable();
    }
    Ok(opts)
}

impl TelemetryOpts {
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
fn durable_opts(flags: &Flags) -> Result<Option<DurableOpts>, String> {
    let state_dir = flag(flags, "state-dir");
    for dependent in ["resume", "snapshot-every", "kill-after"] {
        if flag(flags, dependent).is_some() && state_dir.is_none() {
            return Err(format!(
                "--{dependent} requires --state-dir: it only applies to durable runs"
            ));
        }
    }
    let Some(dir) = state_dir else {
        return Ok(None);
    };
    let kill_after = flag(flags, "kill-after")
        .map(|v| {
            v.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("invalid value '{v}' for --kill-after (need a count >= 1)"))
        })
        .transpose()?;
    Ok(Some(DurableOpts {
        state_dir: dir.to_string(),
        snapshot_every: parse_flag(flags, "snapshot-every", 10u64)?,
        resume: flag(flags, "resume").is_some(),
        kill_after,
    }))
}

/// Adversarial-robustness options: the trust gate and the feedback-source
/// population.
#[derive(Debug)]
struct RobustnessOpts {
    /// Trust-gate configuration when `--trust` was given.
    trust: Option<TrustConfig>,
    /// Seeded adversary mix when `--adversary-profile` was given.
    profile: Option<AdversaryProfile>,
    /// Feedback-source population size (`--sources`, default 1).
    sources: usize,
}

impl RobustnessOpts {
    /// Whether the run needs the multi-source population instead of the
    /// plain oracle (attribution only matters past one source, and the
    /// adversary machinery lives in the population).
    fn needs_population(&self) -> bool {
        self.sources > 1 || self.profile.is_some()
    }

    /// Build the run's feedback source: the adversarial population when one
    /// is needed, the plain oracle otherwise.
    fn make_source(
        &self,
        truth: &std::collections::HashSet<(u32, u32)>,
        error_rate: f64,
        seed: u64,
    ) -> Box<dyn FeedbackSource> {
        if self.needs_population() {
            let roles = assign_roles(self.profile.as_ref(), self.sources, seed);
            Box::new(AdversarialPopulation::new(
                truth.clone(),
                roles,
                error_rate,
                seed,
            ))
        } else {
            Box::new(OracleFeedback::with_error_rate(
                truth.clone(),
                error_rate,
                seed,
            ))
        }
    }
}

/// Parse and validate the adversarial-robustness flags. `None` when none of
/// `--trust`, `--quorum`, `--sources`, `--adversary-profile` was given; an
/// error on inconsistent combinations.
fn robustness_opts(flags: &Flags) -> Result<Option<RobustnessOpts>, String> {
    let trust_enabled = flag(flags, "trust").is_some();
    if !trust_enabled && flag(flags, "quorum").is_some() {
        return Err("--quorum requires --trust".into());
    }
    let trust = if trust_enabled {
        let mut cfg = TrustConfig::default();
        if let Some(quorum) = parse_opt(flags, "quorum")? {
            cfg.quorum = quorum;
        }
        cfg.validate().map_err(|e| format!("--trust: {e}"))?;
        Some(cfg)
    } else {
        None
    };
    let profile = flag(flags, "adversary-profile")
        .map(|spec| AdversaryProfile::parse(spec).map_err(|e| format!("--adversary-profile: {e}")))
        .transpose()?;
    let sources: usize = parse_flag(flags, "sources", 1usize)?;
    if sources == 0 {
        return Err("--sources must be at least 1".into());
    }
    if trust.is_none() && profile.is_none() && flag(flags, "sources").is_none() {
        return Ok(None);
    }
    Ok(Some(RobustnessOpts {
        trust,
        profile,
        sources,
    }))
}

/// Build the endpoint resilience policy from the shared fault-tolerance
/// flags; `None` when no flag was given (keep the engine's default).
fn resilience_from_flags(flags: &Flags) -> Result<Option<ResilienceConfig>, String> {
    let mut cfg = ResilienceConfig::default();
    let mut touched = false;
    if let Some(retries) = parse_opt(flags, "retries")? {
        cfg.retry.max_retries = retries;
        touched = true;
    }
    if let Some(ms) = parse_opt(flags, "backoff-ms")? {
        cfg.retry.initial_backoff = std::time::Duration::from_millis(ms);
        touched = true;
    }
    if let Some(ms) = parse_opt(flags, "endpoint-budget-ms")? {
        cfg.endpoint_budget = Some(std::time::Duration::from_millis(ms));
        touched = true;
    }
    if flag(flags, "fail-fast").is_some() {
        cfg.fail_fast = true;
        touched = true;
    }
    Ok(touched.then_some(cfg))
}

/// Parse the fault-plan flag `name` when present: `--fault-profile` takes
/// the federation keys, `--chaos-profile` the pool keys.
fn fault_plan(flags: &Flags, name: &str, domain: Domain) -> Result<Option<FaultPlan>, String> {
    flag(flags, name)
        .map(|spec| FaultPlan::parse_for(spec, domain).map_err(|e| format!("--{name}: {e}")))
        .transpose()
}

/// A federated engine with one endpoint per data set (wrapped in the fault
/// injector under `--fault-profile`), `links`, and the resilience, cache
/// and catalog flags applied; the catalog is probed last, so every
/// endpoint gets an entry.
fn federated_engine(
    datasets: Vec<Dataset>,
    links: Option<SameAsLinks>,
    flags: &Flags,
) -> Result<FederatedEngine, String> {
    let profile = fault_plan(flags, "fault-profile", Domain::Federation)?;
    let mut engine = FederatedEngine::new();
    for ds in datasets {
        let endpoint = DatasetEndpoint::new(ds);
        match &profile {
            Some(p) => engine.add_endpoint(Box::new(FaultyEndpoint::new(endpoint, p.clone()))),
            None => engine.add_endpoint(Box::new(endpoint)),
        }
    }
    if let Some(links) = links {
        engine.set_links(links);
    }
    if let Some(resilience) = resilience_from_flags(flags)? {
        engine.set_resilience(resilience);
    }
    if let Some(capacity) = cache_opts(flags)? {
        engine.enable_cache(capacity);
    }
    if catalog_opts(flags)? {
        // After every endpoint is registered, so each gets an entry; a
        // scan failure aborts rather than leave an endpoint uncovered.
        let catalog = engine
            .build_catalog()
            .map_err(|e| format!("--catalog probe: {e}"))?;
        engine.set_catalog(Some(catalog));
    }
    Ok(engine)
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
    let (_, flags) = command_args("gen", &[&["out-dir", "pair", "seed"]], args)?;
    let out_dir = flag(&flags, "out-dir").ok_or("--out-dir is required")?;
    let pair_name = flag(&flags, "pair").unwrap_or("dbpedia-nytimes");
    let seed: u64 = parse_flag(&flags, "seed", 20160501)?;
    let spec = pair_spec_by_name(pair_name)?;

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
    let (files, flags) = command_args("stats", &[&["detail"]], args)?;
    if files.is_empty() {
        return Err("stats requires at least one file".into());
    }
    let detailed = flag(&flags, "detail").is_some();
    if !detailed {
        outln!(
            "{:<28} {:>9} {:>9} {:>11}",
            "file",
            "triples",
            "entities",
            "predicates"
        )?;
    }
    for f in &files {
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
    let accepted = [
        &["threshold", "baseline", "out"],
        POOL_FLAGS,
        TELEMETRY_FLAGS,
    ];
    let (files, flags) = command_args("link", &accepted, args)?;
    let [left_path, right_path] = files.as_slice() else {
        return Err("link requires exactly two data files".into());
    };
    configure_threads(&flags)?;
    let threshold = parse_unit_flag(&flags, "threshold", 0.80)?;
    let telemetry = telemetry_setup(&flags)?;
    let left = load_dataset(left_path)?;
    let right = load_dataset(right_path)?;

    let started = std::time::Instant::now();
    let output: LinkerOutput = if flag(&flags, "baseline").is_some() {
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
    write_or_print(flag(&flags, "out"), &links.to_ntriples())?;
    telemetry.finish()
}

fn cmd_improve(args: &[String]) -> Result<(), String> {
    let accepted = [IMPROVE_FLAGS, POOL_FLAGS, TELEMETRY_FLAGS, FEDERATION_FLAGS];
    let (files, flags) = command_args("improve", &accepted, args)?;
    let [left_path, right_path] = files.as_slice() else {
        return Err("improve requires exactly two data files".into());
    };
    let query = feedback_mode(&flags)? == "query";
    // Read before any data is loaded, and read in both modes: oracle
    // feedback builds no engine, yet a bad value is still an error.
    cache_opts(&flags)?;
    catalog_opts(&flags)?;
    fault_plan(&flags, "fault-profile", Domain::Federation)?;
    configure_threads(&flags)?;
    let durable = durable_opts(&flags)?;
    let robust = robustness_opts(&flags)?;
    let guard = guard_opts(&flags)?;
    let telemetry = telemetry_setup(&flags)?;
    let left = load_dataset(left_path)?;
    let right = load_dataset(right_path)?;
    let links = load_links(flag(&flags, "links").ok_or("--links is required")?)?;
    let truth = load_links(flag(&flags, "truth").ok_or("--truth is required")?)?;

    improve(
        &left, &right, &links, &truth, &flags, query, durable, robust, guard,
    )?;
    telemetry.finish()
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

/// Print the initial and per-episode quality and the stop line.
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
        "stopped: {:?} after {} episodes ({:.2?})",
        report.stop,
        report.episodes.len(),
        report.total_duration
    )
}

/// Write the improved links to `--out`, when given.
fn write_links(
    flags: &Flags,
    left: &Dataset,
    right: &Dataset,
    links: &[(Term, Term)],
) -> Result<(), String> {
    let Some(out) = flag(flags, "out") else {
        return Ok(());
    };
    let set = SameAsLinks::from_pairs(
        links
            .iter()
            .map(|&(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string())),
    );
    write_or_print(Some(out), &set.to_ntriples())
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
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    })
}

/// `improve`, in either feedback mode, over `--partitions` k ≥ 1
/// partitions built and run by `run_partitioned_with`. The mode picks only
/// each partition's feedback source, the defaults and the suffix of the
/// "initial links" line.
///
/// Oracle feedback: a plain run defaults to 4 partitions judged by oracles
/// seeded `seed + 1000 + i`. With `--state-dir`, trust, population or
/// budget flags the default is one partition and partition i's source is
/// seeded `seed + i`. `--state-dir` journals every episode, so `--resume`
/// yields exactly the links an uninterrupted run would; `--sources` and
/// `--adversary-profile` make each partition's feedback come from an
/// attributed population; `--trust` passes link mutations through quorum
/// admission with cascading rollback.
///
/// Query feedback, the paper's deployment loop: one partition judged by
/// federated query answers through the bridge. With `--fault-profile` the
/// federation degrades, and the loop skips episodes whose every judgment
/// was withheld.
///
/// In both modes budget flags mark overrunning episodes degraded.
#[allow(clippy::too_many_arguments)]
fn improve(
    left: &Dataset,
    right: &Dataset,
    links: &SameAsLinks,
    truth: &SameAsLinks,
    flags: &Flags,
    query: bool,
    durable: Option<DurableOpts>,
    robust: Option<RobustnessOpts>,
    guard: Option<GuardOpts>,
) -> Result<(), String> {
    let plain = durable.is_none() && robust.is_none() && guard.is_none();
    let cfg = PartitionedConfig {
        partitions: parse_flag(flags, "partitions", if plain && !query { 4 } else { 1 })?,
        alex: AlexConfig {
            episode_size: parse_flag(flags, "episode-size", if query { 200 } else { 1000 })?,
            max_episodes: parse_flag(flags, "episodes", 40usize)?,
            trust: robust.as_ref().and_then(|r| r.trust),
            ..AlexConfig::default()
        },
        space: SpaceConfig::default(),
        feedback_error_rate: parse_unit_flag(flags, "error-rate", 0.0)?,
    };
    if cfg.partitions == 0 {
        return Err("--partitions must be at least 1".into());
    }
    let initial = term_pairs(left, right, links);
    let truth_pairs = term_pairs(left, right, truth);
    if truth_pairs.is_empty() {
        return Err("no ground-truth link references entities of these data sets".into());
    }
    // Query feedback's workload is anchored on ground-truth links: each
    // query is answerable only by crossing a sameAs link, so its answers
    // carry judgeable provenance.
    let workload = if query {
        let truth_iris: Vec<(String, String)> = truth
            .iter()
            .map(|l| (l.left.clone(), l.right.clone()))
            .collect();
        let queries =
            workload_from_links(left, right, &truth_iris, parse_flag(flags, "queries", 50)?);
        if queries.is_empty() {
            return Err("could not derive any federated query from the ground-truth links".into());
        }
        Some(queries)
    } else {
        None
    };
    let setup = match &workload {
        Some(queries) => format!("; workload: {} queries", queries.len()),
        None => {
            let mut setup = format!("partitions: {}", cfg.partitions);
            if let Some(r) = &robust {
                setup += &format!(
                    ", sources: {}, adversary: {}, trust: {}",
                    r.sources,
                    flag(flags, "adversary-profile").unwrap_or("none"),
                    if r.trust.is_some() { "on" } else { "off" },
                );
            }
            if let Some(d) = &durable {
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

    // The engine is built before the spaces, so a bad federation flag or a
    // failed catalog probe stops the run before the space build.
    let mut federation = match workload {
        Some(queries) => Some((
            federated_engine(vec![left.clone(), right.clone()], None, flags)?,
            queries,
        )),
        None => None,
    };
    let mut store;
    let durability = match &durable {
        None => None,
        Some(opts) => {
            let (opened, recovery) = alex::store::DirectStore::open(Path::new(&opts.state_dir))
                .map_err(|e| format!("cannot open state dir {}: {e}", opts.state_dir))?;
            store = opened;
            Some(durability(opts, &mut store, recovery))
        }
    };
    // Without population flags the shell makes plain oracles.
    let robust = robust.unwrap_or(RobustnessOpts {
        trust: None,
        profile: None,
        sources: 1,
    });
    let seed = cfg.alex.seed.wrapping_add(if plain { 1000 } else { 0 });
    let mut supervisor = guard.as_ref().map(GuardOpts::make_supervisor);
    let (report, agents) = run_partitioned_with(
        left,
        right,
        &initial,
        &truth_pairs,
        &cfg,
        // Query feedback runs one partition: its one source takes the engine.
        |i, space, truth| match federation.take() {
            Some((engine, queries)) => {
                let bridge =
                    FeedbackBridge::new(left, space.left_index(), right, space.right_index());
                Box::new(QueryFeedback::new(
                    engine,
                    left.clone(),
                    right.clone(),
                    queries,
                    bridge,
                    truth.clone(),
                ))
            }
            None => robust.make_source(truth, cfg.feedback_error_rate, seed.wrapping_add(i as u64)),
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
    if let (StopReason::Suspended, Some(d)) = (report.stop, &durable) {
        eprintln!(
            "run suspended; continue with: alex improve ... --state-dir {} --resume",
            d.state_dir
        );
    }
    write_links(flags, left, right, &final_links(&agents))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let accepted = [
        &["data", "links", "query-file"],
        POOL_FLAGS,
        TELEMETRY_FLAGS,
        FEDERATION_FLAGS,
    ];
    let (positional, flags) = command_args("query", &accepted, args)?;
    let data_files: Vec<&str> = flags
        .iter()
        .filter(|(n, _)| n == "data")
        .map(|(_, v)| v.as_str())
        .collect();
    if data_files.is_empty() {
        return Err("query requires at least one --data file".into());
    }
    // Read before any data is loaded.
    cache_opts(&flags)?;
    catalog_opts(&flags)?;
    fault_plan(&flags, "fault-profile", Domain::Federation)?;
    configure_threads(&flags)?;
    let telemetry = telemetry_setup(&flags)?;
    let query_text = match flag(&flags, "query-file") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => positional
            .first()
            .cloned()
            .ok_or("provide a query string or --query-file")?,
    };
    let query = parse(&query_text).map_err(|e| format!("query: {e}"))?;
    let datasets = data_files
        .iter()
        .map(|f| load_dataset(f))
        .collect::<Result<_, _>>()?;
    let links = flag(&flags, "links").map(load_links).transpose()?;
    let engine = federated_engine(datasets, links, &flags)?;

    if query.kind == alex::sparql::QueryKind::Ask {
        let answer = engine.ask(&query).map_err(|e| format!("evaluation: {e}"))?;
        outln!("{answer}")?;
        return telemetry.finish();
    }
    let result = engine
        .execute_full(&query)
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
    telemetry.finish()
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
fn report_opts(positional: &[String], flags: &Flags) -> Result<ReportOpts, String> {
    let format = match flag(flags, "format").unwrap_or("table") {
        "table" => ReportFormat::Table,
        "json" => ReportFormat::Json,
        other => return Err(format!("--format must be 'table' or 'json', got '{other}'")),
    };
    let check_trace = flag(flags, "check-trace").map(str::to_string);
    if positional.is_empty() && check_trace.is_none() {
        return Err(
            "report requires at least one events JSONL file (or --check-trace FILE)".into(),
        );
    }
    if positional.is_empty() && (flag(flags, "metrics").is_some() || flag(flags, "json").is_some())
    {
        return Err("--metrics/--json apply to events logs; give at least one JSONL file".into());
    }
    Ok(ReportOpts {
        logs: positional.to_vec(),
        metrics: flag(flags, "metrics").map(str::to_string),
        json_out: flag(flags, "json").map(str::to_string),
        format,
        check_trace,
    })
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let accepted = ["metrics", "json", "format", "check-trace"];
    let (positional, flags) = command_args("report", &[&accepted], args)?;
    let opts = report_opts(&positional, &flags)?;

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

    fn flags_of(line: &str) -> Flags {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        split_args(&args).unwrap().1
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
        assert!(robustness_opts(&flags_of("--episodes 5"))
            .unwrap()
            .is_none());
        let r = robustness_opts(&flags_of("--trust")).unwrap().unwrap();
        assert!((r.trust.unwrap().quorum - 1.0).abs() < 1e-12);
        assert_eq!(r.sources, 1);
        assert!(!r.needs_population());
        let r = robustness_opts(&flags_of("--trust --quorum 0.4 --sources 8"))
            .unwrap()
            .unwrap();
        assert!((r.trust.unwrap().quorum - 0.4).abs() < 1e-12);
        assert_eq!(r.sources, 8);
        assert!(r.needs_population());
        let r = robustness_opts(&flags_of("--adversary-profile poisoner:0.3"))
            .unwrap()
            .unwrap();
        assert!(r.trust.is_none());
        assert!(r.profile.is_some());
        assert!(r.needs_population());
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
        let flags = flags_of("--episode-budget-ms 50 --feedback query");
        assert_eq!(feedback_mode(&flags), Ok("query"));
        assert!(guard_opts(&flags).unwrap().is_some());
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
        let r = robustness_opts(&flags_of("--trust --partitions 4"))
            .unwrap()
            .unwrap();
        assert!(r.trust.is_some());
    }

    #[test]
    fn robustness_flags_reject_bad_combinations() {
        let err = robustness_opts(&flags_of("--quorum 0.5")).unwrap_err();
        assert!(err.contains("--trust"), "{err}");
        let err = robustness_opts(&flags_of("--trust --quorum 0")).unwrap_err();
        assert!(err.contains("quorum"), "{err}");
        let err = robustness_opts(&flags_of("--trust --sources 0")).unwrap_err();
        assert!(err.contains("--sources"), "{err}");
        let err =
            robustness_opts(&flags_of("--trust --adversary-profile gremlin:0.3")).unwrap_err();
        assert!(err.contains("adversary"), "{err}");
        let err = feedback_mode(&flags_of("--trust --feedback query")).unwrap_err();
        assert!(err.contains("--trust is not read"), "{err}");
    }

    #[test]
    fn trust_is_a_value_less_flag() {
        let (positional, flags) = split_args(&[
            "--trust".to_string(),
            "--quorum".to_string(),
            "0.5".to_string(),
        ])
        .unwrap();
        assert!(positional.is_empty());
        assert_eq!(flag(&flags, "trust"), Some("true"));
        assert_eq!(flag(&flags, "quorum"), Some("0.5"));
    }

    #[test]
    fn cache_is_a_value_less_flag() {
        // `--cache --cache-capacity 8` must not swallow the next token
        // as the value of --cache.
        let (positional, flags) = split_args(&[
            "--cache".to_string(),
            "--cache-capacity".to_string(),
            "8".to_string(),
            "extra".to_string(),
        ])
        .unwrap();
        assert_eq!(positional, vec!["extra"]);
        assert_eq!(flag(&flags, "cache"), Some("true"));
        assert_eq!(flag(&flags, "cache-capacity"), Some("8"));
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
        let opts = durable_opts(&flags_of("--state-dir /tmp/s --partitions 27"))
            .unwrap()
            .unwrap();
        assert_eq!(opts.state_dir, "/tmp/s");
    }

    #[test]
    fn state_dir_rejects_query_feedback() {
        let err = feedback_mode(&flags_of("--state-dir /tmp/s --feedback query")).unwrap_err();
        assert!(
            err.contains("--state-dir is not read by `alex improve --feedback query`"),
            "{err}"
        );
        let flags = flags_of("--state-dir /tmp/s --feedback oracle");
        assert_eq!(feedback_mode(&flags), Ok("oracle"));
        assert!(durable_opts(&flags).is_ok());
    }

    #[test]
    fn kill_after_must_be_positive() {
        let err = durable_opts(&flags_of("--state-dir /tmp/s --kill-after 0")).unwrap_err();
        assert!(err.contains("--kill-after"), "{err}");
    }

    #[test]
    fn profile_is_a_value_less_flag() {
        // `--profile --trace out.json` must not swallow --trace as the
        // value of --profile.
        let (positional, flags) = split_args(&[
            "--profile".to_string(),
            "--trace".to_string(),
            "out.json".to_string(),
            "left.nt".to_string(),
        ])
        .unwrap();
        assert_eq!(positional, vec!["left.nt"]);
        assert_eq!(flag(&flags, "profile"), Some("true"));
        assert_eq!(flag(&flags, "trace"), Some("out.json"));
    }

    #[test]
    fn observability_flags_parse_uniformly() {
        let flags = flags_of("--telemetry e.jsonl --metrics-dump m.prom --verbose");
        assert_eq!(flag(&flags, "telemetry"), Some("e.jsonl"));
        assert_eq!(flag(&flags, "metrics-dump"), Some("m.prom"));
        assert_eq!(flag(&flags, "verbose"), Some("true"));
        // --trace requires a value.
        let err = split_args(&["--trace".to_string()]).unwrap_err();
        assert!(err.contains("--trace requires a value"), "{err}");
    }

    #[test]
    fn report_requires_logs_or_check_trace() {
        let err = report_opts(&[], &flags_of("")).unwrap_err();
        assert!(err.contains("at least one events JSONL"), "{err}");
        // --check-trace alone is a valid invocation.
        let opts = report_opts(&[], &flags_of("--check-trace t.json")).unwrap();
        assert_eq!(opts.check_trace.as_deref(), Some("t.json"));
        assert!(opts.logs.is_empty());
    }

    #[test]
    fn report_parses_full_flag_set() {
        let opts = report_opts(
            &["a.jsonl".to_string(), "b.jsonl".to_string()],
            &flags_of("--metrics m.prom --json out.json --format json"),
        )
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
        let err = report_opts(&[], &flags_of("--format yaml --check-trace t.json")).unwrap_err();
        assert!(err.contains("--format"), "{err}");
        // Log-scoped flags without any log are caught, not ignored.
        let err = report_opts(&[], &flags_of("--check-trace t.json --metrics m.prom")).unwrap_err();
        assert!(err.contains("at least one JSONL"), "{err}");
    }
}
