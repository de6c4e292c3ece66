//! The run driver: the policy-evaluation / policy-improvement loop over
//! k ≥ 1 partitions, with convergence detection and per-episode metrics.
//!
//! One partition is the interactive mode: one agent, one feedback source.
//! Batch mode (§6.2) runs k partitions, each an agent over its own slice of
//! the link space judged by its own source. Every global episode splits the
//! feedback budget across the partitions in proportion to their candidate
//! counts (feedback is "directed to all partitions"), runs their rounds on
//! the `partitions` pool in partition order, and reports the aggregate —
//! sums of the partitions' counts — next to each partition's own trace.
//!
//! ## Durable runs
//!
//! A [`Durability`] adds crash safety on top of the same loop: every episode
//! is committed to an `alex-store` journal before the run proceeds, full
//! snapshots are taken every `snapshot_every` episodes, and a killed run is
//! resumed with [`Durability::resume`] — the newest snapshot is restored and
//! the journal tail *replayed* through the agents, reproducing the exact
//! pre-crash learning state (byte-identical candidate links and
//! [`RunReport`], durations aside).
//!
//! ## A panicking round
//!
//! While a round runs on a pool worker, its partition sits behind a
//! `Mutex`. A round that panics mid-mutation poisons it, and the pool's
//! quarantine retry then finds the poisoned lock and panics loudly: a
//! half-mutated agent is never run again. Chaos faults fire at chunk entry,
//! before the round touches its partition, so their retries are safe.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

use alex_guard::{BreachPolicy, Supervisor};
use alex_store::{Recovery, Store};
use alex_telemetry::{counter, emit, span, Event};

use crate::agent::{Agent, EpisodeSummary};
use crate::feedback::{Feedback, FeedbackItem, FeedbackSource};
use crate::metrics::{EpisodeReport, Quality};
use crate::persist::{self, EpisodeRecord, PartitionRecord, PartitionSnapshot, RunSnapshot};
use crate::space::{LinkSpace, PairId};

/// Relaxed convergence: fewer than this fraction of links changed over an
/// episode (§3.2 mentions 5%).
pub(crate) const RELAXED_CONVERGENCE_FRAC: f64 = 0.05;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Strict convergence: no change in the candidate set over an episode.
    Converged,
    /// Relaxed convergence: fewer than 5% of the links changed, and
    /// `stop_on_relaxed` was set.
    RelaxedConverged,
    /// The episode cap was reached (the paper caps at 100).
    MaxEpisodes,
    /// Feedback dried up (empty candidate set).
    NoFeedback,
    /// A durable run suspended itself after `stop_after` committed episodes
    /// (kill-and-resume harness); resume with [`Durability::resume`].
    Suspended,
    /// A supervised run breached its budget under
    /// [`alex_guard::BreachPolicy::Stop`]: the breaching episode was
    /// finalized (and journaled, when durable) before stopping.
    BudgetExhausted,
}

/// Per-partition trace: the partition's own episode reports (scored against
/// its local slice of the ground truth — the paper's Fig. 7(b)/(c) views).
#[derive(Debug, Clone)]
pub struct PartitionTrace {
    /// Partition index.
    pub partition: usize,
    /// Local per-episode reports.
    pub episodes: Vec<EpisodeReport>,
    /// Total time this partition spent processing.
    pub total_duration: Duration,
}

/// The full record of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Quality of the initial candidate set (episode 0 in the figures).
    pub initial_quality: Quality,
    /// Per-episode reports, aggregated over the partitions.
    pub episodes: Vec<EpisodeReport>,
    /// Per-partition traces, in partition order (one for a
    /// single-partition run).
    pub partitions: Vec<PartitionTrace>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// First episode (1-based) at which fewer than the relaxed-convergence
    /// fraction of links changed, if any — the paper's vertical green line.
    pub relaxed_converged_at: Option<usize>,
    /// Total wall-clock duration.
    pub total_duration: std::time::Duration,
    /// Judgments the feedback sources withheld because their queries
    /// degraded ([`EpisodeSummary::degraded`]), summed over every live
    /// round, skipped episodes included.
    pub withheld_judgments: usize,
    /// Queries of the feedback sources that failed outright
    /// ([`EpisodeSummary::failed`]), summed likewise.
    pub failed_queries: usize,
}

impl RunReport {
    /// Number of episodes executed.
    pub fn episode_count(&self) -> usize {
        self.episodes.len()
    }

    /// Final quality (initial quality when no episode ran).
    pub fn final_quality(&self) -> Quality {
        self.episodes
            .last()
            .map(|e| e.quality)
            .unwrap_or(self.initial_quality)
    }

    /// Processing time of the slowest partition (the paper's reported
    /// "execution time", §7.3).
    pub fn slowest_partition(&self) -> Duration {
        self.partitions
            .iter()
            .map(|p| p.total_duration)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Mean of the partitions' processing times.
    pub fn mean_partition(&self) -> Duration {
        let total: Duration = self.partitions.iter().map(|p| p.total_duration).sum();
        total / self.partitions.len().max(1) as u32
    }

    /// Episodes that breached their budget and were marked degraded.
    pub fn degraded_episodes(&self) -> usize {
        self.episodes.iter().filter(|e| e.degraded).count()
    }

    /// The run's completeness stamp: `true` only when no episode was
    /// degraded and the run neither suspended nor stopped on a budget
    /// breach — i.e. the report describes the run the configuration asked
    /// for, not a truncated or overrun one.
    pub fn is_complete(&self) -> bool {
        self.degraded_episodes() == 0
            && !matches!(
                self.stop,
                StopReason::Suspended | StopReason::BudgetExhausted
            )
    }
}

/// Durability settings for [`run_partitions`]: the open store, the recovery it
/// produced, and the commit cadence.
pub struct Durability<'a> {
    store: &'a mut dyn Store,
    recovery: Option<Recovery>,
    snapshot_every: u64,
    resume: bool,
    stop_after: Option<u64>,
    on_commit: Option<Box<dyn FnMut(u64) + 'a>>,
}

impl<'a> Durability<'a> {
    /// Durability over an opened store and the [`Recovery`] its open
    /// returned. Defaults: snapshot every 10 episodes, no resume, no
    /// suspension.
    pub fn new(store: &'a mut dyn Store, recovery: Recovery) -> Self {
        Durability {
            store,
            recovery: Some(recovery),
            snapshot_every: 10,
            resume: false,
            stop_after: None,
            on_commit: None,
        }
    }

    /// Allow continuing a run found in the state directory. Without this, a
    /// non-empty state directory is an error (refusing to silently clobber
    /// or double-run). A fresh directory with `resume` set simply starts
    /// fresh, so resuming is safe even if the original process died before
    /// its first commit.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Take a full snapshot every `n` committed episodes (0 disables
    /// periodic snapshots; the journal alone still recovers everything).
    pub fn snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Suspend the run (stop reason [`StopReason::Suspended`]) after `n`
    /// episodes have been committed *in this session* — the in-process half
    /// of the kill-and-resume harness.
    pub fn stop_after(mut self, n: u64) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Invoke `f` with the episode number after each durable commit (the
    /// CLI's `--kill-after` hook sends itself SIGKILL from here).
    pub fn on_commit(mut self, f: impl FnMut(u64) + 'a) -> Self {
        self.on_commit = Some(Box::new(f));
        self
    }

    fn snapshot(&mut self, episode: u64, payload: &[u8]) -> Result<(), String> {
        self.store
            .write_snapshot(episode, payload)
            .map_err(|e| e.to_string())?;
        counter!("store_snapshots_total").inc();
        Ok(())
    }
}

/// One partition of a run: an agent and the feedback source judging its
/// candidates.
pub struct Partition<'a> {
    /// The partition's agent.
    pub agent: &'a mut Agent,
    /// The source judging the agent's candidates.
    pub source: &'a mut dyn FeedbackSource,
}

/// Wraps a live feedback source, recording every judged item so the episode
/// can be journaled (and later replayed) exactly.
struct RecordingSource<'a> {
    inner: &'a mut dyn FeedbackSource,
    items: Vec<(u32, u32, bool, u32)>,
}

impl FeedbackSource for RecordingSource<'_> {
    fn next(
        &mut self,
        candidates: &crate::candidates::CandidateSet,
        space: &LinkSpace,
    ) -> Option<(PairId, Feedback)> {
        self.next_item(candidates, space)
            .map(|item| (item.state, item.feedback))
    }

    fn next_item(
        &mut self,
        candidates: &crate::candidates::CandidateSet,
        space: &LinkSpace,
    ) -> Option<FeedbackItem> {
        let item = self.inner.next_item(candidates, space)?;
        let (l, r) = space.pair(item.state);
        self.items
            .push((l, r, item.feedback == Feedback::Positive, item.source.0));
        Some(item)
    }

    fn take_degraded(&mut self) -> usize {
        self.inner.take_degraded()
    }

    fn take_failed(&mut self) -> usize {
        self.inner.take_failed()
    }
}

/// What one partition's round produced.
struct Round {
    /// The round's share of the episode's feedback budget.
    quota: usize,
    summary: EpisodeSummary,
    /// The judged items, recorded for the journal (durable runs only).
    items: Vec<(u32, u32, bool, u32)>,
    duration: Duration,
}

/// Run one partition's round with its share of the feedback budget.
fn play(part: &mut Partition<'_>, quota: usize, record: bool) -> Round {
    let round_span = span("partition_round");
    let (summary, items) = if record {
        let mut recorder = RecordingSource {
            inner: &mut *part.source,
            items: Vec::new(),
        };
        let summary = part.agent.run_episode_sized(&mut recorder, quota);
        (summary, recorder.items)
    } else {
        let summary = part.agent.run_episode_sized(&mut *part.source, quota);
        (summary, Vec::new())
    };
    Round {
        quota,
        summary,
        items,
        duration: round_span.elapsed(),
    }
}

/// Run every partition's round. One partition runs inline on the caller;
/// several are dispatched through the `partitions` pool, one chunk each,
/// and come back in partition order.
fn play_rounds(parts: &mut [Partition<'_>], quotas: &[usize], record: bool) -> Vec<Round> {
    if let [part] = parts {
        return vec![play(part, quotas[0], record)];
    }
    let slots: Vec<(usize, Mutex<&mut Partition<'_>>, usize)> = parts
        .iter_mut()
        .zip(quotas)
        .enumerate()
        .map(|(i, (part, &quota))| (i, Mutex::new(part), quota))
        .collect();
    alex_parallel::Pool::new("partitions").map_each(&slots, |(i, slot, quota)| {
        let mut part = slot.lock().unwrap_or_else(|_| {
            panic!(
                "partition {i}: an earlier attempt at this round panicked mid-mutation; \
                 its state cannot be trusted, so the round is not run again"
            )
        });
        play(&mut part, *quota, record)
    })
}

/// Each partition's share of an episode's feedback budget: all of it for a
/// single partition; otherwise proportional to the candidate counts, the
/// rounding remainder going one item each to the largest partitions (ties
/// to the lower index). The remainder is below the number of non-empty
/// partitions, so it only ever lands on non-empty ones.
fn quotas(counts: &[usize], budget: usize) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    if counts.len() == 1 {
        return vec![budget];
    }
    if total == 0 {
        return vec![0; counts.len()];
    }
    let mut quotas: Vec<usize> = counts.iter().map(|&c| budget * c / total).collect();
    let remainder = budget - quotas.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    for &i in &order[..remainder] {
        quotas[i] += 1;
    }
    quotas
}

/// Fraction of links changed against the previous candidate set; a set
/// appearing from nothing counts as fully changed.
fn change_frac(changed: usize, prev: usize, current: usize) -> f64 {
    match (prev, current) {
        (0, 0) => 0.0,
        (0, _) => 1.0,
        _ => changed as f64 / prev as f64,
    }
}

/// Number of ids in exactly one of two sorted lists.
fn symmetric_difference_len(a: &[PairId], b: &[PairId]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - 2 * common
}

/// What the loop keeps per partition between episodes.
struct Track {
    /// Ground-truth links in the partition's slice (its recall basis).
    truth_len: usize,
    /// The candidate set after the last episode, sorted.
    prev: Vec<PairId>,
    trace: PartitionTrace,
}

/// Mutable bookkeeping shared by the fresh, replay, and live paths.
struct RunState {
    episodes: Vec<EpisodeReport>,
    relaxed_converged_at: Option<usize>,
    stop: Option<StopReason>,
    recovered_from: u64,
    withheld_judgments: usize,
    failed_queries: usize,
}

/// Per-episode bookkeeping: each partition is snapshotted and scored once
/// into its trace, and the aggregate report is the sum of their counts.
/// Identical for live and replayed episodes — that is what makes replay
/// reach the same stop decision the live run would have.
#[allow(clippy::too_many_arguments)]
fn note_episode(
    parts: &[Partition<'_>],
    tracks: &mut [Track],
    truth: &HashSet<(u32, u32)>,
    st: &mut RunState,
    episode: usize,
    rounds: &[Round],
    duration: Duration,
    degraded: bool,
) {
    let (mut changed, mut prev, mut candidates, mut correct) = (0, 0, 0, 0);
    let mut total = EpisodeSummary::default();
    for ((part, track), round) in parts.iter().zip(tracks.iter_mut()).zip(rounds) {
        let current = part.agent.candidates().snapshot();
        let part_changed = symmetric_difference_len(&current, &track.prev);
        // Partition i holds only left entities with id % k == i, so its
        // correct links are counted against the whole truth.
        let (part_correct, _) = {
            let _s = span("evaluate");
            Quality::evaluate_counted(part.agent.candidates(), part.agent.space(), truth)
        };
        let s = &round.summary;
        track.trace.episodes.push(EpisodeReport {
            episode,
            quality: Quality::from_counts(part_correct, current.len(), track.truth_len),
            candidates: current.len(),
            correct: part_correct,
            added: s.added,
            removed: s.removed,
            negative_feedback_frac: s.negative_frac(),
            rollbacks: s.rollbacks,
            change_frac: change_frac(part_changed, track.prev.len(), current.len()),
            duration: round.duration,
            degraded,
        });
        track.trace.total_duration += round.duration;
        changed += part_changed;
        prev += track.prev.len();
        candidates += current.len();
        correct += part_correct;
        total.added += s.added;
        total.removed += s.removed;
        total.rollbacks += s.rollbacks;
        total.admitted += s.admitted;
        total.deferred += s.deferred;
        total.cascades += s.cascades;
        track.prev = current;
    }
    let change_frac = change_frac(changed, prev, candidates);
    let quality = Quality::from_counts(correct, candidates, truth.len());
    // Several partitions weigh their negative fractions by quota.
    let negative_feedback_frac = match rounds {
        [round] => round.summary.negative_frac(),
        _ => {
            let weighted: f64 = rounds
                .iter()
                .map(|r| r.summary.negative_frac() * r.quota as f64)
                .sum();
            let quota: usize = rounds.iter().map(|r| r.quota).sum();
            if quota == 0 {
                0.0
            } else {
                weighted / quota as f64
            }
        }
    };
    st.episodes.push(EpisodeReport {
        episode,
        quality,
        candidates,
        correct,
        added: total.added,
        removed: total.removed,
        negative_feedback_frac,
        rollbacks: total.rollbacks,
        change_frac,
        duration,
        degraded,
    });
    if degraded {
        counter!("episodes_degraded_total").inc();
    }
    emit!(Event::EpisodeEnd {
        episode: episode as u64,
        precision: quality.precision,
        recall: quality.recall,
        f_measure: quality.f_measure,
        added: total.added as u64,
        removed: total.removed as u64,
        rollbacks: total.rollbacks as u64,
        threads: alex_parallel::configured_threads() as u64,
        duration_us: duration.as_micros() as u64,
        recovered_from: st.recovered_from,
        trust_admitted: total.admitted as u64,
        trust_deferred: total.deferred as u64,
        trust_cascades: total.cascades as u64,
        degraded,
    });
    // Flush at every episode end: a run killed at a commit boundary keeps
    // the records of every episode it committed.
    alex_telemetry::global().events().flush();

    let cfg = parts[0].agent.config();
    if st.relaxed_converged_at.is_none() && change_frac < RELAXED_CONVERGENCE_FRAC {
        st.relaxed_converged_at = Some(episode);
    }
    if changed == 0 {
        st.stop = Some(StopReason::Converged);
    } else if cfg.stop_on_relaxed && change_frac < RELAXED_CONVERGENCE_FRAC {
        st.stop = Some(StopReason::RelaxedConverged);
    }
}

fn durable_state(source: &dyn FeedbackSource) -> Result<Vec<u8>, String> {
    source
        .durable_state()
        .ok_or_else(|| "feedback source stopped providing durable state".to_string())
}

/// The fingerprint pinning a durable run: its partitions' base
/// fingerprints (link space + configuration each), in order.
fn run_fingerprint(parts: &[Partition<'_>]) -> u64 {
    persist::combine_fingerprints(parts.iter().map(|p| p.agent.base_fingerprint()))
}

/// Encode a full-run snapshot of every partition + driver state.
fn snapshot_payload(
    parts: &[Partition<'_>],
    tracks: &[Track],
    st: &RunState,
    last_episode: u64,
    completed: bool,
) -> Result<Vec<u8>, String> {
    let partitions = parts
        .iter()
        .zip(tracks)
        .map(|(part, track)| {
            Ok(PartitionSnapshot {
                episodes: track.trace.episodes.clone(),
                agent: part.agent.capture_state(),
                source_state: durable_state(&*part.source)?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(persist::encode_snapshot(&RunSnapshot {
        base_fingerprint: run_fingerprint(parts),
        last_episode,
        completed,
        relaxed_converged_at: st.relaxed_converged_at.map(|e| e as u64),
        episodes: st.episodes.clone(),
        partitions,
    }))
}

/// [`run_partitions`] over one agent and one source, neither durable nor
/// supervised. It and [`run_durable`] are single-partition spellings for
/// the e2e benchmark harness, tests and examples; the CLI builds every run
/// through [`crate::partition::run_partitioned_with`].
pub fn run(
    agent: &mut Agent,
    source: &mut dyn FeedbackSource,
    truth: &HashSet<(u32, u32)>,
) -> RunReport {
    match run_partitions(vec![Partition { agent, source }], truth, None, None) {
        Ok(report) => report,
        // Without durability there is no I/O and no recovery: nothing in
        // the loop can fail.
        Err(e) => unreachable!("non-durable run cannot fail: {e}"),
    }
}

/// [`run_partitions`] over one agent and one source with durability (see
/// [`run`]).
pub fn run_durable(
    agent: &mut Agent,
    source: &mut dyn FeedbackSource,
    truth: &HashSet<(u32, u32)>,
    durability: Durability<'_>,
) -> Result<RunReport, String> {
    run_partitions(
        vec![Partition { agent, source }],
        truth,
        Some(durability),
        None,
    )
}

/// The one episode loop: run k ≥ 1 partitions to convergence, each episode
/// scored against `truth`. Partition i must hold only left
/// entities with `id % k == i` (§6.2's round-robin split; any space for
/// k = 1). The journal, snapshots, budget checks and convergence all work
/// on the global episode; each partition also keeps its own trace.
///
/// With `durability`, every episode is journaled before the run proceeds,
/// snapshots are taken periodically, and a prior interrupted run is resumed
/// (snapshot restore + journal replay) when [`Durability::resume`] is set.
/// With `supervisor` (see `alex-guard`), the budget is checked at every
/// episode boundary: a breaching episode is finalized normally but marked
/// degraded (inside its journal record, so a resumed run replays the
/// marker), and the run then continues or stops per the supervisor's
/// [`BreachPolicy`].
///
/// # Errors
///
/// Only durable runs fail: on store I/O errors, corrupt state that recovery
/// could not repair, a state directory belonging to a different run, or a
/// feedback source without durable state.
///
/// # Panics
///
/// If `parts` is empty, or if a partition's round panics (see the module
/// docs: a panicked round is never re-run).
pub fn run_partitions(
    mut parts: Vec<Partition<'_>>,
    truth: &HashSet<(u32, u32)>,
    mut durability: Option<Durability<'_>>,
    mut supervisor: Option<&mut Supervisor>,
) -> Result<RunReport, String> {
    assert!(!parts.is_empty(), "at least one partition");
    let run_span = span("improve");
    let k = parts.len();
    let initial_quality = {
        let _s = span("initial_quality");
        let (mut correct, mut candidates) = (0, 0);
        for part in &parts {
            let candidate_set = part.agent.candidates();
            correct += Quality::evaluate_counted(candidate_set, part.agent.space(), truth).0;
            candidates += candidate_set.len();
        }
        Quality::from_counts(correct, candidates, truth.len())
    };
    let mut truth_lens = vec![0; k];
    for &(l, _) in truth {
        truth_lens[l as usize % k] += 1;
    }
    let mut tracks: Vec<Track> = parts
        .iter()
        .zip(truth_lens)
        .enumerate()
        .map(|(i, (part, truth_len))| Track {
            truth_len,
            prev: part.agent.candidates().snapshot(),
            trace: PartitionTrace {
                partition: i,
                episodes: Vec::new(),
                total_duration: Duration::ZERO,
            },
        })
        .collect();
    let mut st = RunState {
        episodes: Vec::new(),
        relaxed_converged_at: None,
        stop: None,
        recovered_from: 0,
        withheld_judgments: 0,
        failed_queries: 0,
    };
    let mut start_episode = 1usize;
    let max_episodes = parts[0].agent.config().max_episodes;
    let budget = parts[0].agent.config().episode_size;

    if let Some(d) = durability.as_mut() {
        if parts.iter().any(|p| p.source.durable_state().is_none()) {
            return Err(
                "durable runs need a feedback source with durable state (the oracle); \
                 live user feedback cannot be journaled for replay"
                    .to_string(),
            );
        }
        let mut recovery = d
            .recovery
            .take()
            .ok_or_else(|| "durability recovery already consumed".to_string())?;
        if recovery.is_fresh() {
            // Brand-new state dir (with or without --resume: resuming
            // nothing is starting fresh, which keeps resume safe even if
            // the original process died before its first commit). Pin the
            // run with an initial snapshot before any episode runs.
            d.snapshot(0, &snapshot_payload(&parts, &tracks, &st, 0, false)?)?;
        } else {
            if !d.resume {
                return Err(format!(
                    "state dir {} already holds a run; pass --resume to continue it \
                     or point --state-dir at an empty directory",
                    d.store.dir().display()
                ));
            }
            counter!("store_recoveries_total").inc();
            counter!("store_truncated_records_total").add(recovery.truncated_records);
            let last = recovery.last_seq().unwrap_or(0);
            let different_run = "state dir belongs to a different run: the link space, initial \
                 links, partitions, or configuration changed since the snapshot was taken";

            let mut expected_seq = 1u64;
            if let Some((snap_seq, payload)) = recovery.snapshot.take() {
                // Decode, then drop the file bytes before the decoded state
                // moves into the agents.
                let snap = persist::decode_snapshot(&payload)?;
                drop(payload);
                if snap.completed {
                    return Err(
                        "this run already completed; nothing to resume (start a fresh \
                         run with a new --state-dir)"
                            .to_string(),
                    );
                }
                if snap.base_fingerprint != run_fingerprint(&parts) || snap.partitions.len() != k {
                    return Err(different_run.to_string());
                }
                for ((part, track), saved) in parts.iter_mut().zip(&mut tracks).zip(snap.partitions)
                {
                    part.agent.restore_state(saved.agent)?;
                    part.source.restore_durable_state(&saved.source_state)?;
                    track.trace.episodes = saved.episodes;
                    track.prev = part.agent.candidates().snapshot();
                }
                st.relaxed_converged_at = snap.relaxed_converged_at.map(|e| e as usize);
                st.episodes = snap.episodes;
                expected_seq = snap_seq + 1;
            }
            st.recovered_from = last;

            // Replay the journal tail through the restored agents. The same
            // bookkeeping as the live loop runs here, so convergence that
            // struck just before the crash is re-detected.
            for (seq, payload) in &recovery.journal_tail {
                if *seq != expected_seq {
                    return Err(format!(
                        "journal gap: expected episode {expected_seq}, found {seq}; \
                         the state dir is damaged beyond recovery"
                    ));
                }
                expected_seq += 1;
                let episode_span = span("episode");
                emit!(Event::EpisodeStart { episode: *seq });
                let record = persist::decode_episode(payload)?;
                if record.partitions.len() != k {
                    return Err(different_run.to_string());
                }
                let counts: Vec<usize> = parts.iter().map(|p| p.agent.candidates().len()).collect();
                let mut rounds = Vec::with_capacity(k);
                for ((part, saved), quota) in parts
                    .iter_mut()
                    .zip(&record.partitions)
                    .zip(quotas(&counts, budget))
                {
                    rounds.push(Round {
                        quota,
                        summary: part.agent.replay_episode(&saved.items)?,
                        items: Vec::new(),
                        duration: Duration::ZERO,
                    });
                    part.source.restore_durable_state(&saved.source_state)?;
                }
                // The degraded marker is replayed from the WAL record, not
                // re-measured: wall clocks are not reproducible.
                note_episode(
                    &parts,
                    &mut tracks,
                    truth,
                    &mut st,
                    *seq as usize,
                    &rounds,
                    episode_span.elapsed(),
                    record.degraded,
                );
                if st.stop.is_some() {
                    break;
                }
            }
            start_episode = last as usize + 1;
        }
    }

    let mut committed_this_session = 0u64;
    if st.stop.is_none() {
        for episode in start_episode..=max_episodes {
            let episode_span = span("episode");
            emit!(Event::EpisodeStart {
                episode: episode as u64
            });
            let counts: Vec<usize> = parts.iter().map(|p| p.agent.candidates().len()).collect();
            let mut rounds = {
                let _s = span("feedback");
                play_rounds(&mut parts, &quotas(&counts, budget), durability.is_some())
            };
            let duration = episode_span.elapsed();
            let withheld: usize = rounds.iter().map(|r| r.summary.degraded).sum();
            st.withheld_judgments += withheld;
            let failed: usize = rounds.iter().map(|r| r.summary.failed).sum();
            st.failed_queries += failed;

            let items: usize = rounds.iter().map(|r| r.summary.feedback_items()).sum();
            if items == 0 {
                if withheld > 0 || failed > 0 {
                    // Every judgment this episode was withheld, or its
                    // queries failed, because sources were down. Skip the
                    // episode — record nothing, corrupt nothing — and try
                    // again: the breakers may recover.
                    counter!("alex_degraded_episodes_skipped_total").inc();
                    continue;
                }
                st.stop = Some(StopReason::NoFeedback);
                break;
            }

            // Budget check at the episode boundary, before the commit, so
            // the degraded marker travels inside the episode's own WAL
            // record and resume replays it for free.
            let degraded = supervisor.as_deref_mut().is_some_and(|sup| {
                sup.after_episode(episode as u64, duration, items as u64)
                    .is_some()
            });

            if let Some(d) = durability.as_mut() {
                // Commit before acting on the episode: once append returns,
                // this episode survives a crash.
                let partitions = parts
                    .iter()
                    .zip(&mut rounds)
                    .map(|(part, round)| {
                        Ok(PartitionRecord {
                            items: std::mem::take(&mut round.items),
                            source_state: durable_state(&*part.source)?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                let record = persist::encode_episode(&EpisodeRecord {
                    partitions,
                    degraded,
                });
                d.store
                    .append_episode(episode as u64, &record)
                    .map_err(|e| e.to_string())?;
                counter!("store_journal_records_total").inc();
            }

            note_episode(
                &parts,
                &mut tracks,
                truth,
                &mut st,
                episode,
                &rounds,
                duration,
                degraded,
            );

            if degraded
                && st.stop.is_none()
                && supervisor.as_ref().map(|s| s.policy()) == Some(BreachPolicy::Stop)
            {
                // Finalize-then-stop: the breaching episode is already
                // committed and reported; the final snapshot below stamps
                // the run completed so a later --resume refuses cleanly.
                st.stop = Some(StopReason::BudgetExhausted);
            }

            if let Some(d) = durability.as_mut() {
                committed_this_session += 1;
                if st.stop.is_none()
                    && d.snapshot_every > 0
                    && (episode as u64).is_multiple_of(d.snapshot_every)
                {
                    let payload = snapshot_payload(&parts, &tracks, &st, episode as u64, false)?;
                    d.snapshot(episode as u64, &payload)?;
                }
                if let Some(cb) = d.on_commit.as_mut() {
                    cb(episode as u64);
                }
                if st.stop.is_none() && d.stop_after == Some(committed_this_session) {
                    st.stop = Some(StopReason::Suspended);
                }
            }
            if st.stop.is_some() {
                break;
            }
        }
    }

    let stop = st.stop.unwrap_or(StopReason::MaxEpisodes);
    if let Some(d) = durability.as_mut() {
        if stop != StopReason::Suspended {
            // Final snapshot, flagged completed: a later --resume fails
            // with a clear message instead of re-running a finished run.
            let last = st
                .episodes
                .last()
                .map(|e| e.episode as u64)
                .unwrap_or(st.recovered_from);
            d.snapshot(last, &snapshot_payload(&parts, &tracks, &st, last, true)?)?;
        }
    }

    Ok(RunReport {
        initial_quality,
        episodes: st.episodes,
        partitions: tracks.into_iter().map(|t| t.trace).collect(),
        stop,
        relaxed_converged_at: st.relaxed_converged_at,
        total_duration: run_span.elapsed(),
        withheld_judgments: st.withheld_judgments,
        failed_queries: st.failed_queries,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::AlexConfig;
    use crate::feedback::OracleFeedback;
    use crate::fixtures::animals;
    use crate::space::{LinkSpace, SpaceConfig};

    /// The twelve animals' space and its diagonal ground truth.
    fn build() -> (LinkSpace, HashSet<(u32, u32)>) {
        let (left, right) = animals(12);
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        (space, (0..12).map(|i| (i, i)).collect())
    }

    #[test]
    fn run_improves_recall_from_partial_start() {
        let (space, truth) = build();
        // Start with 25% of the ground truth.
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let cfg = AlexConfig {
            episode_size: 40,
            max_episodes: 30,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 5);
        let report = run(&mut agent, &mut oracle, &truth);
        assert!(report.initial_quality.recall <= 0.3);
        let final_q = report.final_quality();
        assert!(
            final_q.recall > report.initial_quality.recall,
            "recall did not improve: {:?} -> {:?}",
            report.initial_quality,
            final_q
        );
        assert!(final_q.recall >= 0.8, "final recall {:?}", final_q);
    }

    #[test]
    fn run_cleans_bad_links() {
        let (space, truth) = build();
        // Start with all true links plus several wrong ones.
        let mut initial: Vec<(u32, u32)> = truth.iter().copied().collect();
        initial.extend([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let cfg = AlexConfig {
            episode_size: 40,
            max_episodes: 30,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 6);
        let report = run(&mut agent, &mut oracle, &truth);
        let final_q = report.final_quality();
        assert!(final_q.precision > report.initial_quality.precision);
        assert!(final_q.precision >= 0.9, "final {final_q:?}");
    }

    #[test]
    fn empty_start_stops_with_no_feedback() {
        let (space, truth) = build();
        let mut agent = Agent::new(space, &[], AlexConfig::default());
        let mut oracle = OracleFeedback::new(truth.clone(), 7);
        let report = run(&mut agent, &mut oracle, &truth);
        assert_eq!(report.stop, StopReason::NoFeedback);
        assert_eq!(report.episode_count(), 0);
    }

    #[test]
    fn episode_reports_are_sequential_and_timed() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(4).collect();
        let cfg = AlexConfig {
            episode_size: 20,
            max_episodes: 5,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 8);
        let report = run(&mut agent, &mut oracle, &truth);
        for (i, ep) in report.episodes.iter().enumerate() {
            assert_eq!(ep.episode, i + 1);
        }
        assert!(report.total_duration.as_nanos() > 0);
    }

    #[test]
    fn convergence_is_detected() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().collect();
        let cfg = AlexConfig {
            episode_size: 60,
            max_episodes: 50,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(space, &initial, cfg);
        let mut oracle = OracleFeedback::new(truth.clone(), 9);
        let report = run(&mut agent, &mut oracle, &truth);
        // Must stop before the cap: all-correct candidates stabilize.
        assert_eq!(report.stop, StopReason::Converged);
        assert!(report.relaxed_converged_at.is_some());
        assert!(
            report.relaxed_converged_at.unwrap() <= report.episode_count(),
            "relaxed convergence cannot come after strict"
        );
    }

    // ------------------------------------------------------------ durable

    use alex_store::DirectStore;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alex-driver-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> AlexConfig {
        AlexConfig {
            episode_size: 40,
            max_episodes: 30,
            ..AlexConfig::default()
        }
    }

    /// Reports compared for resume identity: everything except wall-clock
    /// durations (which belong to whichever session ran the episode).
    fn report_identity(r: &RunReport) -> Vec<String> {
        let mut out = vec![format!(
            "initial {:?} stop {:?} relaxed {:?}",
            r.initial_quality, r.stop, r.relaxed_converged_at
        )];
        for e in &r.episodes {
            out.push(format!(
                "ep {} q {:?} cand {} correct {} +{} -{} neg {} rb {} chg {} deg {}",
                e.episode,
                e.quality,
                e.candidates,
                e.correct,
                e.added,
                e.removed,
                e.negative_feedback_frac,
                e.rollbacks,
                e.change_frac,
                e.degraded
            ));
        }
        out
    }

    #[test]
    fn durable_fresh_run_matches_plain_run() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        let mut plain_agent = Agent::new(space.clone(), &initial, cfg());
        let mut plain_oracle = OracleFeedback::new(truth.clone(), 11);
        let plain = run(&mut plain_agent, &mut plain_oracle, &truth);

        let dir = tmpdir("fresh-vs-plain");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 11);
        let durable = run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap();

        assert_eq!(report_identity(&plain), report_identity(&durable));
        assert_eq!(plain_agent.capture_state(), agent.capture_state());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suspend_and_resume_is_identical() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        // Small episodes plus noisy feedback so the candidate set keeps
        // churning (rollbacks included) and the cut point lands strictly
        // mid-run instead of after convergence.
        let cfg = || AlexConfig {
            episode_size: 5,
            max_episodes: 12,
            ..AlexConfig::default()
        };
        let noisy = |seed| OracleFeedback::with_error_rate(truth.clone(), 0.2, seed);

        // Uninterrupted reference run.
        let dir_ref = tmpdir("resume-ref");
        let (mut store, recovery) = DirectStore::open(&dir_ref).unwrap();
        let mut ref_agent = Agent::new(space.clone(), &initial, cfg());
        let mut ref_oracle = noisy(12);
        let reference = run_durable(
            &mut ref_agent,
            &mut ref_oracle,
            &truth,
            Durability::new(&mut store, recovery).snapshot_every(4),
        )
        .unwrap();
        assert!(
            reference.episode_count() > 3,
            "reference too short to test: {} episodes",
            reference.episode_count()
        );

        // Interrupted run: suspend after 3 committed episodes...
        let dir = tmpdir("resume-cut");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = noisy(12);
        let cut = run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery)
                .snapshot_every(4)
                .stop_after(3),
        )
        .unwrap();
        assert_eq!(cut.stop, StopReason::Suspended);
        assert_eq!(cut.episode_count(), 3);
        drop(store);

        // ...then resume with a *fresh* agent and oracle, as a new process
        // would.
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        assert!(!recovery.is_fresh());
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = noisy(12);
        let resumed = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery)
                .snapshot_every(4)
                .resume(true),
        )
        .unwrap();

        assert_eq!(report_identity(&reference), report_identity(&resumed));
        assert_eq!(ref_agent.capture_state(), agent2.capture_state());
        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn used_state_dir_requires_resume_flag() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let dir = tmpdir("no-flag");

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 13);
        run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery).stop_after(1),
        )
        .unwrap();
        drop(store);

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = OracleFeedback::new(truth.clone(), 13);
        let err = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap_err();
        assert!(err.contains("--resume"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_run_refuses_resume() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let dir = tmpdir("completed");

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 14);
        run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap();
        drop(store);

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = OracleFeedback::new(truth.clone(), 14);
        let err = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery).resume(true),
        )
        .unwrap_err();
        assert!(err.contains("already completed"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_run_is_rejected() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let dir = tmpdir("mismatch");

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 15);
        run_durable(
            &mut agent,
            &mut oracle,
            &truth,
            Durability::new(&mut store, recovery).stop_after(1),
        )
        .unwrap();
        drop(store);

        // Same space, different config seed → different fingerprint.
        let other = AlexConfig {
            seed: cfg().seed + 1,
            ..cfg()
        };
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, other);
        let mut oracle2 = OracleFeedback::new(truth.clone(), 15);
        let err = run_durable(
            &mut agent2,
            &mut oracle2,
            &truth,
            Durability::new(&mut store, recovery).resume(true),
        )
        .unwrap_err();
        assert!(err.contains("different run"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_durable_source_is_rejected() {
        struct LiveOnly;
        impl FeedbackSource for LiveOnly {
            fn next(
                &mut self,
                _: &crate::candidates::CandidateSet,
                _: &LinkSpace,
            ) -> Option<(PairId, Feedback)> {
                None
            }
        }
        let (space, truth) = build();
        let dir = tmpdir("live-only");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space, &[(0, 0)], cfg());
        let err = run_durable(
            &mut agent,
            &mut LiveOnly,
            &truth,
            Durability::new(&mut store, recovery),
        )
        .unwrap_err();
        assert!(err.contains("durable state"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --------------------------------------------------------- supervised

    use alex_guard::Budget;

    /// One agent and source through [`run_partitions`] under `sup`.
    fn supervised(
        agent: &mut Agent,
        source: &mut dyn FeedbackSource,
        truth: &HashSet<(u32, u32)>,
        durability: Option<Durability<'_>>,
        sup: &mut Supervisor,
    ) -> RunReport {
        run_partitions(
            vec![Partition { agent, source }],
            truth,
            durability,
            Some(sup),
        )
        .unwrap()
    }

    #[test]
    fn supervised_unlimited_budget_matches_plain_run() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        let mut plain_agent = Agent::new(space.clone(), &initial, cfg());
        let mut plain_oracle = OracleFeedback::new(truth.clone(), 21);
        let plain = run(&mut plain_agent, &mut plain_oracle, &truth);

        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 21);
        let mut sup = Supervisor::new(Budget::unlimited(), BreachPolicy::Stop);
        let supervised = supervised(&mut agent, &mut oracle, &truth, None, &mut sup);

        assert_eq!(report_identity(&plain), report_identity(&supervised));
        assert_eq!(plain_agent.capture_state(), agent.capture_state());
        assert_eq!(sup.breaches(), 0);
        assert!(supervised.is_complete());
        assert_eq!(supervised.degraded_episodes(), 0);
    }

    #[test]
    fn item_quota_breach_degrades_and_stops_under_stop_policy() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 22);
        // One feedback item total: the first episode breaches the quota.
        let mut sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Stop);
        let report = supervised(&mut agent, &mut oracle, &truth, None, &mut sup);

        assert_eq!(report.stop, StopReason::BudgetExhausted);
        assert_eq!(
            report.episode_count(),
            1,
            "finalize-then-stop keeps the breaching episode"
        );
        assert_eq!(report.degraded_episodes(), 1);
        assert!(report.episodes[0].degraded);
        assert!(!report.is_complete());
        assert_eq!(sup.breaches(), 1);
    }

    #[test]
    fn item_quota_breach_continues_under_continue_policy() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        let mut plain_agent = Agent::new(space.clone(), &initial, cfg());
        let mut plain_oracle = OracleFeedback::new(truth.clone(), 23);
        let plain = run(&mut plain_agent, &mut plain_oracle, &truth);

        let mut agent = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 23);
        let mut sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let report = supervised(&mut agent, &mut oracle, &truth, None, &mut sup);

        // Degradation is recorded but never changes the run's trajectory:
        // every episode breaches the quota yet the run ends as the plain
        // run does.
        assert_ne!(report.stop, StopReason::BudgetExhausted);
        assert_eq!(report.episode_count(), plain.episode_count());
        assert_eq!(report.degraded_episodes(), report.episode_count());
        assert!(!report.is_complete());
        assert_eq!(sup.breaches(), report.episode_count() as u64);
        assert_eq!(plain_agent.capture_state(), agent.capture_state());
    }

    #[test]
    fn durable_supervised_resume_replays_degraded_markers() {
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();

        // Reference: one uninterrupted supervised durable run.
        let dir_ref = tmpdir("sup-ref");
        let (mut store, recovery) = DirectStore::open(&dir_ref).unwrap();
        let mut ref_agent = Agent::new(space.clone(), &initial, cfg());
        let mut ref_oracle = OracleFeedback::new(truth.clone(), 24);
        let mut ref_sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let reference = supervised(
            &mut ref_agent,
            &mut ref_oracle,
            &truth,
            Some(Durability::new(&mut store, recovery)),
            &mut ref_sup,
        );
        assert!(reference.degraded_episodes() > 0);
        assert!(
            reference.episode_count() > 1,
            "need >1 episode to suspend mid-run"
        );

        // Same run, suspended after three episodes, then resumed WITHOUT a
        // supervisor: the degraded markers must come back from the WAL.
        let dir = tmpdir("sup-resume");
        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent = Agent::new(space.clone(), &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 24);
        let mut sup = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let suspended = supervised(
            &mut agent,
            &mut oracle,
            &truth,
            Some(Durability::new(&mut store, recovery).stop_after(1)),
            &mut sup,
        );
        assert_eq!(suspended.stop, StopReason::Suspended);
        assert_eq!(suspended.degraded_episodes(), 1);
        drop(store);

        let (mut store, recovery) = DirectStore::open(&dir).unwrap();
        let mut agent2 = Agent::new(space, &initial, cfg());
        let mut oracle2 = OracleFeedback::new(truth.clone(), 24);
        let mut sup2 = Supervisor::new(Budget::unlimited().max_items(1), BreachPolicy::Continue);
        let resumed = supervised(
            &mut agent2,
            &mut oracle2,
            &truth,
            Some(Durability::new(&mut store, recovery).resume(true)),
            &mut sup2,
        );

        assert_eq!(report_identity(&reference), report_identity(&resumed));
        assert_eq!(ref_agent.capture_state(), agent2.capture_state());
        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --------------------------------------------------------- partitions

    #[test]
    fn quotas_split_the_budget_by_candidate_count() {
        assert_eq!(quotas(&[0], 10), vec![10]);
        assert_eq!(quotas(&[0, 0, 0], 10), vec![0, 0, 0]);
        // 10 * (5, 3, 0, 2) / 10 leaves no remainder.
        assert_eq!(quotas(&[5, 3, 0, 2], 10), vec![5, 3, 0, 2]);
        // Floors (3, 3, 3) leave 1, which goes to the largest partition,
        // the lowest index among equals.
        assert_eq!(quotas(&[1, 1, 1], 10), vec![4, 3, 3]);
        assert_eq!(quotas(&[1, 4, 0, 4], 7), vec![0, 4, 0, 3]);
    }

    #[test]
    fn a_round_that_panicked_mid_mutation_is_never_run_again() {
        /// Panics on its first judgment, then behaves: a quarantine retry
        /// that re-ran the round would succeed over a half-mutated agent.
        struct PanicOnce(OracleFeedback, bool);
        impl FeedbackSource for PanicOnce {
            fn next(
                &mut self,
                candidates: &crate::candidates::CandidateSet,
                space: &LinkSpace,
            ) -> Option<(PairId, Feedback)> {
                assert!(!std::mem::take(&mut self.1), "injected mid-round panic");
                self.0.next(candidates, space)
            }
        }
        let (space, truth) = build();
        let initial: Vec<(u32, u32)> = truth.iter().copied().take(3).collect();
        let mut first = Agent::new(space.clone(), &initial, cfg());
        let mut second = Agent::new(space, &initial, cfg());
        let mut oracle = OracleFeedback::new(truth.clone(), 31);
        let mut panicky = PanicOnce(OracleFeedback::new(truth.clone(), 32), true);
        let parts = vec![
            Partition {
                agent: &mut first,
                source: &mut oracle,
            },
            Partition {
                agent: &mut second,
                source: &mut panicky,
            },
        ];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_partitions(parts, &truth, None, None)
        }))
        .expect_err("the poisoned partition must fail the run");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("partition 1"), "{message}");
        assert!(message.contains("not run again"), "{message}");
    }

    #[test]
    fn partitioned_durable_resume_is_identical() {
        // The fixture of `build`, split round-robin into two partitions.
        let (left, right) = animals(12);
        let spaces: Vec<LinkSpace> = (0..2)
            .map(|i| {
                let cfg = SpaceConfig {
                    partition: Some((i, 2)),
                    ..SpaceConfig::default()
                };
                LinkSpace::build(&left, &right, &cfg)
            })
            .collect();
        let truth: HashSet<(u32, u32)> = (0..12).map(|i| (i, i)).collect();
        let initial = |i: u32| -> Vec<(u32, u32)> {
            truth
                .iter()
                .copied()
                .filter(|&(l, _)| l % 2 == i && l < 6)
                .collect()
        };
        let cfg = |seed| AlexConfig {
            episode_size: 5,
            max_episodes: 12,
            seed,
            ..AlexConfig::default()
        };
        let run_two = |dir: &PathBuf, stop_after: Option<u64>, resume: bool| {
            let (mut store, recovery) = DirectStore::open(dir).unwrap();
            let mut agents = [
                Agent::new(spaces[0].clone(), &initial(0), cfg(1)),
                Agent::new(spaces[1].clone(), &initial(1), cfg(2)),
            ];
            let mut oracles =
                [12, 13].map(|seed| OracleFeedback::with_error_rate(truth.clone(), 0.2, seed));
            let parts = agents
                .iter_mut()
                .zip(&mut oracles)
                .map(|(agent, source)| Partition { agent, source })
                .collect();
            let mut durability = Durability::new(&mut store, recovery)
                .snapshot_every(2)
                .resume(resume);
            if let Some(n) = stop_after {
                durability = durability.stop_after(n);
            }
            let report = run_partitions(parts, &truth, Some(durability), None).unwrap();
            (report, agents)
        };

        let dir_ref = tmpdir("parts-ref");
        let (reference, ref_agents) = run_two(&dir_ref, None, false);
        assert!(
            reference.episode_count() > 3,
            "reference too short to cut: {:?}",
            report_identity(&reference)
        );
        assert_eq!(reference.partitions.len(), 2);

        let dir = tmpdir("parts-cut");
        let (cut, _) = run_two(&dir, Some(3), false);
        assert_eq!(cut.stop, StopReason::Suspended);
        let (resumed, agents) = run_two(&dir, None, true);

        assert_eq!(report_identity(&reference), report_identity(&resumed));
        for (a, b) in reference.partitions.iter().zip(&resumed.partitions) {
            // Resume identity excludes wall-clock durations.
            let stats = |t: &PartitionTrace| -> Vec<EpisodeReport> {
                let zero = |e: &EpisodeReport| EpisodeReport {
                    duration: std::time::Duration::ZERO,
                    ..e.clone()
                };
                t.episodes.iter().map(zero).collect()
            };
            assert_eq!(stats(a), stats(b), "partition {} trace", a.partition);
        }
        assert_eq!(
            ref_agents.each_ref().map(Agent::capture_state),
            agents.each_ref().map(Agent::capture_state)
        );
        let _ = std::fs::remove_dir_all(&dir_ref);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
