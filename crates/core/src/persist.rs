//! Stable binary (de)serialization of learning state for crash-durable
//! runs (the `alex-store` integration).
//!
//! Two artifacts are encoded here, both over the k ≥ 1 partitions of a
//! run (one partition is the interactive mode):
//!
//! * **Snapshots** — every partition's full learning state after a
//!   committed episode, plus run bookkeeping (episode counter,
//!   relaxed-convergence mark, aggregate and per-partition episode
//!   history, feedback-source states). Byte-stable: hash maps are sorted
//!   before encoding, while order-sensitive lists (candidate insertion
//!   order, per-key return lists, provenance attribution order) are
//!   preserved verbatim, because replay determinism depends on them.
//! * **Episode records** — the journal payload for one global episode: per
//!   partition, the judged `(left, right, feedback)` items in order plus
//!   the feedback source's post-episode state. Resume replays these through
//!   the restored agents to reproduce the exact pre-crash state.
//!
//! Both carry a format version and are validated field-by-field; a snapshot
//! additionally carries the run's *base fingerprint* (link spaces +
//! configurations), so resuming against different inputs fails loudly
//! instead of silently diverging.

use alex_store::{ByteReader, ByteWriter, CodecError};

use crate::config::AlexConfig;
use crate::metrics::{EpisodeReport, Quality};

/// Version of the domain encoding (independent of the store-layer framing).
/// Version 4 made snapshots and journal records carry a list of partitions
/// (agent state, source state, episode history / judged items each).
/// Version 3 added the `degraded` budget-breach marker to episode stats
/// and journal records (run supervision).
/// Version 2 added feedback-source attribution to journal items and the
/// trust-layer block (reliability counts, pending quorum votes, admission
/// log) to snapshots.
pub const FORMAT_VERSION: u32 = 4;

/// Serialized learning state of an [`crate::Agent`], captured after an
/// episode boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentState {
    /// Agent RNG state words.
    pub rng: [u64; 4],
    /// Episodes the agent has completed.
    pub episodes_completed: u64,
    /// Pairs admitted via `ensure_pair` after agent construction, in
    /// admission order (replayed to reproduce `PairId` assignment).
    pub admissions: Vec<(u32, u32)>,
    /// Candidate set, raw pair ids in insertion order (sampling order
    /// depends on it).
    pub candidates: Vec<u32>,
    /// Approved links, sorted.
    pub approved: Vec<u32>,
    /// Learned greedy actions `(state, feature)`, sorted by state.
    pub greedy: Vec<(u32, u32)>,
    /// Q returns per `(state, feature)`, sorted by key; each return list is
    /// in append order (float summation order affects Q).
    pub returns: Vec<((u32, u32), Vec<f64>)>,
    /// Blacklist votes `(link, negatives, positives)`, sorted by link.
    pub blacklist_votes: Vec<(u32, u32, u32)>,
    /// Provenance attribution `((state, feature), links)`, sorted by key;
    /// each link list is in attribution order (rollback removal order).
    pub generated: Vec<((u32, u32), Vec<u32>)>,
    /// Provenance votes `((state, feature), negatives, positives)`, sorted.
    pub provenance_votes: Vec<((u32, u32), u32, u32)>,
    /// Trust-layer state, present iff the run has trust admission enabled.
    pub trust: Option<TrustState>,
}

/// Serialized state of the agent's trust gate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustState {
    /// Per-source `(source, agreements, disagreements)` counts, sorted by
    /// source.
    pub sources: Vec<(u32, u32, u32)>,
    /// Discredited sources, sorted.
    pub discredited: Vec<u32>,
    /// Pending quorum votes `(link, [(source, positive)])`, links sorted;
    /// vote lists in first-arrival order (latest-wins replacement keeps the
    /// slot).
    pub pending: Vec<(u32, Vec<(u32, bool)>)>,
    /// The admission log in admission order, including revoked entries
    /// (revocation is a flag, not a deletion, so log indices are stable).
    pub log: Vec<AdmissionState>,
}

/// One serialized admission-log record: the quorum outcome plus the exact
/// undo information cascading rollback needs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionState {
    /// The judged link.
    pub state: u32,
    /// Admitted direction (`true` = positive).
    pub positive: bool,
    /// Sources whose buffered vote matched the admitted direction.
    pub supporters: Vec<u32>,
    /// Sources whose buffered vote opposed it.
    pub opposers: Vec<u32>,
    /// Ancestor `(state, feature)` pairs credited with the return.
    pub credited: Vec<(u32, u32)>,
    /// The credited return value.
    pub reward: f64,
    /// Positive admissions: whether this admission newly approved the link.
    pub newly_approved: bool,
    /// Positive admissions: whether a blacklist endorsement was recorded.
    pub endorsed: bool,
    /// Generator `(state, feature)` that received a provenance vote.
    pub prov_target: Option<(u32, u32)>,
    /// Positive admissions: the exploration action taken, if any.
    pub action: Option<u32>,
    /// Positive admissions: links added by exploration, with whether this
    /// admission created their provenance attribution.
    pub added: Vec<(u32, bool)>,
    /// Negative admissions: whether the judged link was removed from the
    /// candidate set.
    pub removed_candidate: bool,
    /// Negative admissions: whether the link was approved beforehand.
    pub was_approved: bool,
    /// Negative admissions: whether a blacklist strike was recorded.
    pub blacklist_added: bool,
    /// Negative admissions: rollback undo data when a rollback fired.
    pub rollback: Option<RollbackUndoState>,
    /// Whether this admission has been revoked by cascading rollback.
    pub revoked: bool,
}

/// Serialized undo data for one fired rollback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackUndoState {
    /// The rolled-back generator `(state, feature)`.
    pub generator: (u32, u32),
    /// The full attribution list the rollback cleared, in attribution order.
    pub links: Vec<u32>,
    /// The generator's `(negatives, positives)` votes the rollback cleared
    /// (snapshotted after the triggering negative vote).
    pub votes: (u32, u32),
    /// The subset of `links` actually removed from the candidate set, in
    /// removal order.
    pub removed: Vec<u32>,
}

/// Per-episode statistics persisted so a resumed run reports the *full*
/// episode history, not just the episodes it ran itself. Mirrors
/// [`crate::EpisodeReport`] minus the wall-clock duration (which is
/// session-local and excluded from resume identity).
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeStats {
    /// 1-based episode number.
    pub episode: u64,
    /// Precision after the episode.
    pub precision: f64,
    /// Recall after the episode.
    pub recall: f64,
    /// F-measure after the episode.
    pub f_measure: f64,
    /// Candidate-set size after the episode.
    pub candidates: u64,
    /// Correct candidates after the episode.
    pub correct: u64,
    /// Links added during the episode.
    pub added: u64,
    /// Links removed during the episode.
    pub removed: u64,
    /// Fraction of feedback that was negative.
    pub negative_feedback_frac: f64,
    /// Rollbacks triggered.
    pub rollbacks: u64,
    /// Fraction of links changed vs the previous episode.
    pub change_frac: f64,
    /// Whether the episode breached its budget (run supervision): the
    /// marker is journaled, never recomputed, so resume reproduces it.
    pub degraded: bool,
}

impl From<&EpisodeReport> for EpisodeStats {
    fn from(e: &EpisodeReport) -> EpisodeStats {
        EpisodeStats {
            episode: e.episode as u64,
            precision: e.quality.precision,
            recall: e.quality.recall,
            f_measure: e.quality.f_measure,
            candidates: e.candidates as u64,
            correct: e.correct as u64,
            added: e.added as u64,
            removed: e.removed as u64,
            negative_feedback_frac: e.negative_feedback_frac,
            rollbacks: e.rollbacks as u64,
            change_frac: e.change_frac,
            degraded: e.degraded,
        }
    }
}

impl From<&EpisodeStats> for EpisodeReport {
    fn from(e: &EpisodeStats) -> EpisodeReport {
        EpisodeReport {
            episode: e.episode as usize,
            quality: Quality {
                precision: e.precision,
                recall: e.recall,
                f_measure: e.f_measure,
            },
            candidates: e.candidates as usize,
            correct: e.correct as usize,
            added: e.added as usize,
            removed: e.removed as usize,
            negative_feedback_frac: e.negative_feedback_frac,
            rollbacks: e.rollbacks as usize,
            change_frac: e.change_frac,
            // Wall-clock time belongs to the original session; resume
            // identity excludes durations.
            duration: std::time::Duration::ZERO,
            degraded: e.degraded,
        }
    }
}

/// One partition's part of a [`RunSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSnapshot {
    /// The partition's own per-episode history (its trace).
    pub episodes: Vec<EpisodeStats>,
    /// The partition agent's learning state.
    pub agent: AgentState,
    /// Opaque feedback-source state
    /// ([`crate::FeedbackSource::durable_state`]).
    pub source_state: Vec<u8>,
}

/// One full-run snapshot: every partition's state plus driver bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Fingerprint of the link spaces + configurations this state was
    /// learned against.
    pub base_fingerprint: u64,
    /// Last committed episode (0 for the initial pre-run snapshot).
    pub last_episode: u64,
    /// Whether the run finished (resuming a completed run is an error).
    pub completed: bool,
    /// First episode at which relaxed convergence held, if any.
    pub relaxed_converged_at: Option<u64>,
    /// Full aggregate per-episode history up to `last_episode`.
    pub episodes: Vec<EpisodeStats>,
    /// The partitions, in partition order.
    pub partitions: Vec<PartitionSnapshot>,
}

/// One partition's part of an [`EpisodeRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionRecord {
    /// Judged items as `(left, right, positive, source)`. The source id is
    /// what makes journal replay reproduce trust-gate decisions exactly;
    /// unattributed sources record [`alex_trust::SourceId::ANONYMOUS`] (0).
    pub items: Vec<(u32, u32, bool, u32)>,
    /// Feedback-source state after the episode.
    pub source_state: Vec<u8>,
}

/// One journal episode record: per partition, the judged items in order
/// plus the feedback source's state *after* the episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeRecord {
    /// The partitions, in partition order.
    pub partitions: Vec<PartitionRecord>,
    /// Whether this episode breached its budget (run supervision). Stored
    /// in the WAL so a resumed run replays the degraded marker instead of
    /// re-measuring a wall clock it cannot reproduce.
    pub degraded: bool,
}

fn fnv_mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Order-sensitive FNV-1a fingerprint of every [`AlexConfig`] field.
/// Resuming under a different configuration would silently diverge from the
/// original run, so the snapshot pins it.
pub fn config_fingerprint(cfg: &AlexConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv_mix(&mut h, cfg.theta.to_bits());
    fnv_mix(&mut h, cfg.step_size.to_bits());
    fnv_mix(&mut h, cfg.episode_size as u64);
    fnv_mix(&mut h, cfg.epsilon.to_bits());
    fnv_mix(&mut h, cfg.positive_reward.to_bits());
    fnv_mix(&mut h, cfg.negative_penalty.to_bits());
    fnv_mix(&mut h, u64::from(cfg.use_blacklist));
    fnv_mix(&mut h, u64::from(cfg.use_rollback));
    fnv_mix(&mut h, u64::from(cfg.rollback_threshold));
    fnv_mix(&mut h, u64::from(cfg.rollback_spares_approved));
    fnv_mix(&mut h, cfg.max_episodes as u64);
    fnv_mix(&mut h, cfg.relaxed_convergence_frac.to_bits());
    fnv_mix(&mut h, u64::from(cfg.stop_on_relaxed));
    fnv_mix(&mut h, u64::from(cfg.first_visit_only));
    fnv_mix(&mut h, cfg.seed);
    match &cfg.trust {
        None => fnv_mix(&mut h, 0),
        Some(t) => {
            fnv_mix(&mut h, 1);
            fnv_mix(&mut h, u64::from(t.prior_agree));
            fnv_mix(&mut h, u64::from(t.prior_disagree));
            fnv_mix(&mut h, t.quorum.to_bits());
            fnv_mix(&mut h, t.discredit_below.to_bits());
            fnv_mix(&mut h, u64::from(t.discredit_min_obs));
        }
    }
    h
}

/// Combine fingerprints, in order, into one: a space and a config
/// fingerprint into an agent's base fingerprint, or the partition agents'
/// base fingerprints into a run's.
pub fn combine_fingerprints(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in parts {
        fnv_mix(&mut h, v);
    }
    h
}

/// Combine a space fingerprint and a config fingerprint into the run's base
/// fingerprint.
pub fn base_fingerprint(space: u64, config: u64) -> u64 {
    combine_fingerprints([space, config])
}

fn err(what: &str) -> String {
    format!("corrupt durable state: {what}")
}

/// Write a length-prefixed list.
fn put_list<T>(w: &mut ByteWriter, items: &[T], mut put: impl FnMut(&mut ByteWriter, &T)) {
    w.u64(items.len() as u64);
    for item in items {
        put(w, item);
    }
}

/// Read a length-prefixed list.
fn get_list<T>(
    r: &mut ByteReader,
    what: &'static str,
    mut get: impl FnMut(&mut ByteReader) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.len(what)?;
    (0..n).map(|_| get(r)).collect()
}

fn put_option<T>(w: &mut ByteWriter, v: &Option<T>, put: impl FnOnce(&mut ByteWriter, &T)) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            put(w, v);
        }
    }
}

fn get_option<T>(
    r: &mut ByteReader,
    what: &'static str,
    get: impl FnOnce(&mut ByteReader) -> Result<T, CodecError>,
) -> Result<Option<T>, CodecError> {
    if r.u8(what)? != 0 {
        get(r).map(Some)
    } else {
        Ok(None)
    }
}

fn put_pair(w: &mut ByteWriter, &(a, b): &(u32, u32)) {
    w.u32(a);
    w.u32(b);
}

fn get_pair(r: &mut ByteReader, what: &'static str) -> Result<(u32, u32), CodecError> {
    Ok((r.u32(what)?, r.u32(what)?))
}

fn get_bool(r: &mut ByteReader, what: &'static str) -> Result<bool, CodecError> {
    Ok(r.u8(what)? != 0)
}

fn put_stats(w: &mut ByteWriter, episodes: &[EpisodeStats]) {
    put_list(w, episodes, |w, e| {
        w.u64(e.episode);
        w.f64(e.precision);
        w.f64(e.recall);
        w.f64(e.f_measure);
        w.u64(e.candidates);
        w.u64(e.correct);
        w.u64(e.added);
        w.u64(e.removed);
        w.f64(e.negative_feedback_frac);
        w.u64(e.rollbacks);
        w.f64(e.change_frac);
        w.u8(u8::from(e.degraded));
    });
}

fn get_stats(r: &mut ByteReader) -> Result<Vec<EpisodeStats>, CodecError> {
    get_list(r, "episode stats", |r| {
        Ok(EpisodeStats {
            episode: r.u64("stat episode")?,
            precision: r.f64("stat precision")?,
            recall: r.f64("stat recall")?,
            f_measure: r.f64("stat f_measure")?,
            candidates: r.u64("stat candidates")?,
            correct: r.u64("stat correct")?,
            added: r.u64("stat added")?,
            removed: r.u64("stat removed")?,
            negative_feedback_frac: r.f64("stat negative frac")?,
            rollbacks: r.u64("stat rollbacks")?,
            change_frac: r.f64("stat change frac")?,
            degraded: get_bool(r, "stat degraded")?,
        })
    })
}

fn put_agent(w: &mut ByteWriter, a: &AgentState) {
    for word in a.rng {
        w.u64(word);
    }
    w.u64(a.episodes_completed);
    put_list(w, &a.admissions, put_pair);
    put_list(w, &a.candidates, |w, &id| w.u32(id));
    put_list(w, &a.approved, |w, &id| w.u32(id));
    put_list(w, &a.greedy, put_pair);
    put_list(w, &a.returns, |w, (key, rs)| {
        put_pair(w, key);
        put_list(w, rs, |w, &v| w.f64(v));
    });
    put_list(w, &a.blacklist_votes, |w, &(id, n, p)| {
        w.u32(id);
        w.u32(n);
        w.u32(p);
    });
    put_list(w, &a.generated, |w, (key, links)| {
        put_pair(w, key);
        put_list(w, links, |w, &l| w.u32(l));
    });
    put_list(w, &a.provenance_votes, |w, &(key, n, p)| {
        put_pair(w, &key);
        w.u32(n);
        w.u32(p);
    });
    put_option(w, &a.trust, put_trust);
}

fn get_agent(r: &mut ByteReader) -> Result<AgentState, CodecError> {
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.u64("rng word")?;
    }
    Ok(AgentState {
        rng,
        episodes_completed: r.u64("episodes completed")?,
        admissions: get_list(r, "admissions", |r| get_pair(r, "admission"))?,
        candidates: get_list(r, "candidates", |r| r.u32("candidate id"))?,
        approved: get_list(r, "approved", |r| r.u32("approved id"))?,
        greedy: get_list(r, "greedy", |r| get_pair(r, "greedy action"))?,
        returns: get_list(r, "returns", |r| {
            let key = get_pair(r, "return key")?;
            Ok((key, get_list(r, "return list", |r| r.f64("return value"))?))
        })?,
        blacklist_votes: get_list(r, "blacklist votes", |r| {
            Ok((
                r.u32("blacklist link")?,
                r.u32("blacklist negatives")?,
                r.u32("blacklist positives")?,
            ))
        })?,
        generated: get_list(r, "generated", |r| {
            let key = get_pair(r, "generator")?;
            Ok((
                key,
                get_list(r, "generated links", |r| r.u32("generated link"))?,
            ))
        })?,
        provenance_votes: get_list(r, "provenance votes", |r| {
            Ok((
                get_pair(r, "vote key")?,
                r.u32("vote negatives")?,
                r.u32("vote positives")?,
            ))
        })?,
        trust: get_option(r, "trust flag", get_trust)?,
    })
}

fn put_trust(w: &mut ByteWriter, t: &TrustState) {
    put_list(w, &t.sources, |w, &(source, agree, disagree)| {
        w.u32(source);
        w.u32(agree);
        w.u32(disagree);
    });
    put_list(w, &t.discredited, |w, &source| w.u32(source));
    put_list(w, &t.pending, |w, (link, votes)| {
        w.u32(*link);
        put_list(w, votes, |w, &(source, positive)| {
            w.u32(source);
            w.u8(u8::from(positive));
        });
    });
    put_list(w, &t.log, |w, rec| {
        w.u32(rec.state);
        w.u8(u8::from(rec.positive));
        put_list(w, &rec.supporters, |w, &s| w.u32(s));
        put_list(w, &rec.opposers, |w, &s| w.u32(s));
        put_list(w, &rec.credited, put_pair);
        w.f64(rec.reward);
        w.u8(u8::from(rec.newly_approved));
        w.u8(u8::from(rec.endorsed));
        put_option(w, &rec.prov_target, put_pair);
        put_option(w, &rec.action, |w, &action| w.u32(action));
        put_list(w, &rec.added, |w, &(link, attributed)| {
            w.u32(link);
            w.u8(u8::from(attributed));
        });
        w.u8(u8::from(rec.removed_candidate));
        w.u8(u8::from(rec.was_approved));
        w.u8(u8::from(rec.blacklist_added));
        put_option(w, &rec.rollback, |w, rb| {
            put_pair(w, &rb.generator);
            put_list(w, &rb.links, |w, &l| w.u32(l));
            put_pair(w, &rb.votes);
            put_list(w, &rb.removed, |w, &l| w.u32(l));
        });
        w.u8(u8::from(rec.revoked));
    });
}

fn get_trust(r: &mut ByteReader) -> Result<TrustState, CodecError> {
    Ok(TrustState {
        sources: get_list(r, "trust sources", |r| {
            Ok((
                r.u32("trust source")?,
                r.u32("trust agreements")?,
                r.u32("trust disagreements")?,
            ))
        })?,
        discredited: get_list(r, "discredited sources", |r| r.u32("discredited source"))?,
        pending: get_list(r, "pending votes", |r| {
            let link = r.u32("pending link")?;
            let votes = get_list(r, "pending vote list", |r| {
                Ok((r.u32("pending source")?, get_bool(r, "pending direction")?))
            })?;
            Ok((link, votes))
        })?,
        log: get_list(r, "admission log", |r| {
            Ok(AdmissionState {
                state: r.u32("admission state")?,
                positive: get_bool(r, "admission direction")?,
                supporters: get_list(r, "admission supporters", |r| r.u32("supporter"))?,
                opposers: get_list(r, "admission opposers", |r| r.u32("opposer"))?,
                credited: get_list(r, "admission credits", |r| get_pair(r, "credit"))?,
                reward: r.f64("admission reward")?,
                newly_approved: get_bool(r, "newly approved flag")?,
                endorsed: get_bool(r, "endorsed flag")?,
                prov_target: get_option(r, "prov target flag", |r| get_pair(r, "prov target"))?,
                action: get_option(r, "action flag", |r| r.u32("admission action"))?,
                added: get_list(r, "admission added", |r| {
                    Ok((r.u32("added link")?, get_bool(r, "added attribution flag")?))
                })?,
                removed_candidate: get_bool(r, "removed candidate flag")?,
                was_approved: get_bool(r, "was approved flag")?,
                blacklist_added: get_bool(r, "blacklist added flag")?,
                rollback: get_option(r, "rollback flag", |r| {
                    Ok(RollbackUndoState {
                        generator: get_pair(r, "rollback generator")?,
                        links: get_list(r, "rollback links", |r| r.u32("rollback link"))?,
                        votes: get_pair(r, "rollback votes")?,
                        removed: get_list(r, "rollback removed", |r| {
                            r.u32("rollback removed link")
                        })?,
                    })
                })?,
                revoked: get_bool(r, "revoked flag")?,
            })
        })?,
    })
}

/// Read the leading format version of a `what` payload and reject any
/// other version than this build's.
fn check_version(r: &mut ByteReader, what: &'static str) -> Result<(), String> {
    let version = r.u32(what).map_err(|e| err(&e.to_string()))?;
    if version != FORMAT_VERSION {
        return Err(err(&format!(
            "{what} format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    Ok(())
}

/// Encode a [`RunSnapshot`] as the snapshot payload handed to the store.
pub fn encode_snapshot(s: &RunSnapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(FORMAT_VERSION);
    w.u64(s.base_fingerprint);
    w.u64(s.last_episode);
    w.u8(u8::from(s.completed));
    w.u8(u8::from(s.relaxed_converged_at.is_some()));
    w.u64(s.relaxed_converged_at.unwrap_or(0));
    put_stats(&mut w, &s.episodes);
    put_list(&mut w, &s.partitions, |w, p| {
        put_stats(w, &p.episodes);
        put_agent(w, &p.agent);
        w.bytes(&p.source_state);
    });
    w.finish()
}

/// Decode a snapshot payload (inverse of [`encode_snapshot`]).
pub fn decode_snapshot(payload: &[u8]) -> Result<RunSnapshot, String> {
    let mut r = ByteReader::new(payload);
    check_version(&mut r, "snapshot")?;
    get_snapshot(&mut r).map_err(|e| err(&e.to_string()))
}

fn get_snapshot(r: &mut ByteReader) -> Result<RunSnapshot, CodecError> {
    let base_fingerprint = r.u64("base fingerprint")?;
    let last_episode = r.u64("last episode")?;
    let completed = get_bool(r, "completed flag")?;
    let relaxed = get_bool(r, "relaxed flag")?;
    let relaxed_episode = r.u64("relaxed episode")?;
    let snapshot = RunSnapshot {
        base_fingerprint,
        last_episode,
        completed,
        relaxed_converged_at: relaxed.then_some(relaxed_episode),
        episodes: get_stats(r)?,
        partitions: get_list(r, "partitions", |r| {
            Ok(PartitionSnapshot {
                episodes: get_stats(r)?,
                agent: get_agent(r)?,
                source_state: r.bytes("source state")?.to_vec(),
            })
        })?,
    };
    r.expect_exhausted("snapshot trailer")?;
    Ok(snapshot)
}

/// Encode an [`EpisodeRecord`] as the journal payload for one episode.
pub fn encode_episode(record: &EpisodeRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(FORMAT_VERSION);
    w.u8(u8::from(record.degraded));
    put_list(&mut w, &record.partitions, |w, p| {
        put_list(w, &p.items, |w, &(l, r, positive, source)| {
            w.u32(l);
            w.u32(r);
            w.u8(u8::from(positive));
            w.u32(source);
        });
        w.bytes(&p.source_state);
    });
    w.finish()
}

/// Decode a journal episode payload (inverse of [`encode_episode`]).
pub fn decode_episode(payload: &[u8]) -> Result<EpisodeRecord, String> {
    let mut r = ByteReader::new(payload);
    check_version(&mut r, "episode")?;
    get_episode(&mut r).map_err(|e| err(&e.to_string()))
}

fn get_episode(r: &mut ByteReader) -> Result<EpisodeRecord, CodecError> {
    let record = EpisodeRecord {
        degraded: get_bool(r, "episode degraded")?,
        partitions: get_list(r, "episode partitions", |r| {
            Ok(PartitionRecord {
                items: get_list(r, "episode items", |r| {
                    Ok((
                        r.u32("item left")?,
                        r.u32("item right")?,
                        get_bool(r, "item feedback")?,
                        r.u32("item source")?,
                    ))
                })?,
                source_state: r.bytes("episode source state")?.to_vec(),
            })
        })?,
    };
    r.expect_exhausted("episode trailer")?;
    Ok(record)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_snapshot() -> RunSnapshot {
        RunSnapshot {
            base_fingerprint: 0xFEED_BEEF,
            last_episode: 7,
            completed: false,
            relaxed_converged_at: Some(5),
            episodes: vec![sample_stats()],
            partitions: vec![PartitionSnapshot {
                episodes: vec![sample_stats()],
                agent: AgentState {
                    rng: [1, 2, 3, u64::MAX],
                    episodes_completed: 7,
                    admissions: vec![(9, 12), (0, 3)],
                    candidates: vec![4, 1, 0],
                    approved: vec![0, 4],
                    greedy: vec![(0, 2), (4, 1)],
                    returns: vec![((0, 2), vec![1.0, -2.0, 1.0]), ((4, 1), vec![0.5])],
                    blacklist_votes: vec![(3, 2, 1)],
                    generated: vec![((0, 2), vec![4, 1])],
                    provenance_votes: vec![((0, 2), 1, 3)],
                    trust: None,
                },
                source_state: vec![0xAB; 32],
            }],
        }
    }

    fn sample_stats() -> EpisodeStats {
        EpisodeStats {
            episode: 7,
            precision: 0.75,
            recall: 0.5,
            f_measure: 0.6,
            candidates: 11,
            correct: 8,
            added: 4,
            removed: 1,
            negative_feedback_frac: 0.25,
            rollbacks: 0,
            change_frac: 0.125,
            degraded: true,
        }
    }

    fn sample_trust() -> TrustState {
        TrustState {
            sources: vec![(1, 5, 0), (2, 1, 7)],
            discredited: vec![2],
            pending: vec![(3, vec![(1, true), (4, false)])],
            log: vec![
                AdmissionState {
                    state: 0,
                    positive: true,
                    supporters: vec![1, 3],
                    opposers: vec![2],
                    credited: vec![(0, 2)],
                    reward: 1.0,
                    newly_approved: true,
                    endorsed: false,
                    prov_target: Some((0, 2)),
                    action: Some(2),
                    added: vec![(4, true), (1, false)],
                    removed_candidate: false,
                    was_approved: false,
                    blacklist_added: false,
                    rollback: None,
                    revoked: false,
                },
                AdmissionState {
                    state: 4,
                    positive: false,
                    supporters: vec![2],
                    opposers: vec![],
                    credited: vec![],
                    reward: -2.0,
                    newly_approved: false,
                    endorsed: false,
                    prov_target: Some((0, 2)),
                    action: None,
                    added: vec![],
                    removed_candidate: true,
                    was_approved: true,
                    blacklist_added: true,
                    rollback: Some(RollbackUndoState {
                        generator: (0, 2),
                        links: vec![4, 1],
                        votes: (3, 1),
                        removed: vec![1],
                    }),
                    revoked: true,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_with_trust_round_trips() {
        let mut snap = sample_snapshot();
        snap.partitions[0].agent.trust = Some(sample_trust());
        // A second partition, so the list layout round-trips too.
        snap.partitions.push(snap.partitions[0].clone());
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(encode_snapshot(&snap), encode_snapshot(&snap));
    }

    #[test]
    fn snapshot_encoding_is_deterministic() {
        let snap = sample_snapshot();
        assert_eq!(encode_snapshot(&snap), encode_snapshot(&snap));
    }

    #[test]
    fn episode_round_trips() {
        let rec = EpisodeRecord {
            partitions: vec![
                PartitionRecord {
                    items: vec![(0, 0, true, 1), (3, 7, false, 0)],
                    source_state: vec![1, 2, 3],
                },
                PartitionRecord {
                    items: vec![],
                    source_state: vec![4],
                },
            ],
            degraded: true,
        };
        let bytes = encode_episode(&rec);
        assert_eq!(decode_episode(&bytes).unwrap(), rec);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let bytes = encode_snapshot(&sample_snapshot());
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_snapshot(&bytes[..10]).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes[0] = 99;
        let msg = decode_snapshot(&bytes).unwrap_err();
        assert!(msg.contains("version"), "{msg}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_episode(&EpisodeRecord {
            partitions: vec![],
            degraded: false,
        });
        bytes.push(0);
        assert!(decode_episode(&bytes).is_err());
    }

    #[test]
    fn config_fingerprint_is_field_sensitive() {
        let base = AlexConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&AlexConfig::default()));
        let reseeded = AlexConfig {
            seed: base.seed + 1,
            ..AlexConfig::default()
        };
        assert_ne!(fp, config_fingerprint(&reseeded));
        let shifted = AlexConfig {
            epsilon: base.epsilon + 0.01,
            ..AlexConfig::default()
        };
        assert_ne!(fp, config_fingerprint(&shifted));
        let trusted = AlexConfig {
            trust: Some(alex_trust::TrustConfig::default()),
            ..AlexConfig::default()
        };
        let tfp = config_fingerprint(&trusted);
        assert_ne!(fp, tfp);
        let requorumed = AlexConfig {
            trust: Some(alex_trust::TrustConfig {
                quorum: 2.0,
                ..alex_trust::TrustConfig::default()
            }),
            ..AlexConfig::default()
        };
        assert_ne!(tfp, config_fingerprint(&requorumed));
    }
}
