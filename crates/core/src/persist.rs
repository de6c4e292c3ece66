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
//! Where the live type is already plain data, the codec writes it directly
//! rather than through a serialized copy: episode histories are the
//! driver's [`EpisodeReport`]s (without the session-local `duration`,
//! which decodes as zero), and the trust gate's admission log is its own
//! [`AdmissionRecord`]s and [`RollbackUndo`]s, ids written as their raw
//! `u32`s. A captured [`TrustState`] borrows the live log rather than
//! cloning it. The records' footprints are written as they are kept in
//! memory: an exploration's added links and a rollback's cleared
//! attribution list are each a [`WindowList`], the window `(feature,
//! start, end)` of a score index plus bit masks over its positions, and
//! the attributions created and the links removed are [`BitMask`]s (over
//! window positions and list positions). A footprint names links only
//! through the link space it was recorded against, so it is decoded
//! lazily, against the rebuilt space, when a revocation reads it; restore
//! checks every window against that space.
//!
//! Both carry a format version and are validated field-by-field; a snapshot
//! additionally carries the run's *base fingerprint* (link spaces +
//! configurations), so resuming against different inputs fails loudly
//! instead of silently diverging.

use std::borrow::Cow;

use alex_store::{ByteReader, ByteWriter, CodecError};
use alex_trust::SourceId;

use crate::config::AlexConfig;
use crate::feature::FeatureId;
use crate::metrics::{EpisodeReport, Quality};
use crate::space::{PairId, Window};
use crate::trust_gate::{AdmissionRecord, BitMask, RollbackUndo, WindowList};

/// Version of the domain encoding (independent of the store-layer framing).
/// Snapshots and journal records carry the same version, and a payload of
/// any other version is rejected, not converted. Version 6 writes every
/// length and footprint window as LEB128 and keeps no list of pairs
/// admitted after the agent was built; `tests/corpus/README.md` lists what
/// each earlier version changed.
pub const FORMAT_VERSION: u32 = 6;

/// Serialized learning state of an [`crate::Agent`], captured after an
/// episode boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentState<'a> {
    /// Agent RNG state words.
    pub rng: [u64; 4],
    /// Episodes the agent has completed.
    pub episodes_completed: u64,
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
    pub trust: Option<TrustState<'a>>,
}

/// Serialized state of the agent's trust gate: its persisted fields, with
/// the admission log stored as the gate's own [`AdmissionRecord`]s —
/// borrowed from the live gate when captured for a snapshot, owned when
/// decoded from one.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustState<'a> {
    /// Per-source `(source, agreements, disagreements)` counts, sorted by
    /// source.
    pub sources: Vec<(SourceId, u32, u32)>,
    /// Discredited sources, sorted.
    pub discredited: Vec<SourceId>,
    /// Pending quorum votes `(link, [(source, positive)])`, links sorted;
    /// vote lists in first-arrival order (latest-wins replacement keeps the
    /// slot).
    pub pending: Vec<(u32, Vec<(SourceId, bool)>)>,
    /// The admission log in admission order, including revoked entries
    /// (revocation is a flag, not a deletion, so log indices are stable).
    pub log: Cow<'a, [AdmissionRecord]>,
}

/// One partition's part of a [`RunSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSnapshot<'a> {
    /// The partition's own per-episode history (its trace).
    pub episodes: Vec<EpisodeReport>,
    /// The partition agent's learning state.
    pub agent: AgentState<'a>,
    /// Opaque feedback-source state
    /// ([`crate::FeedbackSource::durable_state`]).
    pub source_state: Vec<u8>,
}

/// One full-run snapshot: every partition's state plus driver bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot<'a> {
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
    pub episodes: Vec<EpisodeReport>,
    /// The partitions, in partition order.
    pub partitions: Vec<PartitionSnapshot<'a>>,
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

/// Order-sensitive FNV-1a fingerprint of every [`AlexConfig`] field, with
/// the link space's θ first (where the agent configuration used to carry a
/// copy of it, so existing snapshots keep their fingerprint). Resuming
/// under a different configuration would silently diverge from the
/// original run, so the snapshot pins it.
pub fn config_fingerprint(cfg: &AlexConfig, theta: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv_mix(&mut h, theta.to_bits());
    fnv_mix(&mut h, cfg.step_size.to_bits());
    fnv_mix(&mut h, cfg.episode_size as u64);
    fnv_mix(&mut h, cfg.epsilon.to_bits());
    // The reward, the penalty and the relaxed-convergence fraction are
    // constants now; their bits stay so that existing state dirs keep
    // their fingerprint.
    fnv_mix(&mut h, crate::agent::POSITIVE_REWARD.to_bits());
    fnv_mix(&mut h, crate::agent::NEGATIVE_PENALTY.to_bits());
    fnv_mix(&mut h, u64::from(cfg.use_blacklist));
    fnv_mix(&mut h, u64::from(cfg.use_rollback));
    fnv_mix(&mut h, u64::from(cfg.rollback_threshold));
    // Rollback spares approved links: a setting no more, its bit stays so
    // that existing state dirs keep their fingerprint.
    fnv_mix(&mut h, 1);
    fnv_mix(&mut h, cfg.max_episodes as u64);
    fnv_mix(&mut h, crate::driver::RELAXED_CONVERGENCE_FRAC.to_bits());
    fnv_mix(&mut h, u64::from(cfg.stop_on_relaxed));
    // First-visit credit assignment: likewise.
    fnv_mix(&mut h, 1);
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

/// Order-sensitive FNV-1a fingerprint of `parts`, each as its eight
/// little-endian bytes: a link space's words, a space and a config
/// fingerprint into an agent's base fingerprint, or the partition agents'
/// base fingerprints into a run's.
pub fn combine_fingerprints(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in parts {
        fnv_mix(&mut h, v);
    }
    h
}

fn err(what: &str) -> String {
    format!("corrupt durable state: {what}")
}

/// Write a list prefixed with its LEB128 length.
fn put_list<T>(w: &mut ByteWriter, items: &[T], mut put: impl FnMut(&mut ByteWriter, &T)) {
    w.varint(items.len() as u64);
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

/// Write an episode history. The wall-clock `duration` is left out: it
/// belongs to the session that ran the episode, and resume identity
/// excludes it.
fn put_stats(w: &mut ByteWriter, episodes: &[EpisodeReport]) {
    put_list(w, episodes, |w, e| {
        w.u64(e.episode as u64);
        w.f64(e.quality.precision);
        w.f64(e.quality.recall);
        w.f64(e.quality.f_measure);
        w.u64(e.candidates as u64);
        w.u64(e.correct as u64);
        w.u64(e.added as u64);
        w.u64(e.removed as u64);
        w.f64(e.negative_feedback_frac);
        w.u64(e.rollbacks as u64);
        w.f64(e.change_frac);
        w.u8(u8::from(e.degraded));
    });
}

/// Read an episode history written by [`put_stats`]; every `duration` is
/// [`std::time::Duration::ZERO`].
fn get_stats(r: &mut ByteReader) -> Result<Vec<EpisodeReport>, CodecError> {
    get_list(r, "episode stats", |r| {
        Ok(EpisodeReport {
            episode: r.u64("stat episode")? as usize,
            quality: Quality {
                precision: r.f64("stat precision")?,
                recall: r.f64("stat recall")?,
                f_measure: r.f64("stat f_measure")?,
            },
            candidates: r.u64("stat candidates")? as usize,
            correct: r.u64("stat correct")? as usize,
            added: r.u64("stat added")? as usize,
            removed: r.u64("stat removed")? as usize,
            negative_feedback_frac: r.f64("stat negative frac")?,
            rollbacks: r.u64("stat rollbacks")? as usize,
            change_frac: r.f64("stat change frac")?,
            duration: std::time::Duration::ZERO,
            degraded: get_bool(r, "stat degraded")?,
        })
    })
}

fn put_agent(w: &mut ByteWriter, a: &AgentState<'_>) {
    for word in a.rng {
        w.u64(word);
    }
    w.u64(a.episodes_completed);
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

fn get_agent(r: &mut ByteReader) -> Result<AgentState<'static>, CodecError> {
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.u64("rng word")?;
    }
    Ok(AgentState {
        rng,
        episodes_completed: r.u64("episodes completed")?,
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

/// Write a `(state, feature)` key as its two raw ids.
fn put_key(w: &mut ByteWriter, &(s, a): &(PairId, FeatureId)) {
    put_pair(w, &(s.0, a.0));
}

fn get_key(r: &mut ByteReader, what: &'static str) -> Result<(PairId, FeatureId), CodecError> {
    let (s, a) = get_pair(r, what)?;
    Ok((PairId(s), FeatureId(a)))
}

fn put_trust(w: &mut ByteWriter, t: &TrustState<'_>) {
    put_list(w, &t.sources, |w, &(source, agree, disagree)| {
        w.u32(source.0);
        w.u32(agree);
        w.u32(disagree);
    });
    put_list(w, &t.discredited, |w, source| w.u32(source.0));
    put_list(w, &t.pending, |w, (link, votes)| {
        w.u32(*link);
        put_list(w, votes, |w, &(source, positive)| {
            w.u32(source.0);
            w.u8(u8::from(positive));
        });
    });
    put_list(w, &t.log[..], |w, rec| {
        w.u32(rec.state.0);
        w.u8(u8::from(rec.positive));
        put_list(w, &rec.supporters, |w, s| w.u32(s.0));
        put_list(w, &rec.opposers, |w, s| w.u32(s.0));
        put_list(w, &rec.credited, put_key);
        w.f64(rec.reward);
        w.u8(u8::from(rec.newly_approved));
        w.u8(u8::from(rec.endorsed));
        put_option(w, &rec.prov_target, put_key);
        put_option(w, &rec.action, |w, action| w.u32(action.0));
        put_window_list(w, &rec.added);
        put_mask(w, &rec.attributed);
        w.u8(u8::from(rec.removed_candidate));
        w.u8(u8::from(rec.was_approved));
        w.u8(u8::from(rec.blacklist_added));
        put_option(w, &rec.rollback, |w, rb| {
            put_key(w, &rb.generator);
            put_window_list(w, &rb.links);
            put_pair(w, &rb.votes);
            put_mask(w, &rb.removed);
        });
        w.u8(u8::from(rec.revoked));
    });
}

fn get_source(r: &mut ByteReader, what: &'static str) -> Result<SourceId, CodecError> {
    r.u32(what).map(SourceId)
}

/// Write a bit mask as its list of words.
fn put_mask(w: &mut ByteWriter, mask: &BitMask) {
    put_list(w, mask.words(), |w, &word| w.u64(word));
}

fn get_mask(r: &mut ByteReader, what: &'static str) -> Result<BitMask, CodecError> {
    let words = get_list(r, what, |r| r.u64(what))?;
    BitMask::from_words(words).ok_or(CodecError {
        context: "bit mask (trailing zero word)",
        offset: r.position(),
    })
}

/// Write a footprint as its window, in LEB128, and its segments' masks.
fn put_window_list(w: &mut ByteWriter, list: &WindowList) {
    w.varint(u64::from(list.window.feature.0));
    w.varint(u64::from(list.window.start));
    w.varint(u64::from(list.window.end));
    put_list(w, &list.segments, put_mask);
}

/// Read a footprint written by [`put_window_list`]: every segment must be
/// non-empty and lie inside the window. Whether the window lies inside
/// the space is checked on restore, against the rebuilt space.
fn get_window_list(r: &mut ByteReader, what: &'static str) -> Result<WindowList, CodecError> {
    let mut position = || -> Result<u32, CodecError> {
        let at = r.position();
        u32::try_from(r.varint(what)?).map_err(|_| CodecError {
            context: what,
            offset: at,
        })
    };
    let window = Window {
        feature: FeatureId(position()?),
        start: position()?,
        end: position()?,
    };
    let list = WindowList {
        window,
        segments: get_list(r, what, |r| get_mask(r, what))?,
    };
    if !list.is_well_formed() {
        return Err(CodecError {
            context: "footprint (segment outside its window)",
            offset: r.position(),
        });
    }
    Ok(list)
}

/// Read an exploration's footprint and the attributions it created: one
/// segment at most, and attributions only among its links.
fn get_added(r: &mut ByteReader) -> Result<(WindowList, BitMask), CodecError> {
    let added = get_window_list(r, "admission added")?;
    let attributed = get_mask(r, "admission attributed")?;
    let within = match added.segments.as_slice() {
        [] => attributed.is_empty(),
        [segment] => attributed.is_subset(segment),
        _ => false,
    };
    if !within {
        return Err(CodecError {
            context: "admission added (not one segment holding its attributions)",
            offset: r.position(),
        });
    }
    Ok((added, attributed))
}

fn get_rollback(r: &mut ByteReader) -> Result<RollbackUndo, CodecError> {
    let generator = get_key(r, "rollback generator")?;
    let links = get_window_list(r, "rollback links")?;
    let votes = get_pair(r, "rollback votes")?;
    let removed = get_mask(r, "rollback removed")?;
    // A rollback removes links from its own list.
    if removed.end() > links.len() {
        return Err(CodecError {
            context: "rollback removed (position past its links)",
            offset: r.position(),
        });
    }
    Ok(RollbackUndo {
        generator,
        links,
        votes,
        removed,
    })
}

fn get_record(r: &mut ByteReader) -> Result<AdmissionRecord, CodecError> {
    let state = PairId(r.u32("admission state")?);
    let positive = get_bool(r, "admission direction")?;
    let supporters = get_list(r, "admission supporters", |r| get_source(r, "supporter"))?;
    let opposers = get_list(r, "admission opposers", |r| get_source(r, "opposer"))?;
    let credited = get_list(r, "admission credits", |r| get_key(r, "credit"))?;
    let reward = r.f64("admission reward")?;
    let newly_approved = get_bool(r, "newly approved flag")?;
    let endorsed = get_bool(r, "endorsed flag")?;
    let prov_target = get_option(r, "prov target flag", |r| get_key(r, "prov target"))?;
    let action = get_option(r, "action flag", |r| {
        r.u32("admission action").map(FeatureId)
    })?;
    let (added, attributed) = get_added(r)?;
    Ok(AdmissionRecord {
        state,
        positive,
        supporters,
        opposers,
        credited,
        reward,
        newly_approved,
        endorsed,
        prov_target,
        action,
        added,
        attributed,
        removed_candidate: get_bool(r, "removed candidate flag")?,
        was_approved: get_bool(r, "was approved flag")?,
        blacklist_added: get_bool(r, "blacklist added flag")?,
        rollback: get_option(r, "rollback flag", get_rollback)?,
        revoked: get_bool(r, "revoked flag")?,
    })
}

fn get_trust(r: &mut ByteReader) -> Result<TrustState<'static>, CodecError> {
    Ok(TrustState {
        sources: get_list(r, "trust sources", |r| {
            Ok((
                get_source(r, "trust source")?,
                r.u32("trust agreements")?,
                r.u32("trust disagreements")?,
            ))
        })?,
        discredited: get_list(r, "discredited sources", |r| {
            get_source(r, "discredited source")
        })?,
        pending: get_list(r, "pending votes", |r| {
            let link = r.u32("pending link")?;
            let votes = get_list(r, "pending vote list", |r| {
                Ok((
                    get_source(r, "pending source")?,
                    get_bool(r, "pending direction")?,
                ))
            })?;
            Ok((link, votes))
        })?,
        log: Cow::Owned(get_list(r, "admission log", get_record)?),
    })
}

/// Read the leading format version of a `what` payload and reject any
/// other version than this build's. A payload of another format is not
/// corrupt, so the error says what to do instead.
fn check_version(r: &mut ByteReader, what: &'static str) -> Result<(), String> {
    let version = r.u32(what).map_err(|e| err(&e.to_string()))?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "state dir {what} is in persist format {version}, but this build reads format \
             {FORMAT_VERSION} and does not convert between formats (start a fresh run with \
             a new --state-dir)"
        ));
    }
    Ok(())
}

/// Encode a [`RunSnapshot`] as the snapshot payload handed to the store.
pub fn encode_snapshot(s: &RunSnapshot<'_>) -> Vec<u8> {
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
pub fn decode_snapshot(payload: &[u8]) -> Result<RunSnapshot<'static>, String> {
    let mut r = ByteReader::new(payload);
    check_version(&mut r, "snapshot")?;
    get_snapshot(&mut r).map_err(|e| err(&e.to_string()))
}

fn get_snapshot(r: &mut ByteReader) -> Result<RunSnapshot<'static>, CodecError> {
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
    check_version(&mut r, "journal record")?;
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

    fn sample_snapshot() -> RunSnapshot<'static> {
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

    /// A degraded episode; the decoder leaves `duration` at zero.
    fn sample_stats() -> EpisodeReport {
        EpisodeReport {
            episode: 7,
            quality: Quality {
                precision: 0.75,
                recall: 0.5,
                f_measure: 0.6,
            },
            candidates: 11,
            correct: 8,
            added: 4,
            removed: 1,
            negative_feedback_frac: 0.25,
            rollbacks: 0,
            change_frac: 0.125,
            duration: std::time::Duration::ZERO,
            degraded: true,
        }
    }

    /// A mask with the given positions set.
    fn mask(positions: &[usize]) -> BitMask {
        let mut m = BitMask::default();
        for &i in positions {
            m.insert(i);
        }
        m
    }

    /// A footprint over positions `start..end` of feature 2's index.
    fn footprint(start: u32, end: u32, segments: &[&[usize]]) -> WindowList {
        let mut list = WindowList::new(Window {
            feature: FeatureId(2),
            start,
            end,
        });
        for segment in segments {
            list.push(mask(segment));
        }
        list
    }

    /// Two log records on the live types: a positive admission that
    /// explored, and a revoked negative one whose rollback fired.
    fn sample_trust() -> TrustState<'static> {
        let key = (PairId(0), FeatureId(2));
        TrustState {
            sources: vec![(SourceId(1), 5, 0), (SourceId(2), 1, 7)],
            discredited: vec![SourceId(2)],
            pending: vec![(3, vec![(SourceId(1), true), (SourceId(4), false)])],
            log: Cow::Owned(vec![
                AdmissionRecord {
                    supporters: vec![SourceId(1), SourceId(3)],
                    opposers: vec![SourceId(2)],
                    credited: vec![key],
                    reward: 1.0,
                    newly_approved: true,
                    prov_target: Some(key),
                    action: Some(FeatureId(2)),
                    added: footprint(3, 9, &[&[1, 4]]),
                    attributed: mask(&[4]),
                    ..AdmissionRecord::new(PairId(0), true)
                },
                AdmissionRecord {
                    supporters: vec![SourceId(2)],
                    reward: -2.0,
                    prov_target: Some(key),
                    removed_candidate: true,
                    was_approved: true,
                    blacklist_added: true,
                    rollback: Some(RollbackUndo {
                        generator: key,
                        links: footprint(3, 9, &[&[4], &[1, 5]]),
                        votes: (3, 1),
                        removed: mask(&[0, 2]),
                    }),
                    revoked: true,
                    ..AdmissionRecord::new(PairId(4), false)
                },
            ]),
        }
    }

    /// Seeded random admission records. Footprints run past one mask word.
    fn random_records(seed: u64, n: usize) -> Vec<AdmissionRecord> {
        let mut x = seed | 1;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        fn random_mask(next: &mut impl FnMut(u64) -> u64, len: u64, density: u64) -> BitMask {
            let mut m = BitMask::default();
            for i in 0..len {
                if next(density) == 0 {
                    m.insert(i as usize);
                }
            }
            m
        }
        let mut records = Vec::new();
        for _ in 0..n {
            let mut rec = AdmissionRecord::new(PairId(next(50) as u32), next(2) == 0);
            rec.supporters = (0..next(4)).map(|_| SourceId(next(6) as u32)).collect();
            rec.opposers = (0..next(3)).map(|_| SourceId(next(6) as u32)).collect();
            rec.credited = (0..next(5))
                .map(|_| (PairId(next(50) as u32), FeatureId(next(9) as u32)))
                .collect();
            rec.reward = if rec.positive { 1.0 } else { -2.0 };
            rec.newly_approved = next(2) == 0;
            rec.endorsed = next(2) == 0;
            rec.prov_target = (next(2) == 0).then(|| (PairId(next(50) as u32), FeatureId(1)));
            rec.action = (next(2) == 0).then(|| FeatureId(next(9) as u32));
            let start = next(100) as u32;
            let len = next(200);
            let window = Window {
                feature: FeatureId(next(9) as u32),
                start,
                end: start + len as u32,
            };
            rec.added = WindowList::new(window);
            let added = random_mask(&mut next, len, 2);
            let attributed: Vec<usize> = added.positions().filter(|_| next(3) != 0).collect();
            rec.added.push(added);
            rec.attributed = mask(&attributed);
            rec.removed_candidate = next(2) == 0;
            rec.was_approved = next(2) == 0;
            rec.blacklist_added = next(2) == 0;
            if next(2) == 0 {
                let mut links = WindowList::new(Window { start: 0, ..window });
                for _ in 0..next(4) {
                    links.push(random_mask(&mut next, len, 3));
                }
                let removed = random_mask(&mut next, links.len() as u64, 2);
                rec.rollback = Some(RollbackUndo {
                    generator: (PairId(next(50) as u32), FeatureId(next(9) as u32)),
                    links,
                    votes: (next(5) as u32, next(5) as u32),
                    removed,
                });
            }
            rec.revoked = next(4) == 0;
            records.push(rec);
        }
        records
    }

    fn trust_of(log: Vec<AdmissionRecord>) -> TrustState<'static> {
        TrustState {
            sources: Vec::new(),
            discredited: Vec::new(),
            pending: Vec::new(),
            log: Cow::Owned(log),
        }
    }

    fn trust_bytes(log: Vec<AdmissionRecord>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_trust(&mut w, &trust_of(log));
        w.finish()
    }

    #[test]
    fn random_records_round_trip() {
        for seed in 1..=20 {
            let trust = trust_of(random_records(seed, 40));
            let mut w = ByteWriter::new();
            put_trust(&mut w, &trust);
            let bytes = w.finish();
            let back = get_trust(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(back, trust, "seed {seed}");
        }
    }

    #[test]
    fn decoder_rejects_footprints_that_do_not_fit() {
        let good = sample_trust().log.into_owned();
        type Tamper = fn(&mut Vec<AdmissionRecord>);
        let cases: [(Tamper, &str); 6] = [
            // A segment past the end of its window.
            (
                |log| log[0].added = footprint(3, 9, &[&[6]]),
                "outside its window",
            ),
            // A window that ends before it starts.
            (
                |log| log[0].added = footprint(9, 3, &[]),
                "outside its window",
            ),
            // An empty segment.
            (
                |log| log[0].added.segments.push(BitMask::default()),
                "outside its window",
            ),
            // Two segments for one exploration.
            (|log| log[0].added.push(mask(&[5])), "one segment"),
            // An attribution of a link the exploration did not add.
            (|log| log[0].attributed = mask(&[2]), "one segment"),
            // A removal past the end of the rollback's list.
            (
                |log| {
                    if let Some(rb) = log[1].rollback.as_mut() {
                        rb.removed = mask(&[3]);
                    }
                },
                "past its links",
            ),
        ];
        assert!(get_trust(&mut ByteReader::new(&trust_bytes(good.clone()))).is_ok());
        for (i, (tamper, want)) in cases.iter().enumerate() {
            let mut log = good.clone();
            tamper(&mut log);
            let bytes = trust_bytes(log);
            let err = get_trust(&mut ByteReader::new(&bytes)).unwrap_err();
            assert!(err.context.contains(want), "case {i}: {err}");
        }
        // A mask with a trailing zero word is not the one layout of its set.
        let mut bytes = trust_bytes(good.clone());
        let mut w = ByteWriter::new();
        put_mask(&mut w, &mask(&[4]));
        let attributed = w.finish();
        let at = bytes
            .windows(attributed.len())
            .position(|w| w == attributed)
            .expect("attributed mask in the encoding");
        bytes[at + 1..at + 9].fill(0);
        let err = get_trust(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(err.context.contains("trailing zero word"), "{err}");
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
    fn trust_snapshot_layout_is_pinned() {
        // FNV-1a of the format-6 bytes: state dirs already written must
        // keep decoding, so the layout may not drift under the same version.
        let mut snap = sample_snapshot();
        snap.partitions[0].agent.trust = Some(sample_trust());
        let digest = encode_snapshot(&snap)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(format!("{digest:016x}"), "25efc22ad1264954");
    }

    #[test]
    fn episode_duration_is_not_encoded() {
        let snap = sample_snapshot();
        let mut timed = snap.clone();
        timed.episodes[0].duration = std::time::Duration::from_millis(1500);
        timed.partitions[0].episodes[0].duration = std::time::Duration::from_nanos(7);
        assert_eq!(encode_snapshot(&timed), encode_snapshot(&snap));
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
        bytes[0] = 4;
        let msg = decode_snapshot(&bytes).unwrap_err();
        assert_eq!(
            msg,
            "state dir snapshot is in persist format 4, but this build reads format 6 and \
             does not convert between formats (start a fresh run with a new --state-dir)"
        );
        let mut bytes = encode_episode(&EpisodeRecord {
            partitions: vec![],
            degraded: false,
        });
        bytes[0] = 99;
        let msg = decode_episode(&bytes).unwrap_err();
        assert!(
            msg.contains("journal record is in persist format 99"),
            "{msg}"
        );
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
        let fp = config_fingerprint(&base, 0.3);
        assert_eq!(fp, config_fingerprint(&AlexConfig::default(), 0.3));
        assert_ne!(fp, config_fingerprint(&base, 0.4));
        let reseeded = AlexConfig {
            seed: base.seed + 1,
            ..AlexConfig::default()
        };
        assert_ne!(fp, config_fingerprint(&reseeded, 0.3));
        let shifted = AlexConfig {
            epsilon: base.epsilon + 0.01,
            ..AlexConfig::default()
        };
        assert_ne!(fp, config_fingerprint(&shifted, 0.3));
        let trusted = AlexConfig {
            trust: Some(alex_trust::TrustConfig::default()),
            ..AlexConfig::default()
        };
        let tfp = config_fingerprint(&trusted, 0.3);
        assert_ne!(fp, tfp);
        let requorumed = AlexConfig {
            trust: Some(alex_trust::TrustConfig {
                quorum: 2.0,
                ..alex_trust::TrustConfig::default()
            }),
            ..AlexConfig::default()
        };
        assert_ne!(tfp, config_fingerprint(&requorumed, 0.3));
    }
}
