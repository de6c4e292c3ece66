//! The agent-side trust gate: quorum admission, the admission log, and the
//! state cascading rollback needs to undo admitted feedback exactly.
//!
//! The gate sits between the feedback stream and the learning update. Every
//! attributed judgment is buffered as a vote; only when trust-weighted
//! agreement crosses the configured quorum does the judgment *apply* — and
//! when it applies, the gate records precisely which mutations it caused
//! (approvals, blacklist strikes, explored links, credited returns,
//! rollbacks), so a later discredit can restore byte-identical
//! pre-admission state.

use std::borrow::Cow;
use std::collections::BTreeSet;

use alex_trust::{QuorumBuffer, SourceId, TrustConfig, TrustModel};

use crate::feature::FeatureId;
use crate::persist;
use crate::space::PairId;

/// A set of positions in one of a record's footprint lists, one bit per
/// position: the in-memory form of a flag per entry, or of a sublist that
/// is always an in-order subsequence of the list it masks. The words end at
/// the highest set position, so equal sets compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
}

impl BitMask {
    /// Number of positions in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no position is set.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether position `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Set position `i`.
    pub fn insert(&mut self, i: usize) {
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// The entries of `items` at the set positions, in list order.
    pub fn select<'a, T: Copy>(
        &'a self,
        items: &'a [T],
    ) -> impl DoubleEndedIterator<Item = T> + 'a {
        items
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.contains(i))
            .map(|(_, &t)| t)
    }

    /// The mask that [`BitMask::select`]s exactly `sub` from `items`, or
    /// `None` when `sub` is not an in-order subsequence of `items`.
    /// Each entry of `sub` takes the first unclaimed equal entry of `items`.
    pub fn of_subsequence<T: PartialEq>(items: &[T], sub: &[T]) -> Option<BitMask> {
        let mut mask = BitMask::default();
        let mut from = 0;
        for wanted in sub {
            let at = from + items[from..].iter().position(|x| x == wanted)?;
            mask.insert(at);
            from = at + 1;
        }
        Some(mask)
    }
}

/// Exact undo data for one fired provenance rollback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackUndo {
    /// The generator whose attributions were cleared.
    pub generator: (PairId, FeatureId),
    /// The full attribution list the rollback cleared, in attribution order.
    pub links: Vec<PairId>,
    /// The generator's `(negatives, positives)` votes at clearing time
    /// (snapshotted *after* the triggering negative vote).
    pub votes: (u32, u32),
    /// The positions in `links` actually removed from the candidate set.
    /// Removal walks `links` in order, so removal order is list order.
    pub removed: BitMask,
}

/// One admission-log record: the quorum outcome plus everything needed to
/// undo the admitted feedback's learning-state mutations.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRecord {
    /// The judged link.
    pub state: PairId,
    /// The admitted direction (`true` = positive feedback).
    pub positive: bool,
    /// Sources whose buffered vote matched the admitted direction.
    pub supporters: Vec<SourceId>,
    /// Sources whose buffered vote opposed it.
    pub opposers: Vec<SourceId>,
    /// Ancestor `(state, action)` pairs credited with the return, in credit
    /// order.
    pub credited: Vec<(PairId, FeatureId)>,
    /// The credited return value.
    pub reward: f64,
    /// Positive admissions: whether the link was newly approved.
    pub newly_approved: bool,
    /// Positive admissions: whether a blacklist endorsement landed.
    pub endorsed: bool,
    /// The generator that received a provenance vote (positive or negative).
    pub prov_target: Option<(PairId, FeatureId)>,
    /// Positive admissions: the exploration action, if one was taken.
    pub action: Option<FeatureId>,
    /// Positive admissions: links added by exploration, in insertion order.
    pub added: Vec<PairId>,
    /// Positive admissions: the positions in `added` whose provenance
    /// attribution this admission created.
    pub attributed: BitMask,
    /// Negative admissions: whether the link was removed from candidates.
    pub removed_candidate: bool,
    /// Negative admissions: whether the link was approved beforehand.
    pub was_approved: bool,
    /// Negative admissions: whether a blacklist strike landed.
    pub blacklist_added: bool,
    /// Negative admissions: undo data when a rollback fired.
    pub rollback: Option<RollbackUndo>,
    /// Whether cascading rollback has revoked this admission.
    pub revoked: bool,
}

impl AdmissionRecord {
    /// A blank record for `state` admitted in direction `positive`; the
    /// apply path fills in the mutation fields as they happen.
    pub fn new(state: PairId, positive: bool) -> Self {
        AdmissionRecord {
            state,
            positive,
            supporters: Vec::new(),
            opposers: Vec::new(),
            credited: Vec::new(),
            reward: 0.0,
            newly_approved: false,
            endorsed: false,
            prov_target: None,
            action: None,
            added: Vec::new(),
            attributed: BitMask::default(),
            removed_candidate: false,
            was_approved: false,
            blacklist_added: false,
            rollback: None,
            revoked: false,
        }
    }

    /// Every link id the record names: the judged link, credited and
    /// voted-on generator states, explored links, and the rollback's
    /// generator and attribution list (its removals are a subset of that
    /// list).
    pub(crate) fn pair_ids(&self) -> impl Iterator<Item = PairId> + '_ {
        let rollback = self
            .rollback
            .iter()
            .flat_map(|rb| std::iter::once(rb.generator.0).chain(rb.links.iter().copied()));
        std::iter::once(self.state)
            .chain(self.credited.iter().map(|&(s, _)| s))
            .chain(self.prov_target.map(|(s, _)| s))
            .chain(self.added.iter().copied())
            .chain(rollback)
    }
}

/// The trust gate: per-source reliability, the quorum buffer, and the
/// admission log.
#[derive(Debug)]
pub struct TrustGate {
    /// Trust configuration (validated by [`crate::AlexConfig::validate`]).
    pub cfg: TrustConfig,
    /// Per-source Beta–Bernoulli reliability counts.
    pub model: TrustModel,
    /// Votes awaiting quorum.
    pub buffer: QuorumBuffer,
    /// Admission log in admission order; revocation flags entries rather
    /// than deleting them, keeping indices stable.
    pub log: Vec<AdmissionRecord>,
    /// Sources whose trust collapsed; their votes carry zero weight.
    pub discredited: BTreeSet<SourceId>,
}

impl TrustGate {
    /// A fresh gate under `cfg`.
    pub fn new(cfg: TrustConfig) -> Self {
        TrustGate {
            cfg,
            model: TrustModel::new(),
            buffer: QuorumBuffer::new(),
            log: Vec::new(),
            discredited: BTreeSet::new(),
        }
    }

    /// Effective voting weight of a source: its posterior trust, or zero
    /// once discredited.
    pub fn weight(&self, source: SourceId) -> f64 {
        if self.discredited.contains(&source) {
            0.0
        } else {
            self.model.trust(source, &self.cfg)
        }
    }

    /// Serialize for snapshots. The admission log is borrowed, not copied:
    /// it is most of the gate's memory.
    pub fn to_state(&self) -> persist::TrustState<'_> {
        persist::TrustState {
            sources: self.model.iter_counts(),
            discredited: self.discredited.iter().copied().collect(),
            pending: self.buffer.iter_pending(),
            log: Cow::Borrowed(&self.log),
        }
    }

    /// Rebuild a gate from snapshot state under `cfg`, taking over a
    /// decoded (owned) admission log without copying it.
    pub fn from_state(cfg: TrustConfig, state: persist::TrustState<'_>) -> Self {
        let mut gate = TrustGate::new(cfg);
        gate.model.restore_counts(&state.sources);
        gate.buffer.restore_pending(&state.pending);
        gate.log = state.log.into_owned();
        gate.discredited = state.discredited.into_iter().collect();
        gate
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn gate_state_round_trips() {
        let mut gate = TrustGate::new(TrustConfig::default());
        gate.model.record(SourceId(1), true);
        gate.model.record(SourceId(1), true);
        gate.model.record(SourceId(2), false);
        gate.buffer.vote(9, SourceId(1), true);
        gate.buffer.vote(9, SourceId(2), false);
        gate.discredited.insert(SourceId(2));
        let mut rec = AdmissionRecord::new(PairId(4), false);
        rec.supporters = vec![SourceId(1)];
        rec.opposers = vec![SourceId(2)];
        rec.credited = vec![(PairId(4), FeatureId(0))];
        rec.reward = -2.0;
        rec.prov_target = Some((PairId(0), FeatureId(1)));
        rec.removed_candidate = true;
        rec.blacklist_added = true;
        rec.rollback = Some(RollbackUndo {
            generator: (PairId(0), FeatureId(1)),
            links: vec![PairId(4), PairId(7)],
            votes: (3, 0),
            removed: BitMask::of_subsequence(&[PairId(4), PairId(7)], &[PairId(7)]).unwrap(),
        });
        gate.log.push(rec);

        let state = gate.to_state();
        let back = TrustGate::from_state(TrustConfig::default(), state.clone());
        assert_eq!(back.to_state(), state);
        assert_eq!(back.log, gate.log);
        assert!(back.discredited.contains(&SourceId(2)));
        assert_eq!(back.weight(SourceId(2)), 0.0);
        assert!(back.weight(SourceId(1)) > 0.5);
    }

    #[test]
    fn bit_mask_selects_the_subsequence_it_was_built_from() {
        let items: Vec<u32> = (0..150).map(|i| i % 7).collect();
        let sub: Vec<u32> = vec![3, 3, 0, 6, 6, 1];
        let mask = BitMask::of_subsequence(&items, &sub).unwrap();
        assert_eq!(mask.len(), sub.len());
        assert_eq!(mask.select(&items).collect::<Vec<_>>(), sub);
        assert_eq!(
            mask.select(&items).rev().collect::<Vec<_>>(),
            sub.iter().rev().copied().collect::<Vec<_>>()
        );
        assert_eq!(
            BitMask::of_subsequence(&items, &[]),
            Some(BitMask::default())
        );
        assert!(BitMask::default().is_empty() && !mask.is_empty());
        // Out of order, or an entry the list lacks.
        assert_eq!(BitMask::of_subsequence(&[1, 2, 3], &[3, 2]), None);
        assert_eq!(BitMask::of_subsequence(&[1, 2, 3], &[4]), None);
        assert_eq!(BitMask::of_subsequence(&[1, 2], &[1, 2, 2]), None);
        let mut far = BitMask::default();
        far.insert(200);
        assert!(far.contains(200) && !far.contains(199) && !far.contains(10_000));
        assert_eq!(far.len(), 1);
    }

    #[test]
    fn weight_is_posterior_until_discredited() {
        let mut gate = TrustGate::new(TrustConfig::default());
        // Uniform prior: unseen source sits at 1/2.
        assert!((gate.weight(SourceId(5)) - 0.5).abs() < 1e-12);
        gate.model.record(SourceId(5), true);
        assert!(gate.weight(SourceId(5)) > 0.5);
        gate.discredited.insert(SourceId(5));
        assert_eq!(gate.weight(SourceId(5)), 0.0);
    }
}
