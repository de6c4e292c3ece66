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

use std::collections::BTreeSet;

use alex_trust::{QuorumBuffer, SourceId, TrustConfig, TrustModel};

use crate::feature::FeatureId;
use crate::persist;
use crate::space::PairId;

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
    /// The subset of `links` actually removed from the candidate set, in
    /// removal order.
    pub removed: Vec<PairId>,
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
    /// Positive admissions: links added by exploration, paired with whether
    /// this admission created their provenance attribution.
    pub added: Vec<(PairId, bool)>,
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
            removed_candidate: false,
            was_approved: false,
            blacklist_added: false,
            rollback: None,
            revoked: false,
        }
    }

    /// Every link id the record names: the judged link, credited and
    /// voted-on generator states, explored links, and the rollback's
    /// generator, attribution list and removals.
    pub(crate) fn pair_ids(&self) -> impl Iterator<Item = PairId> + '_ {
        let rollback = self.rollback.iter().flat_map(|rb| {
            std::iter::once(rb.generator.0)
                .chain(rb.links.iter().copied())
                .chain(rb.removed.iter().copied())
        });
        std::iter::once(self.state)
            .chain(self.credited.iter().map(|&(s, _)| s))
            .chain(self.prov_target.map(|(s, _)| s))
            .chain(self.added.iter().map(|&(l, _)| l))
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

    /// Serialize for snapshots.
    pub fn to_state(&self) -> persist::TrustState {
        persist::TrustState {
            sources: self.model.iter_counts(),
            discredited: self.discredited.iter().copied().collect(),
            pending: self.buffer.iter_pending(),
            log: self.log.clone(),
        }
    }

    /// Rebuild a gate from snapshot state under `cfg`.
    pub fn from_state(cfg: TrustConfig, state: &persist::TrustState) -> Self {
        let mut gate = TrustGate::new(cfg);
        gate.model.restore_counts(&state.sources);
        gate.buffer.restore_pending(&state.pending);
        gate.log = state.log.clone();
        gate.discredited = state.discredited.iter().copied().collect();
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
            removed: vec![PairId(7)],
        });
        gate.log.push(rec);

        let state = gate.to_state();
        let back = TrustGate::from_state(TrustConfig::default(), &state);
        assert_eq!(back.to_state(), state);
        assert_eq!(back.log, gate.log);
        assert!(back.discredited.contains(&SourceId(2)));
        assert_eq!(back.weight(SourceId(2)), 0.0);
        assert!(back.weight(SourceId(1)) > 0.5);
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
