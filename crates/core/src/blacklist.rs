//! The blacklist optimization (§6.3): links judged incorrect are not
//! proposed again by future explorations.
//!
//! The blacklist is *vote-based*: a link is blocked while its negative
//! judgments outnumber its positive ones. With error-free feedback this is
//! exactly the paper's behaviour (one rejection blocks the link forever);
//! with noisy feedback (Appendix C) it is what makes ALEX resilient — a
//! single mistaken rejection of a correct link removes it from the
//! candidate set, but the link can be re-discovered by exploration and
//! contradicted by later (correct) feedback, as §6.3 requires.

use crate::pairmap::PairMap;
use crate::space::PairId;

/// Vote-based set of links judged incorrect.
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    votes: PairMap<(u32, u32)>, // (negatives, positives)
    enabled: bool,
}

impl Blacklist {
    /// A blacklist; when disabled, it records nothing and blocks nothing
    /// (used by the Fig. 6 ablation).
    pub fn new(enabled: bool) -> Self {
        Blacklist {
            votes: PairMap::new(),
            enabled,
        }
    }

    /// Record a negative judgment on a link. Returns whether a vote was
    /// recorded (false when disabled), so a caller that may later have to
    /// retract the judgment knows there is something to retract. Tallies
    /// saturate instead of wrapping, so a hostile feedback flood cannot
    /// overflow a counter back to "unblocked".
    pub fn add(&mut self, id: PairId) -> bool {
        if self.enabled {
            let v = self.votes.get_or_insert(id, (0, 0));
            v.0 = v.0.saturating_add(1);
        }
        self.enabled
    }

    /// Record a positive judgment on a link (contradicting earlier
    /// negatives; only tracked for links that have been voted on). Returns
    /// whether a vote was recorded. Saturating, like [`Blacklist::add`].
    pub fn endorse(&mut self, id: PairId) -> bool {
        if self.enabled {
            if let Some(v) = self.votes.get_mut(id) {
                v.1 = v.1.saturating_add(1);
                return true;
            }
        }
        false
    }

    /// Retract one negative judgment previously recorded by
    /// [`Blacklist::add`] (trust-layer revocation of an admitted rejection).
    /// An entry whose tallies return to zero is dropped entirely, so the
    /// vote map is byte-identical to one that never saw the judgment.
    pub fn retract_add(&mut self, id: PairId) {
        if let Some(v) = self.votes.get_mut(id) {
            v.0 = v.0.saturating_sub(1);
            if *v == (0, 0) {
                self.votes.remove(id);
            }
        }
    }

    /// Retract one positive judgment previously recorded by
    /// [`Blacklist::endorse`].
    pub fn retract_endorse(&mut self, id: PairId) {
        if let Some(v) = self.votes.get_mut(id) {
            v.1 = v.1.saturating_sub(1);
            if *v == (0, 0) {
                self.votes.remove(id);
            }
        }
    }

    /// Whether a link is currently blocked from (re-)proposal: at least two
    /// negative judgments, strictly outnumbering the positives.
    ///
    /// The two-strike rule is the resilience mechanism of §6.3/Appendix C:
    /// a link rejected once is removed from the candidate set but can still
    /// be *re-discovered* by exploration — if the rejection was a user
    /// error, later (correct) feedback contradicts it; if it was right, the
    /// second rejection blocks the link permanently.
    pub fn blocks(&self, id: PairId) -> bool {
        if !self.enabled {
            return false;
        }
        match self.votes.get(id) {
            Some(&(neg, pos)) => neg >= 2 && neg > pos,
            None => false,
        }
    }

    /// Number of currently blocked links.
    pub fn len(&self) -> usize {
        self.votes
            .values()
            .filter(|&&(n, p)| n >= 2 && n > p)
            .count()
    }

    /// Whether nothing is currently blocked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this blacklist records and blocks at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Iterate over `(link, (negatives, positives))` vote entries, in
    /// ascending link order.
    pub fn iter_votes(&self) -> impl Iterator<Item = (PairId, (u32, u32))> + '_ {
        self.votes.iter().map(|(id, &v)| (id, v))
    }

    /// Replace a link's vote counts wholesale (crash-recovery restore).
    pub fn restore_votes(&mut self, id: PairId, negatives: u32, positives: u32) {
        self.votes.insert(id, (negatives, positives));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn enabled_blacklist_blocks_after_two_strikes() {
        let mut b = Blacklist::new(true);
        b.add(PairId(1));
        assert!(!b.blocks(PairId(1)), "one strike leaves re-discovery open");
        b.add(PairId(1));
        assert!(b.blocks(PairId(1)));
        assert!(!b.blocks(PairId(2)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn disabled_blacklist_is_inert() {
        let mut b = Blacklist::new(false);
        b.add(PairId(1));
        assert!(!b.blocks(PairId(1)));
        assert!(b.is_empty());
    }

    #[test]
    fn positive_votes_unblock() {
        // A correct link hit by two mistaken rejections recovers once later
        // feedback contradicts them (Appendix C resilience).
        let mut b = Blacklist::new(true);
        b.add(PairId(1));
        b.add(PairId(1));
        assert!(b.blocks(PairId(1)));
        b.endorse(PairId(1));
        b.endorse(PairId(1));
        assert!(!b.blocks(PairId(1)));
        assert!(b.is_empty());
    }

    #[test]
    fn majority_negative_blocks_again() {
        let mut b = Blacklist::new(true);
        b.add(PairId(1));
        b.endorse(PairId(1));
        b.add(PairId(1));
        b.add(PairId(1));
        assert!(b.blocks(PairId(1)), "3 neg vs 1 pos blocks");
    }

    #[test]
    fn endorse_without_votes_is_noop() {
        let mut b = Blacklist::new(true);
        assert!(!b.endorse(PairId(5)), "nothing to endorse yet");
        assert!(!b.blocks(PairId(5)));
        b.add(PairId(5));
        b.add(PairId(5));
        assert!(
            b.blocks(PairId(5)),
            "endorsements before any vote don't pre-arm"
        );
    }

    #[test]
    fn offset_semantics_at_the_threshold_edge() {
        // Pin the exact offsetting-votes arithmetic the agent relies on:
        // blocked ⇔ neg >= 2 && neg > pos, evaluated on raw (not netted)
        // tallies.
        let mut b = Blacklist::new(true);
        b.add(PairId(1)); // (1, 0): one strike, open
        assert!(!b.blocks(PairId(1)));
        b.add(PairId(1)); // (2, 0): blocked
        assert!(b.blocks(PairId(1)));
        b.endorse(PairId(1)); // (2, 1): still blocked, 2 > 1
        assert!(b.blocks(PairId(1)));
        b.endorse(PairId(1)); // (2, 2): tie unblocks
        assert!(!b.blocks(PairId(1)));
        b.add(PairId(1)); // (3, 2): majority negative re-blocks
        assert!(b.blocks(PairId(1)));
    }

    #[test]
    fn tallies_saturate_at_u32_max() {
        let mut b = Blacklist::new(true);
        b.restore_votes(PairId(1), u32::MAX, 0);
        b.add(PairId(1)); // must not wrap to 0 (which would unblock)
        assert!(b.blocks(PairId(1)));
        assert_eq!(b.iter_votes().next(), Some((PairId(1), (u32::MAX, 0))));

        b.restore_votes(PairId(2), u32::MAX, u32::MAX - 1);
        b.endorse(PairId(2)); // pos reaches the ceiling: MAX vs MAX is a tie
        assert!(!b.blocks(PairId(2)));
        b.endorse(PairId(2)); // further endorsements saturate, no wrap to 0
        assert!(!b.blocks(PairId(2)));
        let votes: Vec<_> = b.iter_votes().filter(|(id, _)| *id == PairId(2)).collect();
        assert_eq!(votes, vec![(PairId(2), (u32::MAX, u32::MAX))]);
    }

    #[test]
    fn retract_undoes_votes_and_drops_empty_entries() {
        let mut b = Blacklist::new(true);
        b.add(PairId(1));
        b.add(PairId(1));
        assert!(b.endorse(PairId(1)));
        b.retract_endorse(PairId(1));
        assert!(b.blocks(PairId(1)), "(2, 0) after the endorsement retracts");
        b.retract_add(PairId(1));
        assert!(!b.blocks(PairId(1)));
        b.retract_add(PairId(1));
        // Entry fully retracted: the vote map holds nothing at all, exactly
        // as if the judgments never happened.
        assert_eq!(b.iter_votes().count(), 0);
        // Retracting below zero is inert, not a wrap.
        b.retract_add(PairId(1));
        b.retract_endorse(PairId(1));
        assert_eq!(b.iter_votes().count(), 0);
    }
}
