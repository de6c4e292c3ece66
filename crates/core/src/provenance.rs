//! Link provenance and the rollback optimization (§6.3).
//!
//! "ALEX traces feedback on links to know by which state-action pair these
//! links were generated. When a sufficient number of negative feedback items
//! is received over links generated by a specific state-action pair, a
//! rollback process is initiated, and all links generated by this
//! state-action pair are removed." Removed-but-unjudged links are *not*
//! blacklisted — they may be correct and can be rediscovered by a better
//! action.

use std::collections::HashMap;

use crate::feature::FeatureId;
use crate::pairmap::PairMap;
use crate::space::PairId;
use crate::trust_gate::BitMask;

/// A state-action pair: the link that received positive feedback and the
/// feature explored around.
pub type StateAction = (PairId, FeatureId);

/// Provenance tracking: which state-action pair generated each link, and
/// negative-feedback tallies per generator.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    generated_by: PairMap<StateAction>,
    generated: HashMap<StateAction, Vec<PairId>>,
    votes: HashMap<StateAction, (u32, u32)>, // (negatives, positives)
}

impl Provenance {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `link` was discovered by `generator`. First writer wins:
    /// a link already attributed keeps its original generator. Returns
    /// whether this call created the attribution (false for already
    /// attributed links), so a caller that may later have to retract the
    /// discovery knows whether it owns the attribution.
    pub fn record(&mut self, link: PairId, generator: StateAction) -> bool {
        if self.generated_by.contains_key(link) {
            return false;
        }
        self.generated_by.insert(link, generator);
        self.generated.entry(generator).or_default().push(link);
        true
    }

    /// Record each link of `added`, in order, as discovered by `generator`:
    /// [`Provenance::record`] for a whole exploration window, with one
    /// lookup of the generator's list. `added` pairs each link with its
    /// position in the window; returns the positions whose attribution
    /// this call created.
    pub fn record_all(&mut self, generator: StateAction, added: &[(usize, PairId)]) -> BitMask {
        let mut attributed = BitMask::default();
        let mut links = Vec::new();
        for &(i, link) in added {
            if !self.generated_by.contains_key(link) {
                self.generated_by.insert(link, generator);
                attributed.insert(i);
                links.push(link);
            }
        }
        if !links.is_empty() {
            self.generated.entry(generator).or_default().extend(links);
        }
        attributed
    }

    /// Retract attributions previously created by [`Provenance::record`]
    /// or [`Provenance::record_all`] (trust-layer revocation of an admitted
    /// exploration), with one pass over the generator's list however many
    /// links are retracted. Only removes a link's entry when it is still
    /// attributed to exactly `generator`; a link that was rolled back and
    /// re-attributed in the meantime keeps its new provenance.
    pub fn retract_all(&mut self, generator: StateAction, links: impl IntoIterator<Item = PairId>) {
        let mut retracted = Vec::new();
        for link in links {
            if self.generated_by.get(link) == Some(&generator) {
                self.generated_by.remove(link);
                retracted.push(link);
            }
        }
        if retracted.is_empty() {
            return;
        }
        retracted.sort_unstable();
        if let Some(list) = self.generated.get_mut(&generator) {
            list.retain(|l| retracted.binary_search(l).is_err());
            if list.is_empty() {
                self.generated.remove(&generator);
            }
        }
    }

    /// The generator of a link, if it was discovered by exploration (links
    /// from the initial candidate set have none).
    pub fn generator_of(&self, link: PairId) -> Option<StateAction> {
        self.generated_by.get(link).copied()
    }

    /// The chain of ancestors of `link`: its generator state-action, the
    /// generator of that state, and so on. Used by first-visit MC credit
    /// assignment: feedback on a link is appended to the returns of every
    /// state-action pair that led to it (§4.4.1's example credits both
    /// (s2, a2) and (s1, a1)). Cycle-safe: the walk stops at the first
    /// state-action already in the chain. Chains are short, so that check
    /// is a scan of the chain itself.
    pub fn ancestor_chain(&self, link: PairId) -> Vec<StateAction> {
        let mut chain = Vec::new();
        let mut current = link;
        while let Some(sa) = self.generator_of(current) {
            if chain.contains(&sa) {
                break; // cycle
            }
            chain.push(sa);
            current = sa.0;
        }
        chain
    }

    /// Record one negative feedback against a link's generator. Returns the
    /// generator and its new *net* negative tally (negatives minus
    /// positives), or `None` for links without provenance.
    ///
    /// Netting against positives is what keeps rollback useful under noisy
    /// feedback (Appendix C): a productive action whose links are mostly
    /// approved never accumulates enough net negatives to be rolled back by
    /// occasional mistaken rejections, while an action that flooded the
    /// candidate set with junk is rolled back as fast as before.
    pub fn record_negative(&mut self, link: PairId) -> Option<(StateAction, u32)> {
        let generator = self.generator_of(link)?;
        let v = self.votes.entry(generator).or_insert((0, 0));
        v.0 = v.0.saturating_add(1);
        Some((generator, v.0.saturating_sub(v.1)))
    }

    /// Record one positive feedback in favor of a link's generator. Returns
    /// the generator voted for, or `None` for links without provenance.
    pub fn record_positive(&mut self, link: PairId) -> Option<StateAction> {
        let generator = self.generator_of(link)?;
        let v = self.votes.entry(generator).or_insert((0, 0));
        v.1 = v.1.saturating_add(1);
        Some(generator)
    }

    /// Raw `(negatives, positives)` tallies for a generator, if any vote has
    /// been recorded. Revocation snapshots these before a rollback clears
    /// them so the exact counts can be restored.
    pub fn votes_of(&self, generator: StateAction) -> Option<(u32, u32)> {
        self.votes.get(&generator).copied()
    }

    /// Retract one negative vote against `generator` (trust-layer
    /// revocation). An entry whose tallies return to zero is dropped, so the
    /// map is byte-identical to one that never saw the vote.
    pub fn retract_vote_negative(&mut self, generator: StateAction) {
        if let Some(v) = self.votes.get_mut(&generator) {
            v.0 = v.0.saturating_sub(1);
            if *v == (0, 0) {
                self.votes.remove(&generator);
            }
        }
    }

    /// Retract one positive vote in favor of `generator` (trust-layer
    /// revocation).
    pub fn retract_vote_positive(&mut self, generator: StateAction) {
        if let Some(v) = self.votes.get_mut(&generator) {
            v.1 = v.1.saturating_sub(1);
            if *v == (0, 0) {
                self.votes.remove(&generator);
            }
        }
    }

    /// Net negative tally for a generator (negatives minus positives,
    /// floored at zero).
    pub fn negatives(&self, generator: StateAction) -> u32 {
        self.votes
            .get(&generator)
            .map(|&(n, p)| n.saturating_sub(p))
            .unwrap_or(0)
    }

    /// Take (and clear) the list of links generated by `generator`, for a
    /// rollback. Their provenance entries are removed too, so a later
    /// rediscovery by a different action re-attributes them.
    pub fn take_generated(&mut self, generator: StateAction) -> Vec<PairId> {
        let links = self.generated.remove(&generator).unwrap_or_default();
        for &l in &links {
            self.generated_by.remove(l);
        }
        self.votes.remove(&generator);
        links
    }

    /// Number of links currently attributed to `generator`.
    pub fn generated_count(&self, generator: StateAction) -> usize {
        self.generated.get(&generator).map_or(0, Vec::len)
    }

    /// Iterate over `(generator, generated links)` entries, in arbitrary map
    /// order. The per-generator link *lists* are in attribution order —
    /// rollback removes links in that order, so restore must preserve it.
    pub fn iter_generated(&self) -> impl Iterator<Item = (StateAction, &[PairId])> + '_ {
        self.generated.iter().map(|(&g, ls)| (g, ls.as_slice()))
    }

    /// Iterate over `(generator, (negatives, positives))` vote entries, in
    /// arbitrary map order.
    pub fn iter_votes(&self) -> impl Iterator<Item = (StateAction, (u32, u32))> + '_ {
        self.votes.iter().map(|(&g, &v)| (g, v))
    }

    /// Restore a generator's link list wholesale (crash-recovery restore).
    /// Rebuilds the reverse `generated_by` map, honoring first-writer-wins
    /// — which is a no-op here because live operation guarantees each link
    /// appears in at most one generator's list.
    pub fn restore_generated(&mut self, generator: StateAction, links: Vec<PairId>) {
        for &l in &links {
            self.generated_by.get_or_insert(l, generator);
        }
        self.generated.insert(generator, links);
    }

    /// Restore a generator's vote counts wholesale (crash-recovery restore).
    pub fn restore_votes(&mut self, generator: StateAction, negatives: u32, positives: u32) {
        self.votes.insert(generator, (negatives, positives));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sa(s: u32, a: u32) -> StateAction {
        (PairId(s), FeatureId(a))
    }

    #[test]
    fn record_and_lookup() {
        let mut p = Provenance::new();
        p.record(PairId(10), sa(1, 0));
        assert_eq!(p.generator_of(PairId(10)), Some(sa(1, 0)));
        assert_eq!(p.generated_count(sa(1, 0)), 1);
        assert_eq!(p.generator_of(PairId(11)), None);
    }

    #[test]
    fn first_writer_wins() {
        let mut p = Provenance::new();
        p.record(PairId(10), sa(1, 0));
        p.record(PairId(10), sa(2, 1));
        assert_eq!(p.generator_of(PairId(10)), Some(sa(1, 0)));
        assert_eq!(p.generated_count(sa(2, 1)), 0);
    }

    #[test]
    fn ancestor_chain_walks_up() {
        // s1 --a1--> s2 --a2--> s3.
        let mut p = Provenance::new();
        p.record(PairId(2), sa(1, 0));
        p.record(PairId(3), sa(2, 1));
        let chain = p.ancestor_chain(PairId(3));
        assert_eq!(chain, vec![sa(2, 1), sa(1, 0)]);
    }

    #[test]
    fn ancestor_chain_handles_cycles() {
        let mut p = Provenance::new();
        p.record(PairId(2), sa(3, 0));
        p.record(PairId(3), sa(2, 0));
        let chain = p.ancestor_chain(PairId(3));
        assert_eq!(chain, vec![sa(2, 0), sa(3, 0)]);

        // A tail leading into a three-cycle: the walk records each
        // state-action once and stops where the chain would repeat.
        let mut p = Provenance::new();
        p.record(PairId(9), sa(4, 1));
        p.record(PairId(4), sa(5, 0));
        p.record(PairId(5), sa(6, 2));
        p.record(PairId(6), sa(4, 0));
        assert_eq!(
            p.ancestor_chain(PairId(9)),
            vec![sa(4, 1), sa(5, 0), sa(6, 2), sa(4, 0)]
        );
        // A link that generated itself.
        p.record(PairId(7), sa(7, 3));
        assert_eq!(p.ancestor_chain(PairId(7)), vec![sa(7, 3)]);
    }

    #[test]
    fn batched_attribution_matches_per_link_records() {
        // Overlapping windows: first writer wins within a batch, across
        // batches, and for a generator whose whole window was taken.
        let windows = [
            (sa(1, 0), vec![10, 11, 12, 13]),
            (sa(2, 1), vec![12, 14, 10, 15]),
            (sa(1, 0), vec![16, 11]),
            (sa(3, 0), vec![10, 11]),
            (sa(2, 1), vec![]),
        ];
        let mut single = Provenance::new();
        let mut batched = Provenance::new();
        for (generator, links) in &windows {
            let expected: Vec<(PairId, bool)> = links
                .iter()
                .map(|&l| (PairId(l), single.record(PairId(l), *generator)))
                .collect();
            let added: Vec<PairId> = links.iter().map(|&l| PairId(l)).collect();
            let entries: Vec<(usize, PairId)> = added.iter().copied().enumerate().collect();
            let attributed = batched.record_all(*generator, &entries);
            let flagged: Vec<(PairId, bool)> = added
                .iter()
                .enumerate()
                .map(|(i, &l)| (l, attributed.contains(i)))
                .collect();
            assert_eq!(flagged, expected, "window of {generator:?}");
        }
        let lists = |p: &Provenance| {
            let mut lists: Vec<_> = p.iter_generated().map(|(g, ls)| (g, ls.to_vec())).collect();
            lists.sort();
            lists
        };
        assert_eq!(lists(&batched), lists(&single));
        assert_eq!(
            lists(&batched)[0],
            (sa(1, 0), [10, 11, 12, 13, 16].map(PairId).to_vec())
        );
        assert_eq!(batched.generated_count(sa(3, 0)), 0, "no empty list");
        for l in 0..20 {
            assert_eq!(
                batched.generator_of(PairId(l)),
                single.generator_of(PairId(l))
            );
        }
    }

    #[test]
    fn negative_tallies_accumulate() {
        let mut p = Provenance::new();
        p.record(PairId(10), sa(1, 0));
        p.record(PairId(11), sa(1, 0));
        assert_eq!(p.record_negative(PairId(10)), Some((sa(1, 0), 1)));
        assert_eq!(p.record_negative(PairId(11)), Some((sa(1, 0), 2)));
        assert_eq!(p.negatives(sa(1, 0)), 2);
        assert_eq!(p.record_negative(PairId(99)), None);
    }

    #[test]
    fn take_generated_clears_everything() {
        let mut p = Provenance::new();
        p.record(PairId(10), sa(1, 0));
        p.record(PairId(11), sa(1, 0));
        p.record_negative(PairId(10));
        let links = p.take_generated(sa(1, 0));
        assert_eq!(links.len(), 2);
        assert_eq!(p.generator_of(PairId(10)), None);
        assert_eq!(p.negatives(sa(1, 0)), 0);
        assert_eq!(p.generated_count(sa(1, 0)), 0);
        // Rediscovery re-attributes.
        p.record(PairId(10), sa(5, 2));
        assert_eq!(p.generator_of(PairId(10)), Some(sa(5, 2)));
    }

    #[test]
    fn vote_tallies_saturate_at_u32_max() {
        let mut p = Provenance::new();
        p.record(PairId(10), sa(1, 0));
        p.restore_votes(sa(1, 0), u32::MAX, 3);
        // A further negative must not wrap the tally to 0 (which would read
        // as "no net negatives" and disarm rollback).
        assert_eq!(
            p.record_negative(PairId(10)),
            Some((sa(1, 0), u32::MAX - 3))
        );
        p.restore_votes(sa(1, 0), 2, u32::MAX);
        p.record_positive(PairId(10));
        assert_eq!(p.votes_of(sa(1, 0)), Some((2, u32::MAX)));
        assert_eq!(p.negatives(sa(1, 0)), 0);
    }

    #[test]
    fn retract_votes_restores_the_never_voted_map() {
        let mut p = Provenance::new();
        p.record(PairId(10), sa(1, 0));
        p.record_negative(PairId(10));
        p.record_positive(PairId(10));
        assert_eq!(p.votes_of(sa(1, 0)), Some((1, 1)));
        p.retract_vote_positive(sa(1, 0));
        assert_eq!(p.votes_of(sa(1, 0)), Some((1, 0)));
        p.retract_vote_negative(sa(1, 0));
        // Entry fully retracted — not a lingering (0, 0).
        assert_eq!(p.votes_of(sa(1, 0)), None);
        // Retracting with no entry is inert.
        p.retract_vote_negative(sa(1, 0));
        assert_eq!(p.votes_of(sa(1, 0)), None);
    }

    /// Per-link retraction: the reference [`Provenance::retract_all`] must
    /// match, one `retain` over the generator's list per link.
    fn retract_one(p: &mut Provenance, link: PairId, generator: StateAction) {
        if p.generated_by.get(link) != Some(&generator) {
            return;
        }
        p.generated_by.remove(link);
        if let Some(links) = p.generated.get_mut(&generator) {
            links.retain(|&l| l != link);
            if links.is_empty() {
                p.generated.remove(&generator);
            }
        }
    }

    #[test]
    fn one_pass_retraction_equals_per_link_retraction() {
        // A random log of attributions, rollbacks and restores over a few
        // generators, then a random batch of retractions (repeats, links of
        // other generators and unattributed links included).
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for round in 0..200 {
            let mut p = Provenance::new();
            for _ in 0..next(40) {
                let generator = sa(next(4) as u32, next(2) as u32);
                match next(5) {
                    0 => {
                        p.take_generated(generator);
                    }
                    1 => {
                        let links = p.take_generated(generator);
                        p.restore_generated(generator, links);
                    }
                    _ => {
                        let entries: Vec<(usize, PairId)> = (0..next(12))
                            .map(|i| (i as usize, PairId(next(60) as u32)))
                            .collect();
                        p.record_all(generator, &entries);
                    }
                }
            }
            let generator = sa(next(4) as u32, next(2) as u32);
            let retract: Vec<PairId> = (0..next(30)).map(|_| PairId(next(60) as u32)).collect();
            let mut single = p.clone();
            for &link in &retract {
                retract_one(&mut single, link, generator);
            }
            let mut batched = p.clone();
            batched.retract_all(generator, retract.iter().copied());
            let lists = |p: &Provenance| {
                let mut lists: Vec<_> =
                    p.iter_generated().map(|(g, ls)| (g, ls.to_vec())).collect();
                lists.sort();
                lists
            };
            assert_eq!(lists(&batched), lists(&single), "round {round}");
            for l in 0..60 {
                assert_eq!(
                    batched.generator_of(PairId(l)),
                    single.generator_of(PairId(l)),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn retraction_is_exact_and_ownership_checked() {
        let mut p = Provenance::new();
        assert!(p.record(PairId(10), sa(1, 0)));
        assert!(p.record(PairId(11), sa(1, 0)));
        assert!(!p.record(PairId(10), sa(2, 0)), "first writer wins");
        // Wrong generator: refuses (the link is not ours to retract).
        p.retract_all(sa(2, 0), [PairId(10)]);
        assert_eq!(p.generator_of(PairId(10)), Some(sa(1, 0)));
        p.retract_all(sa(1, 0), [PairId(10)]);
        assert_eq!(p.generator_of(PairId(10)), None);
        assert_eq!(p.generated_count(sa(1, 0)), 1);
        p.retract_all(sa(1, 0), [PairId(11)]);
        // Last link gone: the generator entry disappears entirely.
        assert_eq!(p.iter_generated().count(), 0);
    }
}
