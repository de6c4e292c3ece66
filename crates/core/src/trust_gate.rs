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
use crate::space::{LinkSpace, PairId, Window};

/// A set of positions, one bit per position: a flag per entry of a list,
/// or a sublist that is always an in-order subsequence of the list it
/// masks. The words end at the highest set position, so equal sets compare
/// equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
}

impl BitMask {
    /// The mask with `words` as its bit words (bit `i % 64` of word
    /// `i / 64` is position `i`), or `None` unless the last word is
    /// non-zero, the one layout [`BitMask::insert`] builds.
    pub fn from_words(words: Vec<u64>) -> Option<BitMask> {
        match words.last() {
            Some(0) => None,
            _ => Some(BitMask { words }),
        }
    }

    /// The bit words ([`BitMask::from_words`]).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of positions in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no position is set.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// One past the highest set position (0 for the empty set).
    pub fn end(&self) -> usize {
        self.words
            .last()
            .map_or(0, |w| self.words.len() * 64 - w.leading_zeros() as usize)
    }

    /// Whether position `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Whether every position of `self` is set in `other`.
    pub fn is_subset(&self, other: &BitMask) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Set position `i`. Exploration calls this once per added link.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// The set positions, ascending.
    pub fn positions(&self) -> impl DoubleEndedIterator<Item = usize> + '_ {
        (0..self.end()).filter(|&i| self.contains(i))
    }

    /// The entries of `items` at the set positions, in list order.
    pub fn select<'a, T: Copy>(
        &'a self,
        items: &'a [T],
    ) -> impl DoubleEndedIterator<Item = T> + 'a {
        self.positions().filter_map(|i| items.get(i).copied())
    }
}

/// A footprint: an in-order list of links that all lie in one [`Window`]
/// of a feature's score index, stored as the window and one bit mask per
/// segment over the window's positions. The list is each segment's links
/// in window order, segment after segment. An exploration adds one
/// segment of its window (§4.2); the links a generator attributed, which
/// a rollback clears (§6.3), are its admissions' segments of the
/// generator's window, in attribution order.
///
/// Decoding reads the window's pairs from the [`LinkSpace`], so the
/// window must name the same pairs when decoded as when recorded. It
/// does: the space an agent explores does not change after
/// [`LinkSpace::admit`], which runs while the agent is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowList {
    /// The window every link lies in.
    pub window: Window,
    /// The segments, none of them empty.
    pub segments: Vec<BitMask>,
}

impl Default for WindowList {
    fn default() -> Self {
        WindowList::new(Window::EMPTY)
    }
}

impl WindowList {
    /// The empty list over `window`.
    pub fn new(window: Window) -> Self {
        WindowList {
            window,
            segments: Vec::new(),
        }
    }

    /// Append the links at the positions of `mask` as one segment (none
    /// when `mask` is empty).
    pub fn push(&mut self, mask: BitMask) {
        if !mask.is_empty() {
            self.segments.push(mask);
        }
    }

    /// Number of links in the list.
    pub fn len(&self) -> usize {
        self.segments.iter().map(BitMask::len).sum()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The list as `(window position, link)` entries, in list order,
    /// decoded against `space`.
    pub fn entries<'a>(
        &'a self,
        space: &'a LinkSpace,
    ) -> impl DoubleEndedIterator<Item = (usize, PairId)> + 'a {
        let slice = space.window_slice(self.window);
        self.segments.iter().flat_map(move |mask| {
            mask.positions()
                .filter_map(move |i| slice.get(i).map(|&(_, id)| (i, id)))
        })
    }

    /// The links in list order, decoded against `space`.
    pub fn links<'a>(
        &'a self,
        space: &'a LinkSpace,
    ) -> impl DoubleEndedIterator<Item = PairId> + 'a {
        self.entries(space).map(|(_, id)| id)
    }

    /// Encode `links`, every one of which lies in `window` of `space`:
    /// each maximal run of strictly ascending window positions becomes one
    /// segment, so [`WindowList::links`] gives back exactly `links`.
    /// `None` when a link is not in the window.
    pub fn of_links(space: &LinkSpace, window: Window, links: &[PairId]) -> Option<WindowList> {
        // Window position by pair id; a dense table costs one fill of the
        // space's length and no hashing.
        let mut positions = vec![u32::MAX; space.len()];
        for (i, &(_, id)) in space.window_slice(window).iter().enumerate() {
            positions[id.0 as usize] = i as u32;
        }
        let mut list = WindowList::new(window);
        let mut segment = BitMask::default();
        for link in links {
            let at = *positions
                .get(link.0 as usize)
                .filter(|&&at| at != u32::MAX)? as usize;
            if at < segment.end() {
                list.push(std::mem::take(&mut segment));
            }
            segment.insert(at);
        }
        list.push(segment);
        Some(list)
    }

    /// Whether the window does not end before it starts and every segment
    /// is non-empty and lies inside it: the lists [`WindowList::push`] and
    /// [`WindowList::of_links`] build.
    pub(crate) fn is_well_formed(&self) -> bool {
        let fits = |m: &BitMask| !m.is_empty() && m.end() <= self.window.len();
        self.window.start <= self.window.end && self.segments.iter().all(fits)
    }
}

/// Exact undo data for one fired provenance rollback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackUndo {
    /// The generator whose attributions were cleared.
    pub generator: (PairId, FeatureId),
    /// The full attribution list the rollback cleared, in attribution
    /// order, over the generator's exploration window.
    pub links: WindowList,
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
    /// Positive admissions: links added by exploration, in insertion order
    /// (one segment of the exploration window).
    pub added: WindowList,
    /// Positive admissions: the window positions of the links in `added`
    /// whose provenance attribution this admission created.
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
            added: WindowList::default(),
            attributed: BitMask::default(),
            removed_candidate: false,
            was_approved: false,
            blacklist_added: false,
            rollback: None,
            revoked: false,
        }
    }

    /// Check the record against the space it will be decoded over: every
    /// link id it names is a pair of `space`, and every footprint window
    /// and mask lies inside the space's score indexes.
    pub(crate) fn check(&self, space: &LinkSpace) -> Result<(), String> {
        let rollback = self.rollback.as_ref();
        let ids = std::iter::once(self.state)
            .chain(self.credited.iter().map(|&(s, _)| s))
            .chain(self.prov_target.map(|(s, _)| s))
            .chain(rollback.map(|rb| rb.generator.0));
        for id in ids {
            if id.0 as usize >= space.len() {
                return Err(format!(
                    "persisted pair id {} is outside the rebuilt space ({} pairs); \
                     the state dir does not belong to this run",
                    id.0,
                    space.len()
                ));
            }
        }
        let lists = std::iter::once(&self.added).chain(rollback.map(|rb| &rb.links));
        for list in lists {
            let in_space = space.window_slice(list.window).len() == list.window.len();
            if !list.is_well_formed() || !in_space {
                return Err(format!(
                    "persisted footprint window {:?} is outside the rebuilt space; \
                     the state dir does not belong to this run",
                    list.window
                ));
            }
        }
        Ok(())
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
        let mut links = WindowList::new(Window {
            feature: FeatureId(1),
            start: 2,
            end: 70,
        });
        links.push(BitMask::from_words(vec![0b1001]).unwrap());
        rec.rollback = Some(RollbackUndo {
            generator: (PairId(0), FeatureId(1)),
            links,
            votes: (3, 0),
            removed: BitMask::from_words(vec![0b10]).unwrap(),
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
    fn bit_mask_positions_and_selection() {
        let set = [0usize, 3, 63, 64, 130, 200];
        let mut mask = BitMask::default();
        for &i in set.iter().rev() {
            mask.insert(i);
        }
        assert_eq!(mask.len(), set.len());
        assert_eq!(mask.end(), 201);
        assert_eq!(mask.positions().collect::<Vec<_>>(), set);
        assert_eq!(
            mask.positions().rev().collect::<Vec<_>>(),
            set.iter().rev().copied().collect::<Vec<_>>()
        );
        let items: Vec<usize> = (0..150).map(|i| i * 10).collect();
        assert_eq!(
            mask.select(&items).collect::<Vec<_>>(),
            vec![0, 30, 630, 640, 1300],
            "positions past the list select nothing"
        );
        assert!(mask.contains(200) && !mask.contains(199) && !mask.contains(10_000));
        assert_eq!(
            BitMask::from_words(mask.words().to_vec()),
            Some(mask.clone())
        );
        assert_eq!(BitMask::from_words(vec![1, 0]), None);
        assert_eq!(BitMask::from_words(Vec::new()), Some(BitMask::default()));
        assert!(BitMask::default().is_empty() && BitMask::default().end() == 0);
        let mut sub = BitMask::default();
        sub.insert(64);
        sub.insert(3);
        assert!(sub.is_subset(&mask) && !mask.is_subset(&sub));
        sub.insert(65);
        assert!(!sub.is_subset(&mask));
    }

    #[test]
    fn window_lists_decode_to_the_links_they_encode() {
        let (left, right) = crate::fixtures::animals(12);
        let space = LinkSpace::build(&left, &right, &crate::SpaceConfig::default());
        let (feature, _) = space.catalog().iter().next().unwrap();
        let window = space.window(feature, 1.0, 1.0);
        let slice: Vec<PairId> = space
            .window_slice(window)
            .iter()
            .map(|&(_, id)| id)
            .collect();
        assert!(slice.len() > 3, "a wide window");
        let n = slice.len();
        // Two segments, the second restarting below the first's end, and
        // a repeated link.
        let links = vec![slice[1], slice[n - 1], slice[0], slice[2], slice[2]];
        let list = WindowList::of_links(&space, window, &links).unwrap();
        assert_eq!(list.segments.len(), 3);
        assert_eq!(list.len(), links.len());
        assert_eq!(list.links(&space).collect::<Vec<_>>(), links);
        assert_eq!(
            list.links(&space).rev().collect::<Vec<_>>(),
            links.iter().rev().copied().collect::<Vec<_>>()
        );
        assert_eq!(list.entries(&space).next(), Some((1, slice[1])));
        let empty = WindowList::of_links(&space, window, &[]).unwrap();
        assert!(empty.is_empty() && empty.segments.is_empty());
        // A link outside the window has no encoding.
        let narrow = Window {
            end: window.start + 1,
            ..window
        };
        assert_eq!(WindowList::of_links(&space, narrow, &[slice[1]]), None);
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
