//! The candidate link set: the mutable set of links ALEX maintains.
//!
//! Supports O(1) insert, O(1) remove, O(1) uniform random sampling (the
//! feedback generator picks "a link out of the set of candidate links" at
//! random, §7.1), and snapshotting for convergence checks.
//!
//! Candidates live in a vector whose order is part of the learning state:
//! sampling draws an index into it and removal swap-removes, so the order
//! is deterministic and persisted as is. Each pair id's index in that
//! vector sits in a dense slot indexed by the id.

use rand::prelude::*;

use crate::space::PairId;

/// `positions` slot of an id that is not a candidate.
const ABSENT: u32 = u32::MAX;

/// A set of candidate links with O(1) random sampling.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    items: Vec<PairId>,
    /// Index into `items` per pair id, [`ABSENT`] when not a candidate.
    /// Grows on insert.
    positions: Vec<u32>,
}

impl CandidateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator (duplicates collapse).
    #[allow(clippy::should_implement_trait)] // inherent for call-site clarity
    pub fn from_iter(iter: impl IntoIterator<Item = PairId>) -> Self {
        let mut s = Self::new();
        for id in iter {
            s.insert(id);
        }
        s
    }

    /// Insert a link. Returns `true` if new.
    pub fn insert(&mut self, id: PairId) -> bool {
        let i = id.0 as usize;
        if i >= self.positions.len() {
            self.positions.resize(i + 1, ABSENT);
        } else if self.positions[i] != ABSENT {
            return false;
        }
        self.positions[i] = self.items.len() as u32;
        self.items.push(id);
        true
    }

    /// Remove a link (swap-remove). Returns `true` if present.
    pub fn remove(&mut self, id: PairId) -> bool {
        let Some(slot) = self.positions.get_mut(id.0 as usize) else {
            return false;
        };
        if *slot == ABSENT {
            return false;
        }
        let pos = std::mem::replace(slot, ABSENT) as usize;
        self.items.swap_remove(pos);
        if let Some(&moved) = self.items.get(pos) {
            self.positions[moved.0 as usize] = pos as u32;
        }
        true
    }

    /// Whether the link is a candidate.
    pub fn contains(&self, id: PairId) -> bool {
        self.positions
            .get(id.0 as usize)
            .is_some_and(|&p| p != ABSENT)
    }

    /// Number of candidate links.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// A uniformly random candidate.
    pub fn sample(&self, rng: &mut impl Rng) -> Option<PairId> {
        self.items.choose(rng).copied()
    }

    /// Iterate over the candidates in set order: insertion order, as
    /// reshuffled by swap-remove.
    pub fn iter(&self) -> impl Iterator<Item = PairId> + '_ {
        self.items.iter().copied()
    }

    /// Snapshot as a sorted list (for convergence comparison).
    pub fn snapshot(&self) -> Vec<PairId> {
        let mut ids = self.items.clone();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn insert_remove_contains() {
        let mut s = CandidateSet::new();
        assert!(s.insert(PairId(1)));
        assert!(!s.insert(PairId(1)));
        assert!(s.contains(PairId(1)));
        assert!(s.remove(PairId(1)));
        assert!(!s.remove(PairId(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut s = CandidateSet::from_iter((0..100).map(PairId));
        for i in (0..100).step_by(2) {
            assert!(s.remove(PairId(i)));
        }
        assert_eq!(s.len(), 50);
        for i in 0..100 {
            assert_eq!(s.contains(PairId(i)), i % 2 == 1, "id {i}");
        }
        // Removing the remaining ones still works.
        for i in (1..100).step_by(2) {
            assert!(s.remove(PairId(i)));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sample_is_uniformish() {
        let mut s = CandidateSet::new();
        for i in 0..10 {
            s.insert(PairId(i));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[s.sample(&mut rng).unwrap().0 as usize] += 1;
        }
        for &c in &counts {
            assert!((700..=1300).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn sample_empty_is_none() {
        let s = CandidateSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.sample(&mut rng), None);
    }

    #[test]
    fn snapshot_matches_contents() {
        let s = CandidateSet::from_iter([PairId(9), PairId(1), PairId(5)]);
        assert_eq!(s.snapshot(), vec![PairId(1), PairId(5), PairId(9)]);
    }
}
