//! Dense containers keyed by [`PairId`].
//!
//! A pair id is already a dense index into its link space, so the agent's
//! per-link learning state (approvals, blacklist votes, provenance
//! attribution, greedy actions, per-episode visit sets) keeps one `Vec`
//! slot per id instead of hashing the id. Both containers grow on insert,
//! up to the largest id seen, so they need not be told the size of the
//! space, which is fixed once its agent is built ([`crate::LinkSpace::admit`]
//! is its last change). Iteration runs in ascending id order.

use crate::space::PairId;

/// A map from [`PairId`] to `T`, one slot per id up to the largest key
/// ever inserted.
#[derive(Debug, Clone)]
pub struct PairMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for PairMap<T> {
    fn default() -> Self {
        PairMap { slots: Vec::new() }
    }
}

impl<T> PairMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored for `id`.
    pub fn get(&self, id: PairId) -> Option<&T> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// The value stored for `id`, mutably.
    pub fn get_mut(&mut self, id: PairId) -> Option<&mut T> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    /// Whether `id` has a value.
    pub fn contains_key(&self, id: PairId) -> bool {
        self.get(id).is_some()
    }

    /// The slot index of `id`, growing the map to hold it.
    fn grow_to(&mut self, id: PairId) -> usize {
        let i = id.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        i
    }

    /// Store `value` for `id`; returns the value it replaced.
    pub fn insert(&mut self, id: PairId, value: T) -> Option<T> {
        let i = self.grow_to(id);
        self.slots[i].replace(value)
    }

    /// The value for `id`, inserting `value` first when there is none.
    pub fn get_or_insert(&mut self, id: PairId, value: T) -> &mut T {
        let i = self.grow_to(id);
        self.slots[i].get_or_insert(value)
    }

    /// Remove and return the value for `id`.
    pub fn remove(&mut self, id: PairId) -> Option<T> {
        self.slots.get_mut(id.0 as usize)?.take()
    }

    /// `(id, value)` entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (PairId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((PairId(i as u32), v.as_ref()?)))
    }

    /// The stored values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().flatten()
    }

    /// Remove every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }
}

/// A set of [`PairId`]s: a [`PairMap`] without values.
#[derive(Debug, Clone, Default)]
pub struct PairSet(PairMap<()>);

impl PairSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `id`. Returns `true` if it was not present.
    pub fn insert(&mut self, id: PairId) -> bool {
        self.0.insert(id, ()).is_none()
    }

    /// Remove `id`. Returns `true` if it was present.
    pub fn remove(&mut self, id: PairId) -> bool {
        self.0.remove(id).is_some()
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: PairId) -> bool {
        self.0.contains_key(id)
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PairId> + '_ {
        self.0.iter().map(|(id, _)| id)
    }

    /// Remove every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn map_grows_on_insert_and_counts_entries() {
        let mut m = PairMap::new();
        assert_eq!(m.get(PairId(7)), None, "reads past the end are absent");
        assert_eq!(m.remove(PairId(7)), None);
        assert_eq!(m.insert(PairId(7), 'a'), None);
        assert_eq!(m.insert(PairId(2), 'b'), None);
        assert_eq!(m.insert(PairId(7), 'c'), Some('a'));
        assert_eq!(m.iter().count(), 2);
        *m.get_or_insert(PairId(2), 'z') = 'd';
        *m.get_or_insert(PairId(9), 'e') = 'f';
        assert_eq!(m.iter().count(), 3);
        let entries: Vec<_> = m.iter().map(|(id, &v)| (id.0, v)).collect();
        assert_eq!(entries, vec![(2, 'd'), (7, 'c'), (9, 'f')]);
        assert_eq!(m.values().copied().collect::<String>(), "dcf");
        assert_eq!(m.remove(PairId(7)), Some('c'));
        assert!(!m.contains_key(PairId(7)));
        assert_eq!(m.iter().count(), 2);
        m.clear();
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn set_insert_and_remove_report_membership_changes() {
        let mut s = PairSet::new();
        assert!(s.insert(PairId(40)));
        assert!(!s.insert(PairId(40)));
        assert!(s.insert(PairId(3)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![PairId(3), PairId(40)]);
        assert!(s.remove(PairId(40)));
        assert!(!s.remove(PairId(40)));
        assert!(!s.remove(PairId(1000)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![PairId(3)]);
        s.clear();
        assert!(!s.contains(PairId(3)) && s.iter().next().is_none());
    }
}
