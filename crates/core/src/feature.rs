//! Features: pairs of predicates from the two data sets.
//!
//! A feature is "a pair of attributes where the first attribute comes from
//! the first entity and the second comes from the second entity" (§1). The
//! catalog assigns dense [`FeatureId`]s so states, actions, and indexes can
//! refer to features cheaply.

use std::collections::HashMap;

use alex_rdf::Sym;

/// A feature: (left predicate, right predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeaturePair {
    /// Predicate symbol in the left data set's interner.
    pub left: Sym,
    /// Predicate symbol in the right data set's interner.
    pub right: Sym,
}

/// Dense id of a feature in a [`FeatureCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureId(pub u32);

/// A registry of features with dense ids.
#[derive(Debug, Clone, Default)]
pub struct FeatureCatalog {
    lookup: HashMap<FeaturePair, FeatureId>,
    pairs: Vec<FeaturePair>,
}

impl FeatureCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a feature pair.
    pub fn intern(&mut self, pair: FeaturePair) -> FeatureId {
        if let Some(&id) = self.lookup.get(&pair) {
            return id;
        }
        // Feature catalogs are bounded by distinct attribute-pair counts,
        // far below u32::MAX; saturate rather than panic if that ever breaks.
        let id = FeatureId(u32::try_from(self.pairs.len()).unwrap_or(u32::MAX));
        self.pairs.push(pair);
        self.lookup.insert(pair, id);
        id
    }

    /// Look up a feature pair without interning.
    pub fn get(&self, pair: FeaturePair) -> Option<FeatureId> {
        self.lookup.get(&pair).copied()
    }

    /// The pair for an id.
    pub fn pair(&self, id: FeatureId) -> FeaturePair {
        self.pairs[id.0 as usize]
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate `(id, pair)`.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureId, FeaturePair)> + '_ {
        self.pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| (FeatureId(i as u32), p))
    }
}

/// A state's feature set: feature ids with their similarity scores, sorted
/// by feature id. This is the paper's `sf` (§4.1).
pub type FeatureSet = Vec<(FeatureId, f64)>;

/// The score of `feature` within a (sorted) feature set, if present.
pub fn feature_score(set: &[(FeatureId, f64)], feature: FeatureId) -> Option<f64> {
    set.binary_search_by_key(&feature, |&(f, _)| f)
        .ok()
        .map(|i| set[i].1)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn pair(l: usize, r: usize) -> FeaturePair {
        FeaturePair {
            left: Sym::from_index(l),
            right: Sym::from_index(r),
        }
    }

    #[test]
    fn intern_is_idempotent() {
        let mut c = FeatureCatalog::new();
        let a = c.intern(pair(0, 0));
        let b = c.intern(pair(0, 0));
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn distinct_pairs_distinct_ids() {
        let mut c = FeatureCatalog::new();
        let a = c.intern(pair(0, 1));
        let b = c.intern(pair(1, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn round_trip() {
        let mut c = FeatureCatalog::new();
        let id = c.intern(pair(3, 7));
        assert_eq!(c.pair(id), pair(3, 7));
        assert_eq!(c.get(pair(3, 7)), Some(id));
        assert_eq!(c.get(pair(7, 3)), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut c = FeatureCatalog::new();
        c.intern(pair(0, 0));
        c.intern(pair(1, 1));
        let ids: Vec<u32> = c.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn feature_score_lookup() {
        let set: FeatureSet = vec![(FeatureId(1), 0.8), (FeatureId(4), 0.5)];
        assert_eq!(feature_score(&set, FeatureId(1)), Some(0.8));
        assert_eq!(feature_score(&set, FeatureId(4)), Some(0.5));
        assert_eq!(feature_score(&set, FeatureId(2)), None);
    }
}
