//! The link space: filtered feature sets for candidate entity pairs, with
//! per-feature score indexes for exploration queries.
//!
//! "ALEX explores links in a space of feature sets. This space is populated
//! in a pre-processing step, with a feature set for every pair of entities
//! in the two data sets" (§3.2), filtered by θ (§6.1). Enumerating every
//! pair is quadratic, so — like every linking system at LOD scale — we
//! enumerate candidates by token blocking and keep exactly the pairs whose
//! feature set survives the θ filter. The arithmetic total (for the paper's
//! Fig. 5 comparison) is exposed as [`LinkSpace::total_possible`].
//!
//! Similarities come from a θ-sparse [`ValueScores`] table: each distinct
//! `(left value, right value)` pair the kept candidates meet is scored
//! once, and only scores `>= θ` are stored, since §4.1 discards the rest.
//! [`LinkSpace::partitions`] builds the `n` partitions of a batch run from
//! one such table. [`LinkSpace::admit`], the last step of building the
//! space an agent explores, adds the initial links blocking missed and
//! scores them directly; after it the space does not change.
//!
//! The exploration primitive (§4.2) — "find all links whose value for
//! feature `f` lies in `[v − step, v + step]`" — is served by per-feature
//! arrays sorted by score (binary search, output-linear).

use std::borrow::Cow;
use std::sync::Arc;

use alex_linking::scores::ValueScores;
use alex_linking::values::SideValues;
use alex_linking::{candidate_pairs, BlockingConfig};
use alex_parallel::Pool;
use alex_rdf::{Dataset, EntityIndex, Term};
use alex_sim::{prepared_similarity, TokenInterner};
use alex_telemetry::{counter, span};

use crate::feature::{FeatureCatalog, FeatureId, FeaturePair};
use crate::simmatrix::{feature_set, intern_feature_set, raw_feature_set};

/// Dense id of an entity pair in the link space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairId(pub u32);

/// A contiguous slice of one feature's score index: positions
/// `start..end` of the pairs sorted by their score for `feature`. An
/// exploration's window (§4.2) is one such slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// The feature whose index the window slices.
    pub feature: FeatureId,
    /// First position in the window.
    pub start: u32,
    /// One past the last position in the window.
    pub end: u32,
}

impl Window {
    /// The empty window at the start of feature 0's index.
    pub const EMPTY: Window = Window {
        feature: FeatureId(0),
        start: 0,
        end: 0,
    };

    /// Number of positions in the window.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start) as usize
    }

    /// Whether the window has no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Configuration for building a link space.
#[derive(Debug, Clone)]
pub struct SpaceConfig {
    /// θ — similarity entries below this are discarded (§6.1).
    pub theta: f64,
    /// Blocking configuration for candidate enumeration.
    pub blocking: BlockingConfig,
    /// Equal-size partition restriction (§6.2): `Some((i, n))` keeps only
    /// left entities with `id % n == i`. Ids remain global, so partitions
    /// agree on entity identity.
    pub partition: Option<(usize, usize)>,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            theta: 0.3,
            blocking: BlockingConfig::default(),
            partition: None,
        }
    }
}

/// Everything a link-space build reads that does not depend on θ or the
/// partition: both entity indexes, both sides' interned attribute values
/// (built against one shared [`TokenInterner`]), and the blocked candidate
/// pairs. Build it once and derive any number of spaces from it with
/// [`LinkSpace::from_prepared`] or [`LinkSpace::partitions`]; the spaces
/// share the indexes and values.
#[derive(Debug)]
pub struct PreparedSides {
    left_index: Arc<EntityIndex>,
    right_index: Arc<EntityIndex>,
    left_values: Arc<SideValues>,
    right_values: Arc<SideValues>,
    /// The blocking that produced `candidates`.
    blocking: BlockingConfig,
    candidates: Vec<(u32, u32)>,
}

impl PreparedSides {
    /// Index, prepare and block a pair of data sets.
    pub fn new(left: &Dataset, right: &Dataset, blocking: &BlockingConfig) -> PreparedSides {
        let left_index = left.entity_index();
        let right_index = right.entity_index();
        // One interner spans both sides: the interned-Jaccard kernel
        // compares token ids across data sets, so both must intern into
        // the same id space.
        let mut interner = TokenInterner::new();
        let (left_values, right_values) = {
            let _s = span("prepare_values");
            (
                SideValues::build(left, &left_index, &mut interner),
                SideValues::build(right, &right_index, &mut interner),
            )
        };
        let candidates = {
            let _s = span("block");
            candidate_pairs(left, &left_index, right, &right_index, blocking)
        };
        PreparedSides {
            left_index: Arc::new(left_index),
            right_index: Arc::new(right_index),
            left_values: Arc::new(left_values),
            right_values: Arc::new(right_values),
            blocking: *blocking,
            candidates,
        }
    }

    /// Assert that `cfg` can build from these sides: θ in `[0, 1]`, and
    /// the blocking the candidates came from.
    fn check(&self, cfg: &SpaceConfig) {
        assert!((0.0..=1.0).contains(&cfg.theta), "theta must be in [0, 1]");
        assert_eq!(
            cfg.blocking, self.blocking,
            "space config blocking differs from the prepared sides' blocking"
        );
    }

    /// The candidates of each of `n` partitions, in candidate order:
    /// partition `i` keeps the left entities with `id % n == i`.
    fn partition_candidates(&self, n: usize) -> Vec<Vec<(u32, u32)>> {
        assert!(n > 0, "at least one partition");
        let mut parts = vec![Vec::new(); n];
        for &(l, r) in &self.candidates {
            parts[l as usize % n].push((l, r));
        }
        parts
    }
}

/// The pool every link-space build runs on.
fn space_pool() -> Pool {
    Pool::new("space_build")
}

/// The θ-sparse score table of `candidates`' value pairs, on the
/// `space_build` pool, with its work counted in the `space_*` counters.
fn score_values(sides: &PreparedSides, candidates: &[(u32, u32)], theta: f64) -> ValueScores {
    let scores = ValueScores::build(
        &sides.left_values,
        &sides.right_values,
        candidates,
        theta,
        &space_pool(),
    );
    counter!("space_value_pairs_scored_total").add(scores.scored());
    counter!("space_value_pairs_kept_total").add(scores.kept() as u64);
    counter!("space_value_pairs_pruned_total").add(scores.pruned());
    counter!("space_token_pairs_scored_total").add(scores.token_pairs_scored());
    scores
}

/// `len` as a CSR offset into the feature entries, which are counted in
/// `u32` like `PairId`s.
fn offset(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(offset) => offset,
        Err(_) => panic!("link space holds more than u32::MAX feature entries"),
    }
}

/// One score index per feature of the CSR feature sets `starts`/`entries`:
/// `(score, pair)` in score order, ties by pair. Each list is sized once
/// from a counting pass.
fn score_indexes(
    features: usize,
    starts: &[u32],
    entries: &[(FeatureId, f64)],
) -> Vec<Vec<(f64, PairId)>> {
    let mut counts = vec![0usize; features];
    for &(f, _) in entries {
        counts[f.0 as usize] += 1;
    }
    let mut by_feature: Vec<Vec<(f64, PairId)>> =
        counts.into_iter().map(Vec::with_capacity).collect();
    for (i, w) in starts.windows(2).enumerate() {
        for &(f, score) in &entries[w[0] as usize..w[1] as usize] {
            by_feature[f.0 as usize].push((score, PairId(i as u32)));
        }
    }
    for list in &mut by_feature {
        // (score, pair) keys are distinct, so the unstable sort is exact.
        list.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    by_feature
}

/// The catalog-free feature sets of a run of consecutive candidates, the
/// per-candidate hot loop of a build (O(pairs × attrs²) score lookups):
/// candidate `i`'s set is the next `lens[i]` entries of `sets`.
struct RawSets {
    lens: Vec<usize>,
    sets: Vec<(FeaturePair, f64)>,
}

impl RawSets {
    /// The feature sets of `candidates`, reading value similarities from
    /// `scores`, which must cover every value pair of them at `theta`.
    fn of(
        sides: &PreparedSides,
        candidates: &[(u32, u32)],
        theta: f64,
        scores: &ValueScores,
    ) -> RawSets {
        let mut run = RawSets {
            lens: Vec::with_capacity(candidates.len()),
            sets: Vec::new(),
        };
        for &(l, r) in candidates {
            let before = run.sets.len();
            raw_feature_set(
                sides.left_values.attrs(l),
                sides.right_values.attrs(r),
                theta,
                |a, b| scores.score(a, b),
                &mut run.sets,
            );
            run.lens.push(run.sets.len() - before);
        }
        run
    }
}

/// The filtered space of candidate links, stored as flat columns: the
/// pairs, one CSR of feature sets, and one score index per dense
/// [`FeatureId`].
#[derive(Debug, Clone)]
pub struct LinkSpace {
    catalog: FeatureCatalog,
    left_index: Arc<EntityIndex>,
    right_index: Arc<EntityIndex>,
    left_values: Arc<SideValues>,
    right_values: Arc<SideValues>,
    /// Every pair by `PairId`: the built pairs, strictly increasing by
    /// `(left, right)`, then the [`LinkSpace::admit`]ted pairs in
    /// admission order.
    pairs: Vec<(u32, u32)>,
    /// Number of built pairs, the sorted prefix of `pairs`.
    built: usize,
    /// The admitted pairs' ids, sorted by pair: the index `id_of` searches
    /// past the sorted prefix.
    admitted: Vec<PairId>,
    /// Pair `i`'s feature set is `set_entries[set_starts[i]..set_starts[i + 1]]`.
    set_starts: Vec<u32>,
    set_entries: Vec<(FeatureId, f64)>,
    /// Score index per feature, indexed by `FeatureId`: every pair carrying
    /// the feature as `(score, pair)`, sorted by score, then pair.
    by_feature: Vec<Vec<(f64, PairId)>>,
    theta: f64,
    blocked_pairs: usize,
}

impl LinkSpace {
    /// Build the space for a pair of data sets.
    pub fn build(left: &Dataset, right: &Dataset, cfg: &SpaceConfig) -> LinkSpace {
        LinkSpace::from_prepared(&PreparedSides::new(left, right, &cfg.blocking), cfg)
    }

    /// Build the space from sides prepared once, keeping the candidates of
    /// `cfg.partition` (all of them when `None`) and the feature sets that
    /// survive `cfg.theta`. Only the kept candidates' value pairs are
    /// scored.
    ///
    /// # Panics
    ///
    /// If `cfg.theta` is outside `[0, 1]`, or `cfg.blocking` differs from
    /// the blocking `sides` was prepared with: the candidates were blocked
    /// then and cannot be re-blocked.
    pub fn from_prepared(sides: &PreparedSides, cfg: &SpaceConfig) -> LinkSpace {
        sides.check(cfg);
        let candidates: Cow<'_, [(u32, u32)]> = match cfg.partition {
            Some((i, n)) => {
                assert!(i < n, "partition index out of range");
                Cow::Owned(sides.partition_candidates(n).swap_remove(i))
            }
            None => Cow::Borrowed(&sides.candidates),
        };
        let scores = score_values(sides, &candidates, cfg.theta);
        let _s = span("assemble");
        let raw = space_pool().map_chunks(&candidates, |chunk| {
            RawSets::of(sides, chunk, cfg.theta, &scores)
        });
        LinkSpace::assemble(sides, &candidates, cfg.theta, &raw)
    }

    /// The `n` equal-size partitions of the space (§6.2): partition `i`
    /// keeps the left entities with `id % n == i`, and equals
    /// [`LinkSpace::from_prepared`] with `partition: Some((i, n))`
    /// (`cfg.partition` is ignored). Every distinct value pair of the
    /// blocked candidates is scored once, into one table the partitions
    /// share.
    ///
    /// # Panics
    ///
    /// If `n` is 0, `cfg.theta` is outside `[0, 1]`, or `cfg.blocking`
    /// differs from the blocking of `sides`.
    pub fn partitions(sides: &PreparedSides, cfg: &SpaceConfig, n: usize) -> Vec<LinkSpace> {
        sides.check(cfg);
        assert!(n > 0, "at least one partition");
        let scores = score_values(sides, &sides.candidates, cfg.theta);
        let _s = span("assemble");
        let parts = sides.partition_candidates(n);
        let pool = space_pool();
        let theta = cfg.theta;
        // Every dispatch starts on this thread. With a partition per
        // thread or more, the partitions assemble side by side, one job
        // each; fewer partitions each spread their candidates over the pool.
        if n >= pool.threads() {
            pool.map_each(&parts, |candidates| {
                let raw = RawSets::of(sides, candidates, theta, &scores);
                LinkSpace::assemble(sides, candidates, theta, &[raw])
            })
        } else {
            parts
                .iter()
                .map(|candidates| {
                    let raw = pool.map_chunks(candidates, |chunk| {
                        RawSets::of(sides, chunk, theta, &scores)
                    });
                    LinkSpace::assemble(sides, candidates, theta, &raw)
                })
                .collect()
        }
    }

    /// The space of `candidates` from their raw feature sets `raw`, one
    /// [`RawSets`] per run of consecutive candidates, in candidate order.
    /// The merge interns the sets in candidate order — the exact intern
    /// sequence of a sequential loop, so feature ids (and everything
    /// downstream) are byte-identical however the runs were cut.
    fn assemble(
        sides: &PreparedSides,
        candidates: &[(u32, u32)],
        theta: f64,
        raw: &[RawSets],
    ) -> LinkSpace {
        debug_assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidates must be strictly increasing"
        );
        let kept = raw
            .iter()
            .map(|run| run.lens.iter().filter(|&&len| len > 0).count())
            .sum();
        let entries = raw.iter().map(|run| run.sets.len()).sum();
        let mut catalog = FeatureCatalog::new();
        let mut pairs = Vec::with_capacity(kept);
        let mut set_starts = Vec::with_capacity(kept + 1);
        let mut set_entries = Vec::with_capacity(entries);
        set_starts.push(0);
        let mut pair = candidates.iter();
        for run in raw {
            let mut at = 0;
            for (&len, &(l, r)) in run.lens.iter().zip(pair.by_ref()) {
                if len == 0 {
                    continue;
                }
                pairs.push((l, r));
                intern_feature_set(&run.sets[at..at + len], &mut catalog, &mut set_entries);
                set_starts.push(offset(set_entries.len()));
                at += len;
            }
        }

        let by_feature = score_indexes(catalog.len(), &set_starts, &set_entries);
        LinkSpace {
            catalog,
            left_index: Arc::clone(&sides.left_index),
            right_index: Arc::clone(&sides.right_index),
            left_values: Arc::clone(&sides.left_values),
            right_values: Arc::clone(&sides.right_values),
            built: pairs.len(),
            pairs,
            admitted: Vec::new(),
            set_starts,
            set_entries,
            by_feature,
            theta,
            blocked_pairs: candidates.len(),
        }
    }

    /// Number of pairs in the filtered space.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The arithmetic number of possible pairs (before any filtering) —
    /// `|left entities| × |right entities|` of the whole data sets, in a
    /// partition's space too — the paper's "TotalLinks" bar in Fig. 5(a).
    pub fn total_possible(&self) -> u64 {
        self.left_index.len() as u64 * self.right_index.len() as u64
    }

    /// Number of candidate pairs enumerated by blocking, before the θ filter.
    pub fn blocked_pairs(&self) -> usize {
        self.blocked_pairs
    }

    /// θ used when building this space.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The feature catalog.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.catalog
    }

    /// The left entity index.
    pub fn left_index(&self) -> &EntityIndex {
        &self.left_index
    }

    /// The right entity index.
    pub fn right_index(&self) -> &EntityIndex {
        &self.right_index
    }

    /// Entity ids of a pair.
    pub fn pair(&self, id: PairId) -> (u32, u32) {
        self.pairs[id.0 as usize]
    }

    /// Entity terms of a pair.
    pub fn pair_terms(&self, id: PairId) -> (Term, Term) {
        let (l, r) = self.pair(id);
        (self.left_index.term(l), self.right_index.term(r))
    }

    /// The pair id for `(left, right)` entity ids, if in the space.
    pub fn id_of(&self, left: u32, right: u32) -> Option<PairId> {
        match self.pairs[..self.built].binary_search(&(left, right)) {
            Ok(i) => Some(PairId(i as u32)),
            Err(_) => self
                .admitted
                .binary_search_by_key(&(left, right), |&id| self.pair(id))
                .ok()
                .map(|at| self.admitted[at]),
        }
    }

    /// The state feature set of a pair (§4.1), sorted by feature id.
    pub fn feature_set_of(&self, id: PairId) -> &[(FeatureId, f64)] {
        let i = id.0 as usize;
        &self.set_entries[self.set_starts[i] as usize..self.set_starts[i + 1] as usize]
    }

    /// Iterate over all pair ids.
    pub fn pair_ids(&self) -> impl Iterator<Item = PairId> {
        (0..self.pairs.len() as u32).map(PairId)
    }

    /// The space with `links` in it, and each link's pair id: the last step
    /// of building the space an agent explores, which admits the initial
    /// links blocking missed. A new pair takes the next `PairId`, in link
    /// order, with its feature set scored directly (empty when no feature
    /// reaches θ), new features take the next `FeatureId`s, and the pair
    /// enters each score index before every pair of equal score.
    pub fn admit(mut self, links: &[(u32, u32)]) -> (LinkSpace, Vec<PairId>) {
        let mut ids = Vec::with_capacity(links.len());
        for &(left, right) in links {
            if let Some(id) = self.id_of(left, right) {
                ids.push(id);
                continue;
            }
            let (lv, rv) = (&self.left_values, &self.right_values);
            let sf = feature_set(
                lv.attrs(left),
                rv.attrs(right),
                self.theta,
                |a, b| prepared_similarity(lv.value(a), rv.value(b)),
                &mut self.catalog,
            );
            let id = PairId(self.pairs.len() as u32);
            self.by_feature.resize_with(self.catalog.len(), Vec::new);
            for &(f, score) in &sf {
                let list = &mut self.by_feature[f.0 as usize];
                let pos = list.partition_point(|&(s, _)| s < score);
                list.insert(pos, (score, id));
            }
            self.pairs.push((left, right));
            self.set_entries.extend(sf);
            self.set_starts.push(offset(self.set_entries.len()));
            let at = self
                .admitted
                .partition_point(|&a| self.pair(a) < (left, right));
            self.admitted.insert(at, id);
            ids.push(id);
        }
        (self, ids)
    }

    /// Order-sensitive FNV-1a fingerprint of the built space: the pair list,
    /// the catalog's feature definitions, and θ. Two spaces with the same
    /// fingerprint assign the same `PairId`/`FeatureId` meanings, so a
    /// snapshot taken against one can be restored against the other.
    pub fn fingerprint(&self) -> u64 {
        let pairs = self.pairs.iter().flat_map(|&(l, r)| [l, r].map(u64::from));
        let features = self.catalog.iter().flat_map(|(f, fp)| {
            [
                u64::from(f.0),
                fp.left.index() as u64,
                fp.right.index() as u64,
            ]
        });
        crate::persist::combine_fingerprints(
            std::iter::once(self.pairs.len() as u64)
                .chain(pairs)
                .chain(features)
                .chain([self.theta.to_bits()]),
        )
    }

    /// The exploration query (§4.2): all pairs whose score for `feature`
    /// lies in `[center − step, center + step]`, in index order.
    pub fn explore(&self, feature: FeatureId, center: f64, step: f64) -> Vec<PairId> {
        let window = self.window(feature, center, step);
        self.window_slice(window)
            .iter()
            .map(|&(_, id)| id)
            .collect()
    }

    /// The exploration window (§4.2) of `feature` around `center`: the
    /// positions of the pairs whose score lies in `[center − step, center +
    /// step]` in the feature's score index, which is sorted by score. The
    /// pairs themselves are [`LinkSpace::window_slice`].
    pub fn window(&self, feature: FeatureId, center: f64, step: f64) -> Window {
        let list = self.feature_index(feature);
        let lo = center - step;
        let hi = center + step;
        Window {
            feature,
            start: list.partition_point(|&(s, _)| s < lo) as u32,
            end: list.partition_point(|&(s, _)| s <= hi) as u32,
        }
    }

    /// The `(score, pair)` entries of `window`, in index order; empty when
    /// the window lies outside the feature's index.
    pub fn window_slice(&self, window: Window) -> &[(f64, PairId)] {
        self.feature_index(window.feature)
            .get(window.start as usize..window.end as usize)
            .unwrap_or(&[])
    }

    /// The score index of `feature`: every pair carrying it, sorted by score.
    fn feature_index(&self, feature: FeatureId) -> &[(f64, PairId)] {
        self.by_feature
            .get(feature.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Linear-scan reference implementation of [`LinkSpace::explore`], the
    /// oracle the property tests check it against.
    pub fn explore_scan(&self, feature: FeatureId, center: f64, step: f64) -> Vec<PairId> {
        let lo = center - step;
        let hi = center + step;
        let mut out = Vec::new();
        for id in self.pair_ids() {
            if let Some(score) = crate::feature::feature_score(self.feature_set_of(id), feature) {
                if (lo..=hi).contains(&score) {
                    out.push(id);
                }
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn datasets() -> (Dataset, Dataset) {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for (i, name) in [
            "LeBron James",
            "Michael Jordan",
            "Tim Duncan",
            "Kobe Bryant",
        ]
        .iter()
        .enumerate()
        {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            left.add_str(&format!("http://l/{i}"), "http://l/type", "player");
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
            right.add_str(&format!("http://r/{i}"), "http://r/class", "player");
        }
        (left, right)
    }

    #[test]
    fn build_keeps_pairs_above_theta() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        assert!(!space.is_empty());
        // Every matched pair carries at least the name feature.
        for id in space.pair_ids() {
            assert!(!space.feature_set_of(id).is_empty());
        }
    }

    #[test]
    fn total_possible_is_arithmetic() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        assert_eq!(space.total_possible(), 16);
        assert!(space.len() as u64 <= space.total_possible());
    }

    #[test]
    fn pair_round_trips() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        for id in space.pair_ids() {
            let (l, r) = space.pair(id);
            assert_eq!(space.id_of(l, r), Some(id));
            let (lt, rt) = space.pair_terms(id);
            assert_eq!(space.left_index().id(lt), Some(l));
            assert_eq!(space.right_index().id(rt), Some(r));
        }
    }

    #[test]
    fn explore_matches_scan_reference() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        for (f, _) in space.catalog().iter() {
            for center in [0.3, 0.5, 0.8, 1.0] {
                let mut a = space.explore(f, center, 0.1);
                let mut b = space.explore_scan(f, center, 0.1);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "feature {f:?} center {center}");
            }
        }
    }

    #[test]
    fn explore_around_one_finds_exact_matches() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        // The (label, name) feature at score 1.0 ± 0.05 finds the 4 exact
        // name matches.
        let label = left.interner().get("http://l/label").unwrap();
        let name = right.interner().get("http://r/name").unwrap();
        let f = space
            .catalog()
            .get(crate::feature::FeaturePair {
                left: label,
                right: name,
            })
            .unwrap();
        let found = space.explore(f, 1.0, 0.05);
        assert!(found.len() >= 4);
        let exact: Vec<_> = found
            .iter()
            .filter(|&&id| {
                let (l, r) = space.pair(id);
                l == r
            })
            .collect();
        assert_eq!(exact.len(), 4);
    }

    #[test]
    fn admit_adds_new_pairs_once() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let before = space.len();
        // (0, 1) = LeBron vs Jordan: same type, different names; blocking
        // may or may not have admitted it. Admit it twice, and verify.
        let (space, ids) = space.admit(&[(0, 1), (0, 1)]);
        assert_eq!(space.id_of(0, 1), Some(ids[0]));
        assert_eq!(ids[1], ids[0]);
        assert!(space.len() >= before && space.len() <= before + 1);
    }

    #[test]
    fn admit_updates_feature_index() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let (space, ids) = space.admit(&[(0, 1)]);
        for &(f, score) in space.feature_set_of(ids[0]) {
            let found = space.explore(f, score, 0.001);
            assert!(found.contains(&ids[0]), "feature index missing new pair");
        }
    }

    /// Initial links outside the blocked candidates, with feature scores
    /// that tie with built pairs. The expected ids, feature ids and
    /// score-index order are what the per-pair admission that preceded
    /// [`LinkSpace::admit`] produced on this input, so windows recorded
    /// against either select the same pairs.
    #[test]
    fn admit_orders_new_pairs_as_per_pair_admission_did() {
        let (mut left, mut right) = datasets();
        // Six players make "player" a stop token: only the diagonal blocks.
        for (i, name) in [(4, "Shaquille O'Neal"), (5, "Kevin Garnett")] {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            left.add_str(&format!("http://l/{i}"), "http://l/type", "player");
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
            right.add_str(&format!("http://r/{i}"), "http://r/class", "player");
        }
        // Numeric tokens do not block, so (0, 1) meets a feature no built
        // pair has.
        left.add_str("http://l/0", "http://l/born", "1984");
        right.add_str("http://r/1", "http://r/year", "1984");
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let diagonal: Vec<(u32, u32)> = (0..6).map(|i| (i, i)).collect();
        assert_eq!(space.pairs, diagonal);
        assert_eq!(space.catalog().len(), 2);

        let (space, ids) = space.admit(&[(0, 1), (1, 1), (2, 3), (0, 1), (3, 2)]);
        assert_eq!(ids, [6, 1, 7, 6, 8].map(PairId));
        for (id, pair) in [(6, (0, 1)), (7, (2, 3)), (8, (3, 2)), (1, (1, 1))] {
            assert_eq!(space.pair(PairId(id)), pair);
            assert_eq!(space.id_of(pair.0, pair.1), Some(PairId(id)));
        }
        assert_eq!(space.id_of(1, 0), None);
        let born = space
            .catalog()
            .get(FeaturePair {
                left: left.interner().get("http://l/born").unwrap(),
                right: right.interner().get("http://r/year").unwrap(),
            })
            .unwrap();
        assert_eq!(born, FeatureId(2));
        let (label, ty) = (FeatureId(0), FeatureId(1));
        assert_eq!(space.feature_set_of(PairId(6)), &[(ty, 1.0), (born, 1.0)]);
        assert_eq!(space.feature_set_of(PairId(7)), &[(ty, 1.0)]);
        let index = |f: FeatureId| -> Vec<u32> {
            let all = space.window(f, 0.5, 0.5);
            space
                .window_slice(all)
                .iter()
                .map(|&(_, id)| id.0)
                .collect()
        };
        assert_eq!(index(label), [0, 1, 2, 3, 4, 5]);
        // Each admission sorts before every pair of equal score, so the
        // last admitted comes first.
        assert_eq!(index(ty), [8, 7, 6, 0, 1, 2, 3, 4, 5]);
        assert_eq!(index(born), [6]);
        assert_eq!(space.fingerprint(), 0xe4d1_e90d_2f0e_026a);
    }

    #[test]
    fn partition_restricts_left_side() {
        let (left, right) = datasets();
        let cfg = SpaceConfig {
            partition: Some((0, 2)),
            ..SpaceConfig::default()
        };
        let space = LinkSpace::build(&left, &right, &cfg);
        for id in space.pair_ids() {
            let (l, _) = space.pair(id);
            assert_eq!(l % 2, 0);
        }
    }

    #[test]
    fn partitions_cover_the_space() {
        let (left, right) = datasets();
        let full = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let mut total = 0;
        for i in 0..3 {
            let cfg = SpaceConfig {
                partition: Some((i, 3)),
                ..SpaceConfig::default()
            };
            total += LinkSpace::build(&left, &right, &cfg).len();
        }
        assert_eq!(total, full.len());
    }

    #[test]
    fn spaces_from_shared_sides_equal_standalone_builds() {
        let (left, right) = datasets();
        let sides = PreparedSides::new(&left, &right, &BlockingConfig::default());
        for partition in [None, Some((0, 3)), Some((1, 3)), Some((2, 3))] {
            let cfg = SpaceConfig {
                partition,
                ..SpaceConfig::default()
            };
            let shared = LinkSpace::from_prepared(&sides, &cfg);
            let alone = LinkSpace::build(&left, &right, &cfg);
            assert_eq!(shared.fingerprint(), alone.fingerprint(), "{partition:?}");
            assert_eq!(shared.blocked_pairs(), alone.blocked_pairs());
            for id in alone.pair_ids() {
                assert_eq!(shared.feature_set_of(id), alone.feature_set_of(id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "prepared sides' blocking")]
    fn from_prepared_rejects_other_blocking() {
        let (left, right) = datasets();
        let sides = PreparedSides::new(&left, &right, &BlockingConfig::default());
        let cfg = SpaceConfig {
            blocking: BlockingConfig {
                min_shared_tokens: 2,
                ..BlockingConfig::default()
            },
            ..SpaceConfig::default()
        };
        let _ = LinkSpace::from_prepared(&sides, &cfg);
    }

    #[test]
    #[should_panic(expected = "partition index")]
    fn bad_partition_panics() {
        let (left, right) = datasets();
        let cfg = SpaceConfig {
            partition: Some((3, 3)),
            ..SpaceConfig::default()
        };
        let _ = LinkSpace::build(&left, &right, &cfg);
    }

    #[test]
    fn value_pair_counters_reach_prometheus_export() {
        let (left, right) = datasets();
        let _ = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let text = alex_telemetry::global().metrics().render_prometheus();
        for name in [
            "space_value_pairs_scored_total",
            "space_value_pairs_kept_total",
            "space_token_pairs_scored_total",
        ] {
            assert!(text.contains(&format!("# TYPE {name} counter")), "{text}");
            // Distinct names meet on the shared "player" token, so every
            // counter is positive after one build.
            assert!(
                text.lines().any(|l| {
                    l.strip_prefix(&format!("{name} "))
                        .is_some_and(|v| v.parse::<u64>().is_ok_and(|n| n >= 1))
                }),
                "{name} missing or zero in export:\n{text}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn build_rejects_theta_outside_unit_interval() {
        let (left, right) = datasets();
        let cfg = SpaceConfig {
            theta: 1.5,
            ..SpaceConfig::default()
        };
        let _ = LinkSpace::build(&left, &right, &cfg);
    }

    #[test]
    fn higher_theta_shrinks_space() {
        let (left, right) = datasets();
        let lo = LinkSpace::build(
            &left,
            &right,
            &SpaceConfig {
                theta: 0.1,
                ..SpaceConfig::default()
            },
        );
        let hi = LinkSpace::build(
            &left,
            &right,
            &SpaceConfig {
                theta: 0.9,
                ..SpaceConfig::default()
            },
        );
        assert!(hi.len() <= lo.len());
    }
}
