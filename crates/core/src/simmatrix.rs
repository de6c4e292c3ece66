//! Similarity matrices and state feature sets (§4.1).
//!
//! For a pair of entities, the similarity matrix holds
//! `((p1x, p2y), sim(o1x, o2y))` for every attribute pair; entries below θ
//! are discarded. The *state feature set* `sf` keeps, for each attribute of
//! the larger-arity side, its best-scoring counterpart: "choosing the
//! maximum value for each row in the similarity matrix if n > m or each
//! column if m > n".
//!
//! Attributes name their values by [`ValueId`], so the similarity of a
//! value pair is a function of two ids. A link-space build scores every
//! distinct value pair its candidates meet once, into a θ-sparse
//! [`alex_linking::scores::ValueScores`] table, and reads the matrices
//! from it; an initial link outside the blocked candidates
//! ([`crate::LinkSpace::admit`]) is scored directly with
//! [`alex_sim::prepared_similarity`].

use alex_linking::values::ValueId;
use alex_rdf::Sym;

use crate::feature::{FeatureCatalog, FeaturePair, FeatureSet};

/// Catalog-free similarity pass for one entity pair: appends to `out` the
/// state feature set as `(FeaturePair, score)` entries in best-counterpart
/// discovery order, deduplicated (max score per pair), *not yet interned*.
/// `score(l, r)` is the similarity of left value `l` and right value `r`;
/// only scores `>= theta` are used, so a scorer may report anything below
/// θ as `f64::NEG_INFINITY`.
///
/// This is the parallel-safe half of [`feature_set`]: it touches no
/// shared state, so worker threads can compute it for disjoint candidate
/// chunks while the single-threaded caller interns the results in
/// original candidate order — reproducing the sequential intern order
/// exactly, which keeps [`FeatureId`]s byte-identical at any thread count.
///
/// [`FeatureId`]: crate::feature::FeatureId
pub fn raw_feature_set(
    left_attrs: &[(Sym, ValueId)],
    right_attrs: &[(Sym, ValueId)],
    theta: f64,
    score: impl Fn(ValueId, ValueId) -> f64,
    out: &mut Vec<(FeaturePair, f64)>,
) {
    let n = left_attrs.len();
    let m = right_attrs.len();
    if n == 0 || m == 0 {
        return;
    }
    let start = out.len();
    let mut push =
        |pair: FeaturePair, score: f64| match out[start..].iter_mut().find(|(p, _)| *p == pair) {
            Some((_, s)) => *s = s.max(score),
            None => out.push((pair, score)),
        };

    if n >= m {
        // Max per row: each left attribute keeps its best right counterpart.
        for &(lp, lv) in left_attrs {
            let mut best: Option<(Sym, f64)> = None;
            for &(rp, rv) in right_attrs {
                let s = score(lv, rv);
                if s >= theta && best.map(|(_, b)| s > b).unwrap_or(true) {
                    best = Some((rp, s));
                }
            }
            if let Some((rp, score)) = best {
                push(
                    FeaturePair {
                        left: lp,
                        right: rp,
                    },
                    score,
                );
            }
        }
    } else {
        // Max per column: each right attribute keeps its best left counterpart.
        for &(rp, rv) in right_attrs {
            let mut best: Option<(Sym, f64)> = None;
            for &(lp, lv) in left_attrs {
                let s = score(lv, rv);
                if s >= theta && best.map(|(_, b)| s > b).unwrap_or(true) {
                    best = Some((lp, s));
                }
            }
            if let Some((lp, score)) = best {
                push(
                    FeaturePair {
                        left: lp,
                        right: rp,
                    },
                    score,
                );
            }
        }
    }
}

/// Intern a [`raw_feature_set`] result into `catalog`, in discovery order,
/// and append it to `out` sorted by [`FeatureId`]. Split out so
/// [`feature_set`] and the parallel build's ordered merge share one
/// interning path.
///
/// [`FeatureId`]: crate::feature::FeatureId
pub fn intern_feature_set(
    raw: &[(FeaturePair, f64)],
    catalog: &mut FeatureCatalog,
    out: &mut FeatureSet,
) {
    let start = out.len();
    out.extend(
        raw.iter()
            .map(|&(pair, score)| (catalog.intern(pair), score)),
    );
    out[start..].sort_by_key(|&(f, _)| f);
}

/// Build the state feature set for one entity pair.
///
/// `left_attrs` / `right_attrs` are the attribute lists and `score` the
/// value similarity (see [`raw_feature_set`]); the result is sorted by
/// [`FeatureId`] with one entry per distinct feature (max score). Returns
/// an empty set when no attribute pair reaches θ — such pairs are dropped
/// from the link space (§6.1).
///
/// [`FeatureId`]: crate::feature::FeatureId
pub fn feature_set(
    left_attrs: &[(Sym, ValueId)],
    right_attrs: &[(Sym, ValueId)],
    theta: f64,
    score: impl Fn(ValueId, ValueId) -> f64,
    catalog: &mut FeatureCatalog,
) -> FeatureSet {
    let mut raw = Vec::new();
    raw_feature_set(left_attrs, right_attrs, theta, score, &mut raw);
    let mut set = FeatureSet::new();
    intern_feature_set(&raw, catalog, &mut set);
    set
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::feature::feature_score;
    use alex_sim::{prepared_similarity, PreparedValue, TokenInterner, TypedValue};

    fn sym(i: usize) -> Sym {
        Sym::from_index(i)
    }

    fn text(s: &str) -> TypedValue {
        TypedValue::Text(s.to_string())
    }

    /// One side's values and attribute lists, prepared against a shared
    /// interner (both sides of a comparison must share ids, exactly as
    /// `SideValues::build` does).
    #[derive(Default)]
    struct Side(Vec<PreparedValue>);

    impl Side {
        fn attrs(
            &mut self,
            attrs: Vec<(Sym, TypedValue)>,
            interner: &mut TokenInterner,
        ) -> Vec<(Sym, ValueId)> {
            attrs
                .into_iter()
                .map(|(p, v)| {
                    self.0.push(PreparedValue::prepare(v, interner));
                    (p, ValueId(self.0.len() as u32 - 1))
                })
                .collect()
        }
    }

    /// `feature_set` scored directly with `prepared_similarity`.
    fn direct(
        (ls, left): (&Side, &[(Sym, ValueId)]),
        (rs, right): (&Side, &[(Sym, ValueId)]),
        theta: f64,
        catalog: &mut FeatureCatalog,
    ) -> FeatureSet {
        let score =
            |a: ValueId, b: ValueId| prepared_similarity(&ls.0[a.0 as usize], &rs.0[b.0 as usize]);
        feature_set(left, right, theta, score, catalog)
    }

    #[test]
    fn picks_best_counterpart_per_row() {
        let mut catalog = FeatureCatalog::new();
        let mut interner = TokenInterner::new();
        let (mut ls, mut rs) = (Side::default(), Side::default());
        // Left has 2 attrs, right has 2: n == m so per-row.
        let left = ls.attrs(
            vec![
                (sym(0), text("LeBron James")),
                (sym(1), TypedValue::Year(1984)),
            ],
            &mut interner,
        );
        let right = rs.attrs(
            vec![
                (sym(10), text("lebron james")),
                (sym(11), TypedValue::Year(1984)),
            ],
            &mut interner,
        );
        let sf = direct((&ls, &left), (&rs, &right), 0.3, &mut catalog);
        assert_eq!(sf.len(), 2);
        let name_feat = catalog
            .get(FeaturePair {
                left: sym(0),
                right: sym(10),
            })
            .unwrap();
        let year_feat = catalog
            .get(FeaturePair {
                left: sym(1),
                right: sym(11),
            })
            .unwrap();
        assert_eq!(feature_score(&sf, name_feat), Some(1.0));
        assert_eq!(feature_score(&sf, year_feat), Some(1.0));
    }

    #[test]
    fn theta_drops_weak_entries() {
        let mut catalog = FeatureCatalog::new();
        let mut interner = TokenInterner::new();
        let (mut ls, mut rs) = (Side::default(), Side::default());
        let left = ls.attrs(vec![(sym(0), text("completely unrelated"))], &mut interner);
        let right = rs.attrs(vec![(sym(10), text("zzz qqq"))], &mut interner);
        let sf = direct((&ls, &left), (&rs, &right), 0.3, &mut catalog);
        assert!(sf.is_empty());
    }

    #[test]
    fn column_mode_when_right_larger() {
        let mut catalog = FeatureCatalog::new();
        let mut interner = TokenInterner::new();
        let (mut ls, mut rs) = (Side::default(), Side::default());
        let left = ls.attrs(vec![(sym(0), text("alpha"))], &mut interner);
        let right = rs.attrs(
            vec![
                (sym(10), text("alpha")),
                (sym(11), text("alpha beta")),
                (sym(12), TypedValue::Year(2000)),
            ],
            &mut interner,
        );
        let sf = direct((&ls, &left), (&rs, &right), 0.3, &mut catalog);
        // m > n: one entry per right attribute that clears θ against the
        // single left attribute. Year vs text fails θ.
        assert_eq!(sf.len(), 2);
    }

    #[test]
    fn duplicate_feature_keeps_max() {
        let mut catalog = FeatureCatalog::new();
        let mut interner = TokenInterner::new();
        let (mut ls, mut rs) = (Side::default(), Side::default());
        // Two left values under the same predicate, both best-matching the
        // same right attribute with different scores.
        let left = ls.attrs(
            vec![(sym(0), text("miami heat")), (sym(0), text("heat"))],
            &mut interner,
        );
        let right = rs.attrs(vec![(sym(10), text("miami heat"))], &mut interner);
        let sf = direct((&ls, &left), (&rs, &right), 0.3, &mut catalog);
        assert_eq!(sf.len(), 1);
        assert_eq!(sf[0].1, 1.0);
    }

    #[test]
    fn empty_sides_give_empty_set() {
        let mut catalog = FeatureCatalog::new();
        let mut interner = TokenInterner::new();
        let mut side = Side::default();
        let one = side.attrs(vec![(sym(0), text("x"))], &mut interner);
        assert!(direct((&side, &[]), (&side, &one), 0.3, &mut catalog).is_empty());
        assert!(direct((&side, &one), (&side, &[]), 0.3, &mut catalog).is_empty());
    }

    #[test]
    fn output_is_sorted_by_feature_id() {
        let mut catalog = FeatureCatalog::new();
        let mut interner = TokenInterner::new();
        let (mut ls, mut rs) = (Side::default(), Side::default());
        let left = ls.attrs(
            vec![
                (sym(5), text("beta")),
                (sym(1), text("alpha")),
                (sym(3), TypedValue::Year(1999)),
            ],
            &mut interner,
        );
        let right = rs.attrs(
            vec![
                (sym(11), text("alpha")),
                (sym(12), text("beta")),
                (sym(13), TypedValue::Year(1999)),
            ],
            &mut interner,
        );
        let sf = direct((&ls, &left), (&rs, &right), 0.3, &mut catalog);
        let ids: Vec<u32> = sf.iter().map(|&(f, _)| f.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}
