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
//! [`ValueScores`] table, and reads the matrices from it; a pair outside
//! the blocked candidates ([`crate::LinkSpace::ensure_pair`]) is scored
//! directly with [`alex_sim::prepared_similarity`]. Inside the table build,
//! each left value scores each distinct (left token, right token) pair of
//! its Monge-Elkan comparisons once.

use alex_rdf::Sym;
use alex_sim::{monge_elkan_by, prepared_similarity_with, PreparedText, TokenPattern};
use alex_telemetry::{counter, span};

use crate::feature::{FeatureCatalog, FeaturePair, FeatureSet};
use crate::values::{SideValues, ValueId};

/// Catalog-free similarity pass for one entity pair: the state feature
/// set as `(FeaturePair, score)` entries in best-counterpart discovery
/// order, deduplicated (max score per pair), *not yet interned*.
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
) -> Vec<(FeaturePair, f64)> {
    let n = left_attrs.len();
    let m = right_attrs.len();
    if n == 0 || m == 0 {
        return Vec::new();
    }
    let mut set: Vec<(FeaturePair, f64)> = Vec::new();
    let mut push = |pair: FeaturePair, score: f64| match set.iter_mut().find(|(p, _)| *p == pair) {
        Some((_, s)) => *s = s.max(score),
        None => set.push((pair, score)),
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
    set
}

/// Intern a [`raw_feature_set`] result into `catalog`, in discovery order,
/// and sort by [`FeatureId`]. Split out so [`feature_set`] and the
/// parallel build's ordered merge share one interning path.
///
/// [`FeatureId`]: crate::feature::FeatureId
pub fn intern_feature_set(
    raw: Vec<(FeaturePair, f64)>,
    catalog: &mut FeatureCatalog,
) -> FeatureSet {
    let mut set: FeatureSet = raw
        .into_iter()
        .map(|(pair, score)| (catalog.intern(pair), score))
        .collect();
    set.sort_by_key(|&(f, _)| f);
    set
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
    intern_feature_set(
        raw_feature_set(left_attrs, right_attrs, theta, score),
        catalog,
    )
}

/// The similarity of every distinct `(left value, right value)` pair that
/// a set of candidate entity pairs meets, keeping only the scores `>= θ`
/// (§4.1 discards the rest): per left value, its kept right values in
/// ascending order with their scores, in one CSR arena.
#[derive(Debug, Default)]
pub struct ValueScores {
    /// `right[offsets[v] .. offsets[v + 1]]` are the right values left
    /// value `v` reaches θ against; `scores` runs parallel to `right`.
    offsets: Vec<u32>,
    right: Vec<ValueId>,
    scores: Vec<f64>,
    /// Distinct value pairs scored, kept or not.
    scored: u64,
    /// Token pairs scored, after per-left-value deduplication.
    token_pairs: u64,
}

/// One pool chunk's rows of a [`ValueScores`]: the kept entries of a run
/// of consecutive left values, and how many of them each value has.
#[derive(Default)]
struct ScoreRows {
    lens: Vec<u32>,
    right: Vec<ValueId>,
    scores: Vec<f64>,
    scored: u64,
}

/// One worker's token-pair scores for the left value it is on: a row per
/// distinct token of the value, with its [`TokenPattern`] built once, and
/// a column per distinct right token the value's comparisons have met.
/// Monge-Elkan reads every row of a column, so a new column is scored
/// whole when first met, and each token pair once per left value.
struct TokenRows<'a> {
    /// `col_of[t] == (v, c)`: right token `t` is column `c` of left value
    /// `v`'s matrix. Left values are visited once each, so a stale stamp
    /// needs no reset.
    col_of: Vec<(u32, u32)>,
    value: u32,
    /// The started value's row of each of its token spans, and the token
    /// of each row.
    span_rows: Vec<u32>,
    row_ids: Vec<u32>,
    patterns: Vec<TokenPattern<'a>>,
    /// Column-major `columns × patterns.len()` scores.
    cells: Vec<f64>,
    columns: u32,
    /// Scratch: the column of each token span of the right text at hand.
    span_cols: Vec<u32>,
    /// Kernel calls made.
    scored: u64,
}

impl<'a> TokenRows<'a> {
    /// Rows over a right token-id space of `tokens` ids.
    fn new(tokens: usize) -> TokenRows<'a> {
        TokenRows {
            col_of: vec![(u32::MAX, 0); tokens],
            value: u32::MAX,
            span_rows: Vec::new(),
            row_ids: Vec::new(),
            patterns: Vec::new(),
            cells: Vec::new(),
            columns: 0,
            span_cols: Vec::new(),
            scored: 0,
        }
    }

    /// Start left value `v`, of lexical form `text`.
    fn start(&mut self, v: u32, text: &'a PreparedText) {
        self.value = v;
        self.span_rows.clear();
        self.row_ids.clear();
        self.patterns.clear();
        self.cells.clear();
        self.columns = 0;
        for (i, &id) in text.span_ids().iter().enumerate() {
            let row = match self.row_ids.iter().position(|&r| r == id) {
                Some(row) => row,
                None => {
                    self.row_ids.push(id);
                    self.patterns.push(TokenPattern::new(text.token(i)));
                    self.row_ids.len() - 1
                }
            };
            self.span_rows.push(row as u32);
        }
    }

    /// Symmetric Monge-Elkan of the started value's text (rows) against
    /// `right` (columns), bitwise the one `prepared_similarity` computes.
    fn monge_elkan(&mut self, right: &PreparedText) -> f64 {
        let rows = self.patterns.len();
        self.span_cols.clear();
        for (j, &t) in right.span_ids().iter().enumerate() {
            let slot = &mut self.col_of[t as usize];
            if slot.0 != self.value {
                *slot = (self.value, self.columns);
                self.columns += 1;
                let token = right.token(j);
                self.cells
                    .extend(self.patterns.iter().map(|p| p.score(token)));
                self.scored += rows as u64;
            }
            self.span_cols.push(slot.1);
        }
        let (cells, span_rows, span_cols) = (&self.cells, &self.span_rows, &self.span_cols);
        monge_elkan_by(span_rows.len(), span_cols.len(), |i| {
            let row = span_rows[i] as usize;
            move |j| cells[span_cols[j] as usize * rows + row]
        })
    }
}

impl ValueScores {
    /// Score each distinct value pair of the attribute pairs of
    /// `candidates` once, keeping the scores `>= theta`: bitwise
    /// [`alex_sim::prepared_similarity`], with Monge-Elkan's token pairs
    /// scored once per left value.
    ///
    /// Left values are grouped into `space_build` pool chunks, and each
    /// value's row depends only on the value, so the table is identical
    /// at any thread count.
    ///
    /// # Panics
    ///
    /// If `candidates` is not sorted by `(left, right)` without
    /// duplicates, as blocking returns them.
    pub fn build(
        left: &SideValues,
        right: &SideValues,
        candidates: &[(u32, u32)],
        theta: f64,
    ) -> ValueScores {
        let _s = span("score_values");
        assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidates must be sorted by (left, right)"
        );
        // Each left entity's row of candidates: candidates[rows[e]..rows[e + 1]].
        let mut rows = vec![0u32; left.len() + 1];
        for &(l, _) in candidates {
            rows[l as usize + 1] += 1;
        }
        for e in 0..left.len() {
            rows[e + 1] += rows[e];
        }
        let row = |e: u32| &candidates[rows[e as usize] as usize..rows[e as usize + 1] as usize];

        // Inverted index: the entities with candidates holding each left
        // value, each once, as holders[held[v]..held[v + 1]].
        let mut holders: Vec<(ValueId, u32)> = (0..left.len() as u32)
            .filter(|&e| !row(e).is_empty())
            .flat_map(|e| left.attrs(e).iter().map(move |&(_, v)| (v, e)))
            .collect();
        holders.sort_unstable();
        holders.dedup();
        let mut held = vec![0u32; left.value_count() + 1];
        for &(v, _) in &holders {
            held[v.0 as usize + 1] += 1;
        }
        for v in 0..left.value_count() {
            held[v + 1] += held[v];
        }

        // The right token-id space: every id a right text's spans carry.
        let tokens = (0..right.value_count() as u32)
            .flat_map(|w| right.value(ValueId(w)).text().span_ids())
            .max()
            .map_or(0, |&t| t as usize + 1);

        let ids: Vec<u32> = (0..left.value_count() as u32).collect();
        let chunks = alex_parallel::Pool::new("space_build").map_chunks(&ids, |chunk| {
            // `seen[w] == v` marks right value `w` as met by left value `v`
            // already; values are visited once each, so no reset is needed.
            let mut seen = vec![u32::MAX; right.value_count()];
            let mut met: Vec<ValueId> = Vec::new();
            let mut token_rows = TokenRows::new(tokens);
            let mut out = ScoreRows::default();
            for &v in chunk {
                met.clear();
                for &(_, e) in &holders[held[v as usize] as usize..held[v as usize + 1] as usize] {
                    for &(_, r) in row(e) {
                        for &(_, w) in right.attrs(r) {
                            if seen[w.0 as usize] != v {
                                seen[w.0 as usize] = v;
                                met.push(w);
                            }
                        }
                    }
                }
                met.sort_unstable();
                let lv = left.value(ValueId(v));
                token_rows.start(v, lv.text());
                let before = out.right.len();
                for &w in &met {
                    let s = prepared_similarity_with(lv, right.value(w), |_, y| {
                        token_rows.monge_elkan(y)
                    });
                    if s >= theta {
                        out.right.push(w);
                        out.scores.push(s);
                    }
                }
                out.lens.push((out.right.len() - before) as u32);
                out.scored += met.len() as u64;
            }
            (out, token_rows.scored)
        });

        let mut table = ValueScores {
            offsets: Vec::with_capacity(ids.len() + 1),
            ..ValueScores::default()
        };
        table.offsets.push(0);
        let mut end = 0;
        for (chunk, token_pairs) in chunks {
            table.token_pairs += token_pairs;
            table.offsets.extend(chunk.lens.iter().map(|&len| {
                end += len;
                end
            }));
            table.right.extend(chunk.right);
            table.scores.extend(chunk.scores);
            table.scored += chunk.scored;
        }
        counter!("space_value_pairs_scored_total").add(table.scored);
        counter!("space_value_pairs_kept_total").add(table.kept() as u64);
        counter!("space_token_pairs_scored_total").add(table.token_pairs);
        table
    }

    /// The score of `(l, r)` if the build kept it, else
    /// `f64::NEG_INFINITY`: either the pair scored below θ, or no candidate
    /// met it.
    pub fn score(&self, l: ValueId, r: ValueId) -> f64 {
        let lo = self.offsets[l.0 as usize] as usize;
        let hi = self.offsets[l.0 as usize + 1] as usize;
        match self.right[lo..hi].binary_search(&r) {
            Ok(i) => self.scores[lo + i],
            Err(_) => f64::NEG_INFINITY,
        }
    }

    /// Number of distinct value pairs scored.
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Number of token pairs scored: Monge-Elkan's kernel calls, each
    /// distinct (left token, right token) pair once per left value.
    pub fn token_pairs_scored(&self) -> u64 {
        self.token_pairs
    }

    /// Number of value pairs kept (scored `>= θ`).
    pub fn kept(&self) -> usize {
        self.right.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::feature::feature_score;
    use alex_rdf::Dataset;
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

    fn sides() -> (SideValues, SideValues, Vec<(u32, u32)>) {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for (i, name) in ["Ann Lee", "Bo Lee", "Cy Ray"].iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/name", name);
            left.add_str(&format!("http://l/{i}"), "http://l/team", "Heat");
            right.add_str(&format!("http://r/{i}"), "http://r/label", name);
            right.add_str(&format!("http://r/{i}"), "http://r/club", "Miami Heat");
        }
        let mut interner = TokenInterner::new();
        let lv = SideValues::build(&left, &left.entity_index(), &mut interner);
        let rv = SideValues::build(&right, &right.entity_index(), &mut interner);
        let all = (0..3).flat_map(|l| (0..3).map(move |r| (l, r))).collect();
        (lv, rv, all)
    }

    #[test]
    fn table_keeps_exactly_the_scores_at_or_above_theta() {
        let (lv, rv, candidates) = sides();
        // 4 left values × 4 right values ("Heat" and "Miami Heat" are
        // shared), all met.
        for theta in [0.0, 0.3, 0.55, 1.0] {
            let table = ValueScores::build(&lv, &rv, &candidates, theta);
            assert_eq!(table.scored(), 4 * 4);
            // Equal texts skip Monge-Elkan. The rest score each left
            // value's tokens against the distinct right tokens they meet:
            // "ann lee" and "bo lee" 2 × 6, "heat" 1 × 7, "cy ray" 2 × 5.
            assert_eq!(table.token_pairs_scored(), 12 + 12 + 7 + 10);
            let mut kept = 0;
            for l in 0..lv.value_count() as u32 {
                for r in 0..rv.value_count() as u32 {
                    let s = prepared_similarity(lv.value(ValueId(l)), rv.value(ValueId(r)));
                    let got = table.score(ValueId(l), ValueId(r));
                    if s >= theta {
                        kept += 1;
                        assert_eq!(got.to_bits(), s.to_bits(), "θ {theta}: ({l}, {r})");
                    } else {
                        assert_eq!(got, f64::NEG_INFINITY, "θ {theta}: ({l}, {r})");
                    }
                }
            }
            assert_eq!(table.kept(), kept, "θ {theta}");
        }
    }

    #[test]
    fn table_scores_only_pairs_the_candidates_meet() {
        let (lv, rv, _) = sides();
        // Entity 0 against entity 1 only: 2 × 2 value pairs.
        let table = ValueScores::build(&lv, &rv, &[(0, 1)], 0.0);
        assert_eq!(table.scored(), 4);
        let (name0, name1) = (lv.attrs(0)[0].1, rv.attrs(1)[0].1);
        assert!(table.score(name0, name1) > f64::NEG_INFINITY);
        let (name2, name2r) = (lv.attrs(2)[0].1, rv.attrs(2)[0].1);
        assert_eq!(table.score(name2, name2r), f64::NEG_INFINITY);
        let empty = ValueScores::build(&lv, &rv, &[], 0.0);
        assert_eq!((empty.scored(), empty.kept()), (0, 0));
    }

    #[test]
    fn value_pair_counters_reach_prometheus_export() {
        let (lv, rv, candidates) = sides();
        let _ = ValueScores::build(&lv, &rv, &candidates, 0.3);
        let text = alex_telemetry::global().metrics().render_prometheus();
        for name in [
            "space_value_pairs_scored_total",
            "space_value_pairs_kept_total",
            "space_token_pairs_scored_total",
        ] {
            assert!(text.contains(&format!("# TYPE {name} counter")), "{text}");
            // The names match exactly, so every counter is positive after
            // one build.
            assert!(
                text.lines().any(|l| {
                    l.strip_prefix(&format!("{name} "))
                        .is_some_and(|v| v.parse::<u64>().is_ok_and(|n| n >= 1))
                }),
                "{name} missing or zero in export:\n{text}"
            );
        }
    }
}
