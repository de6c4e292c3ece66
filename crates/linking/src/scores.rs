//! The θ-sparse value-pair score table every scorer reads.
//!
//! PARIS (`sim_threshold`), the label baseline (`threshold`) and the link
//! space (θ, §4.1) all discard value similarities below a floor. Each
//! builds one [`ValueScores`] over its blocked candidates at its own floor:
//! every distinct `(left value, right value)` pair the candidates meet is
//! scored once, and only the scores at or above the floor are kept. A
//! lookup that misses means the pair scored below the floor, which every
//! caller would have discarded anyway, so reading the table is exact.
//! Inside the build, each left value scores each distinct (left token,
//! right token) pair of its Monge-Elkan comparisons once.

use alex_parallel::Pool;
use alex_sim::{monge_elkan_by, prepared_similarity_with, PreparedText, TokenPattern};
use alex_telemetry::span;

use crate::values::{SideValues, ValueId};

/// The similarity of every distinct `(left value, right value)` pair that
/// a set of candidate entity pairs meets, keeping only the scores at or
/// above the caller's floor θ: per left value, its kept right values in
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
    /// Left values are grouped into chunks of the caller's `pool`, and
    /// each value's row depends only on the value, so the table is
    /// identical at any thread count.
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
        pool: &Pool,
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
        let chunks = pool.map_chunks(&ids, |chunk| {
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
    use alex_rdf::Dataset;
    use alex_sim::{prepared_similarity, TokenInterner};

    fn pool() -> Pool {
        Pool::new("scores_test")
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
            let table = ValueScores::build(&lv, &rv, &candidates, theta, &pool());
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
        let table = ValueScores::build(&lv, &rv, &[(0, 1)], 0.0, &pool());
        assert_eq!(table.scored(), 4);
        let (name0, name1) = (lv.attrs(0)[0].1, rv.attrs(1)[0].1);
        assert!(table.score(name0, name1) > f64::NEG_INFINITY);
        let (name2, name2r) = (lv.attrs(2)[0].1, rv.attrs(2)[0].1);
        assert_eq!(table.score(name2, name2r), f64::NEG_INFINITY);
        let empty = ValueScores::build(&lv, &rv, &[], 0.0, &pool());
        assert_eq!((empty.scored(), empty.kept()), (0, 0));
    }
}
