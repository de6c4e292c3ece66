//! The θ-sparse value-pair score table every scorer reads.
//!
//! PARIS (`sim_threshold`), the label baseline (`threshold`) and the link
//! space (θ, §4.1) all discard value similarities below a floor. Each
//! builds one [`ValueScores`] over its blocked candidates at its own floor:
//! every distinct `(left value, right value)` pair the candidates meet is
//! scored once, and only the scores at or above the floor are kept. A
//! lookup that misses means the pair scored below the floor, which every
//! caller would have discarded anyway, so reading the table is exact.
//! Inside the build, a Monge-Elkan comparison is first bounded from the
//! character counts of its tokens ([`TokenSignature`]); only one the
//! bounds cannot place below the floor reaches the kernels, and each left
//! value scores each distinct (left token, right token) pair of those
//! comparisons once.

use alex_parallel::Pool;
use alex_sim::{
    monge_elkan_by, prepared_similarity_with, PreparedText, TokenPattern, TokenSignature,
};
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
    /// Value pairs whose Monge-Elkan the token bounds decided.
    pruned: u64,
}

/// One pool chunk's rows of a [`ValueScores`]: the kept entries of a run
/// of consecutive left values, and how many of them each value has.
#[derive(Default)]
struct ScoreRows {
    lens: Vec<u32>,
    right: Vec<ValueId>,
    scores: Vec<f64>,
    scored: u64,
    token_pairs: u64,
    pruned: u64,
}

/// The signature of every token span of every right value, and per value
/// the union of its tokens' character classes.
struct RightSigs {
    /// Value `w`'s spans have signatures `sigs[starts[w]..starts[w + 1]]`.
    starts: Vec<u32>,
    sigs: Vec<TokenSignature>,
    classes: Vec<u64>,
}

impl RightSigs {
    fn new(right: &SideValues) -> RightSigs {
        let mut sigs = Vec::new();
        let mut starts = Vec::with_capacity(right.value_count() + 1);
        let mut classes = Vec::with_capacity(right.value_count());
        starts.push(0);
        for w in 0..right.value_count() as u32 {
            let text = right.value(ValueId(w)).text();
            let before = sigs.len();
            sigs.extend((0..text.span_ids().len()).map(|j| TokenSignature::new(text.token(j))));
            classes.push(
                sigs[before..]
                    .iter()
                    .fold(0, |all, sig| all | sig.classes()),
            );
            starts.push(sigs.len() as u32);
        }
        RightSigs {
            starts,
            sigs,
            classes,
        }
    }

    fn of(&self, w: ValueId) -> (&[TokenSignature], u64) {
        let w = w.0 as usize;
        let span = self.starts[w] as usize..self.starts[w + 1] as usize;
        (&self.sigs[span], self.classes[w])
    }
}

/// One worker's token-pair scores for the left value it is on: a row per
/// distinct token of the value, with its signature and, once a comparison
/// needs the kernels, its [`TokenPattern`]; and a column of exact scores
/// per distinct right token that those comparisons have met, scored whole
/// when first met, so each token pair reaches the kernels at most once per
/// left value.
struct TokenRows<'a> {
    /// `col_of[t] == (v, c)`: right token `t` is column `c` of left value
    /// `v`'s matrix. Left values are visited once each, so a stale stamp
    /// needs no reset.
    col_of: Vec<(u32, u32)>,
    value: u32,
    /// The started value's row of each of its token spans, and the token
    /// and signature of each row.
    span_rows: Vec<u32>,
    row_ids: Vec<u32>,
    row_tokens: Vec<&'a str>,
    row_sigs: Vec<TokenSignature>,
    /// The union of the rows' character classes.
    classes: u64,
    /// The rows' kernel patterns, set when a first column is scored; kept
    /// across values, so each is reset rather than rebuilt.
    patterns: Vec<TokenPattern<'a>>,
    patterns_set: bool,
    /// Scratch: the bound of each (span, row) cell of the comparison at
    /// hand, span-major.
    bounds: Vec<f64>,
    /// Column-major `columns × rows` exact scores.
    cells: Vec<f64>,
    columns: u32,
    /// Scratch: the column of each token span of the right text at hand.
    span_cols: Vec<u32>,
    /// Kernel calls made.
    scored: u64,
    /// Comparisons decided by the bounds.
    pruned: u64,
}

impl<'a> TokenRows<'a> {
    /// Rows over a right token-id space of `tokens` ids.
    fn new(tokens: usize) -> TokenRows<'a> {
        TokenRows {
            col_of: vec![(u32::MAX, 0); tokens],
            value: u32::MAX,
            span_rows: Vec::new(),
            row_ids: Vec::new(),
            row_tokens: Vec::new(),
            row_sigs: Vec::new(),
            classes: 0,
            patterns: Vec::new(),
            patterns_set: false,
            bounds: Vec::new(),
            cells: Vec::new(),
            columns: 0,
            span_cols: Vec::new(),
            scored: 0,
            pruned: 0,
        }
    }

    /// Start left value `v`, of lexical form `text`.
    fn start(&mut self, v: u32, text: &'a PreparedText) {
        self.value = v;
        self.span_rows.clear();
        self.row_ids.clear();
        self.row_tokens.clear();
        self.row_sigs.clear();
        self.classes = 0;
        self.patterns_set = false;
        self.cells.clear();
        self.columns = 0;
        for (i, &id) in text.span_ids().iter().enumerate() {
            let row = match self.row_ids.iter().position(|&r| r == id) {
                Some(row) => row,
                None => {
                    let sig = TokenSignature::new(text.token(i));
                    self.classes |= sig.classes();
                    self.row_ids.push(id);
                    self.row_tokens.push(text.token(i));
                    self.row_sigs.push(sig);
                    self.row_ids.len() - 1
                }
            };
            self.span_rows.push(row as u32);
        }
    }

    /// Symmetric Monge-Elkan of the started value's text (rows) against
    /// `right` (columns), whose spans have signatures `sigs` and character
    /// classes `classes`: bitwise the one `prepared_similarity` computes,
    /// or, when the bounds prove that its square is below `theta`, an
    /// upper bound of it whose square is below `theta` too.
    /// `prepared_similarity_with` keeps the larger of that square and
    /// Jaccard, so its result stays below `theta` or equals the exact one.
    fn monge_elkan(
        &mut self,
        right: &PreparedText,
        (sigs, classes): (&[TokenSignature], u64),
        theta: f64,
    ) -> f64 {
        let (na, nb) = (self.span_rows.len(), sigs.len());
        if na > 0 && nb > 0 {
            let bound = if self.classes & classes == 0 {
                // No token pair shares a character: every cell, and so
                // Monge-Elkan, is exactly 0.
                0.0
            } else {
                let rows = self.row_sigs.len();
                self.bounds.clear();
                for sig in sigs {
                    self.bounds
                        .extend(self.row_sigs.iter().map(|row| row.bound(sig)));
                }
                let (bounds, span_rows) = (&self.bounds, &self.span_rows);
                monge_elkan_by(na, nb, |i| {
                    let row = span_rows[i] as usize;
                    move |j| bounds[j * rows + row]
                })
            };
            if bound * bound < theta {
                self.pruned += 1;
                return bound;
            }
        }
        self.exact(right)
    }

    /// The exact Monge-Elkan of [`TokenRows::monge_elkan`].
    fn exact(&mut self, right: &PreparedText) -> f64 {
        if !self.patterns_set {
            self.patterns_set = true;
            for (i, &token) in self.row_tokens.iter().enumerate() {
                match self.patterns.get_mut(i) {
                    Some(pattern) => pattern.reset(token),
                    None => self.patterns.push(TokenPattern::new(token)),
                }
            }
        }
        let rows = self.row_tokens.len();
        self.span_cols.clear();
        for (j, &t) in right.span_ids().iter().enumerate() {
            let slot = &mut self.col_of[t as usize];
            if slot.0 != self.value {
                *slot = (self.value, self.columns);
                self.columns += 1;
                let token = right.token(j);
                self.cells
                    .extend(self.patterns[..rows].iter().map(|p| p.score(token)));
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
    /// [`alex_sim::prepared_similarity`], with the comparisons that token
    /// bounds place below `theta` decided without the kernels and the
    /// other comparisons' token pairs scored once per left value.
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
        let right_sigs = RightSigs::new(right);

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
                        token_rows.monge_elkan(y, right_sigs.of(w), theta)
                    });
                    if s >= theta {
                        out.right.push(w);
                        out.scores.push(s);
                    }
                }
                out.lens.push((out.right.len() - before) as u32);
                out.scored += met.len() as u64;
            }
            out.token_pairs = token_rows.scored;
            out.pruned = token_rows.pruned;
            out
        });

        let mut table = ValueScores {
            offsets: Vec::with_capacity(left.value_count() + 1),
            ..ValueScores::default()
        };
        table.offsets.push(0);
        let mut end = 0;
        for chunk in chunks {
            table.token_pairs += chunk.token_pairs;
            table.pruned += chunk.pruned;
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

    /// Number of value pairs the token-pair bounds decided below θ
    /// without the kernels: counted in [`ValueScores::scored`], never
    /// kept.
    pub fn pruned(&self) -> u64 {
        self.pruned
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
    use alex_datagen::{generate_pair, DatasetKind, GeneratedPair, PairSpec};
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
        // shared), all met. Equal texts skip Monge-Elkan: 13 pairs reach
        // it. At θ = 0 no bound can decide a pair, so every left value's
        // tokens meet the distinct right tokens of its comparisons in the
        // kernels: "ann lee" and "bo lee" 2 × 6, "heat" 1 × 7, "cy ray"
        // 2 × 5. Above 0 the bounds decide every pair but "heat" against
        // "miami heat", whose shared token lifts its bound to at least
        // 0.75: 1 × 2 kernel calls. At θ = 1 that pair is decided too.
        for (theta, token_pairs, pruned) in [
            (0.0, 12 + 12 + 7 + 10, 0),
            (0.3, 2, 12),
            (0.55, 2, 12),
            (1.0, 0, 13),
        ] {
            let table = ValueScores::build(&lv, &rv, &candidates, theta, &pool());
            assert_eq!(table.scored(), 4 * 4);
            assert_eq!(
                (table.token_pairs_scored(), table.pruned()),
                (token_pairs, pruned),
                "θ {theta}"
            );
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

    /// The table without the bounds: every value pair the candidates meet
    /// scored in full by `prepared_similarity`, kept at or above `theta`.
    fn unpruned(
        left: &SideValues,
        right: &SideValues,
        candidates: &[(u32, u32)],
        theta: f64,
    ) -> ValueScores {
        let mut met: Vec<(ValueId, ValueId)> = candidates
            .iter()
            .flat_map(|&(l, r)| {
                left.attrs(l)
                    .iter()
                    .flat_map(move |&(_, a)| right.attrs(r).iter().map(move |&(_, b)| (a, b)))
            })
            .collect();
        met.sort_unstable();
        met.dedup();
        let mut table = ValueScores {
            offsets: vec![0; left.value_count() + 1],
            scored: met.len() as u64,
            ..ValueScores::default()
        };
        for &(a, b) in &met {
            let s = prepared_similarity(left.value(a), right.value(b));
            if s >= theta {
                table.offsets[a.0 as usize + 1] += 1;
                table.right.push(b);
                table.scores.push(s);
            }
        }
        for v in 0..left.value_count() {
            table.offsets[v + 1] += table.offsets[v];
        }
        table
    }

    /// Two sides whose values mix generated DBpedia and NYTimes entities
    /// with token edge cases, every left entity against every right one.
    fn mixed_sides() -> (SideValues, SideValues, Vec<(u32, u32)>) {
        let spec = PairSpec {
            shared: 12,
            left_only: 6,
            right_only: 6,
            ..PairSpec::of(DatasetKind::DBpedia, DatasetKind::NYTimes)
        };
        let GeneratedPair {
            mut left,
            mut right,
            ..
        } = generate_pair(&spec.config(7));
        let long = "abcdefghij".repeat(7);
        let edge = [
            "aaaab baaaa",
            "mississippi",
            "1984",
            "1948 12 30",
            "x",
            "y x",
            "café crème",
            "cafe creme",
            "",
            "!!!",
            long.as_str(),
            "zzz",
            "Ab-Cd_ef",
            "lebron james",
        ];
        for (i, text) in edge.iter().enumerate() {
            left.add_str(&format!("http://l/e{}", i % 5), "http://l/edge", text);
            let mirrored = edge[(i * 7 + 3) % edge.len()];
            right.add_str(&format!("http://r/e{}", i % 4), "http://r/edge", mirrored);
        }
        let mut interner = TokenInterner::new();
        let lv = SideValues::build(&left, &left.entity_index(), &mut interner);
        let rv = SideValues::build(&right, &right.entity_index(), &mut interner);
        let (nl, nr) = (lv.len() as u32, rv.len() as u32);
        let all = (0..nl).flat_map(|l| (0..nr).map(move |r| (l, r))).collect();
        (lv, rv, all)
    }

    #[test]
    fn bounded_table_equals_the_unpruned_reference() {
        let (lv, rv, candidates) = mixed_sides();
        for theta in [0.0, 0.3, 0.6, 0.85, 1.0] {
            let want = unpruned(&lv, &rv, &candidates, theta);
            for threads in [1, 3] {
                let pool = Pool::with_threads("scores_test", threads);
                let got = ValueScores::build(&lv, &rv, &candidates, theta, &pool);
                assert_eq!(got.offsets, want.offsets, "θ {theta}");
                assert_eq!(got.right, want.right, "θ {theta}");
                let bits =
                    |t: &ValueScores| t.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "θ {theta}");
                assert_eq!(got.scored(), want.scored(), "θ {theta}");
                if theta > 0.0 {
                    assert!(got.pruned() > 0, "θ {theta}: the bounds decide nothing");
                }
            }
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
