//! A naive label-matching baseline linker.
//!
//! Links two entities when their best literal-value similarity exceeds a
//! threshold, with greedy one-to-one assignment. This is the "syntax only"
//! strawman that PARIS (and ALEX on top of it) improves upon; `alex link
//! --baseline` and `examples/paris_linking.rs` compare the two.

use alex_parallel::Pool;
use alex_rdf::{Dataset, Term};
use alex_sim::{term_similarity, TokenInterner};

use crate::blocking::{candidate_pairs, BlockingConfig};
use crate::candidates::{LinkSet, LinkerOutput, ScoredLink};
use crate::scores::ValueScores;
use crate::values::{SideValues, ValueId};

/// Configuration for the label baseline.
#[derive(Debug, Clone)]
pub struct LabelBaseline {
    /// Minimum best-value similarity to emit a link.
    pub threshold: f64,
    /// Blocking configuration for candidate generation.
    pub blocking: BlockingConfig,
}

impl Default for LabelBaseline {
    fn default() -> Self {
        LabelBaseline {
            threshold: 0.85,
            blocking: BlockingConfig::default(),
        }
    }
}

impl LabelBaseline {
    /// Link `left` and `right` by best literal-value similarity.
    ///
    /// Both sides' values are prepared once, and one [`ValueScores`] table
    /// at `threshold` scores every value pair the blocked candidates meet.
    /// A pair the table misses scored below the threshold, so it cannot
    /// lift a best score to the threshold: every emitted link's score is
    /// bitwise the naive [`best_literal_similarity`] oracle's (tested
    /// below).
    pub fn link(&self, left: &Dataset, right: &Dataset) -> LinkerOutput {
        let left_index = left.entity_index();
        let right_index = right.entity_index();
        let pairs = candidate_pairs(left, &left_index, right, &right_index, &self.blocking);

        let mut interner = TokenInterner::new();
        let left_values = SideValues::build(left, &left_index, &mut interner);
        let right_values = SideValues::build(right, &right_index, &mut interner);
        let scores = ValueScores::build(
            &left_values,
            &right_values,
            &pairs,
            self.threshold,
            &Pool::new("baseline"),
        );

        let mut links = LinkSet::new();
        for (lid, rid) in pairs {
            let score = best_kept(&left_values, &right_values, &scores, lid, rid);
            if score >= self.threshold {
                links.push(ScoredLink {
                    left: lid,
                    right: rid,
                    score,
                });
            }
        }
        LinkerOutput {
            links: links.one_to_one(),
            left_index,
            right_index,
        }
    }
}

/// The best score `scores` kept between a literal of left entity `l` and a
/// literal of right entity `r` (0.0 when it kept none), with the oracle's
/// 1.0 short-circuit: [`best_literal_similarity`] whenever that reaches the
/// table's threshold.
fn best_kept(left: &SideValues, right: &SideValues, scores: &ValueScores, l: u32, r: u32) -> f64 {
    let mut best = 0.0f64;
    for a in literals(left, l) {
        for b in literals(right, r) {
            best = best.max(scores.score(a, b));
            if best >= 1.0 {
                return 1.0;
            }
        }
    }
    best
}

/// Entity `e`'s literal values, in triple-store order.
fn literals(side: &SideValues, e: u32) -> impl Iterator<Item = ValueId> + '_ {
    side.attrs(e)
        .iter()
        .map(|&(_, v)| v)
        .filter(|&v| side.term(v).is_literal())
}

/// The best similarity between any literal value of `l` and any literal
/// value of `r` — the naive per-pair formulation, kept as the oracle the
/// batched path in [`LabelBaseline::link`] is tested against.
pub fn best_literal_similarity(left: &Dataset, l: Term, right: &Dataset, r: Term) -> f64 {
    let mut best: f64 = 0.0;
    for lt in left.graph().matching(Some(l), None, None) {
        if !lt.object.is_literal() {
            continue;
        }
        for rt in right.graph().matching(Some(r), None, None) {
            if !rt.object.is_literal() {
                continue;
            }
            best = best.max(term_similarity(left, lt.object, right, rt.object));
            if best >= 1.0 {
                return 1.0;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datasets() -> (Dataset, Dataset) {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/o/label", "LeBron James");
        left.add_str("http://l/b", "http://l/o/label", "Michael Jordan");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/p/name", "James, LeBron");
        right.add_str("http://r/2", "http://r/p/name", "Jordan, Michael");
        right.add_str("http://r/3", "http://r/p/name", "Kobe Bryant");
        (left, right)
    }

    #[test]
    fn links_matching_names() {
        let (left, right) = datasets();
        let out = LabelBaseline::default().link(&left, &right);
        assert_eq!(out.links.len(), 2);
        let pairs = out.links.to_term_pairs(&out.left_index, &out.right_index);
        let as_strings: Vec<(String, String)> = pairs
            .iter()
            .map(|&(l, r)| (left.resolve(l).to_string(), right.resolve(r).to_string()))
            .collect();
        assert!(as_strings.contains(&("http://l/a".into(), "http://r/1".into())));
        assert!(as_strings.contains(&("http://l/b".into(), "http://r/2".into())));
    }

    #[test]
    fn threshold_excludes_weak_matches() {
        let (left, right) = datasets();
        let strict = LabelBaseline {
            threshold: 1.01, // impossible
            ..LabelBaseline::default()
        };
        let out = strict.link(&left, &right);
        assert!(out.links.is_empty());
    }

    #[test]
    fn best_literal_similarity_maximizes() {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/p1", "zzz");
        left.add_str("http://l/a", "http://l/p2", "LeBron James");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/q", "lebron james");
        let (li, ri) = (left.entity_index(), right.entity_index());
        let s = best_literal_similarity(&left, li.term(0), &right, ri.term(0));
        assert_eq!(s, 1.0);
    }

    #[test]
    fn batched_scoring_matches_naive_oracle() {
        // Mixed-kind literals: text, numeric-looking text, typed years,
        // plus multi-valued entities and IRI-valued attributes (which the
        // baseline ignores) — at every threshold, including ones no score
        // can miss (≤ 0) or reach (> 1), the table-backed best score must
        // equal the naive per-pair oracle bitwise whenever that reaches
        // the threshold, and the links must be the oracle's.
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/label", "LeBron James");
        left.add_str("http://l/a", "http://l/born", "1984");
        left.add_iri("http://l/a", "http://l/team", "http://l/c");
        left.add_str("http://l/b", "http://l/label", "Café München");
        left.add_str("http://l/b", "http://l/alt", "cafe muenchen");
        left.add_iri("http://l/b", "http://l/seeAlso", "http://x/James_LeBron");
        left.add_str("http://l/c", "http://l/num", "42");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/name", "James, LeBron");
        right.add_str("http://r/1", "http://r/year", "1984");
        right.add_iri("http://r/1", "http://r/page", "http://x/James_LeBron");
        right.add_str("http://r/2", "http://r/name", "Cafe Munchen");
        right.add_iri("http://r/2", "http://r/near", "http://r/3");
        right.add_str("http://r/3", "http://r/name", "42.0");
        let (li, ri) = (left.entity_index(), right.entity_index());
        let all: Vec<(u32, u32)> = (0..li.len() as u32)
            .flat_map(|l| (0..ri.len() as u32).map(move |r| (l, r)))
            .collect();
        let mut interner = TokenInterner::new();
        let lv = SideValues::build(&left, &li, &mut interner);
        let rv = SideValues::build(&right, &ri, &mut interner);
        let everything = BlockingConfig {
            min_token_len: 1,
            max_posting_frac: 1.0,
            min_shared_tokens: 1,
            skip_numeric_tokens: false,
        };
        let blocked = candidate_pairs(&left, &li, &right, &ri, &everything);
        for threshold in [-0.5, 0.0, 0.5, 0.9, 1.0, 1.5] {
            let scores = ValueScores::build(&lv, &rv, &all, threshold, &Pool::new("test"));
            let mut naive_links = LinkSet::new();
            for &(l, r) in &all {
                let got = best_kept(&lv, &rv, &scores, l, r);
                let naive = best_literal_similarity(&left, li.term(l), &right, ri.term(r));
                if naive >= threshold {
                    assert_eq!(got.to_bits(), naive.to_bits(), "θ {threshold}: ({l}, {r})");
                    if blocked.contains(&(l, r)) {
                        naive_links.push(ScoredLink {
                            left: l,
                            right: r,
                            score: naive,
                        });
                    }
                } else {
                    assert!(got < threshold, "θ {threshold}: ({l}, {r})");
                }
            }
            let linked = LabelBaseline {
                threshold,
                blocking: everything,
            }
            .link(&left, &right);
            let bits = |set: &LinkSet| {
                set.iter()
                    .map(|x| (x.left, x.right, x.score.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                bits(&linked.links),
                bits(&naive_links.one_to_one()),
                "θ {threshold}"
            );
        }
    }

    #[test]
    fn one_to_one_enforced() {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/p", "Duplicate Name");
        left.add_str("http://l/b", "http://l/p", "Duplicate Name");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/q", "Duplicate Name");
        let out = LabelBaseline::default().link(&left, &right);
        assert_eq!(out.links.len(), 1);
    }
}
