//! A naive label-matching baseline linker.
//!
//! Links two entities when their best literal-value similarity exceeds a
//! threshold, with greedy one-to-one assignment. This is the "syntax only"
//! strawman that PARIS (and ALEX on top of it) improves upon; the linking
//! bench compares the two.

use alex_rdf::{Dataset, EntityIndex, Term};
use alex_sim::{
    best_in, prepared_similarity, term_similarity, typed_value, PreparedCorpus, PreparedValue,
    TokenInterner, TypedValue,
};

use crate::blocking::{candidate_pairs, BlockingConfig};
use crate::candidates::{LinkSet, LinkerOutput, ScoredLink};

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
    /// Each left entity's prepared text literals are probes, swept with
    /// [`best_in`] over each right entity's text literals packed in a
    /// [`PreparedCorpus`]; remaining literal pairs go
    /// through [`prepared_similarity`]. Scores are byte-identical to the
    /// naive per-pair [`best_literal_similarity`] oracle (tested below):
    /// the batch kernel equals `string_similarity`, and `max` is
    /// order-independent.
    pub fn link(&self, left: &Dataset, right: &Dataset) -> LinkerOutput {
        let left_index = left.entity_index();
        let right_index = right.entity_index();
        let pairs = candidate_pairs(left, &left_index, right, &right_index, &self.blocking);

        let mut interner = TokenInterner::new();
        let probes: Vec<ProbeEntity> = (0..left_index.len() as u32)
            .map(|id| ProbeEntity::build(left, &left_index, id, &mut interner))
            .collect();
        let cands: Vec<CandidateEntity> = (0..right_index.len() as u32)
            .map(|id| CandidateEntity::build(right, &right_index, id, &mut interner))
            .collect();

        let mut links = LinkSet::new();
        for (lid, rid) in pairs {
            let score = probes[lid as usize].best_against(&cands[rid as usize]);
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

/// A left entity's literal values, prepared once: the text literals are
/// batch probes, and every literal's [`PreparedValue`] serves the mixed and
/// non-text combinations.
struct ProbeEntity {
    values: Vec<PreparedValue>,
}

/// A right entity's literal values, prepared once: its text literals
/// packed in an arena corpus for batch sweeps, plus every literal's
/// [`PreparedValue`].
struct CandidateEntity {
    values: Vec<PreparedValue>,
    text_corpus: PreparedCorpus,
}

fn literal_values(
    ds: &Dataset,
    idx: &EntityIndex,
    id: u32,
    interner: &mut TokenInterner,
) -> Vec<PreparedValue> {
    ds.graph()
        .matching(Some(idx.term(id)), None, None)
        .filter(|t| t.object.is_literal())
        .map(|t| PreparedValue::prepare(typed_value(ds, t.object), interner))
        .collect()
}

fn is_text(v: &PreparedValue) -> bool {
    matches!(v.value(), TypedValue::Text(_))
}

impl ProbeEntity {
    fn build(
        ds: &Dataset,
        idx: &EntityIndex,
        id: u32,
        interner: &mut TokenInterner,
    ) -> ProbeEntity {
        ProbeEntity {
            values: literal_values(ds, idx, id, interner),
        }
    }

    /// The best similarity between any literal of this entity and any
    /// literal of `cand` — equal to [`best_literal_similarity`] on the raw
    /// terms, including its ≥ 1.0 short-circuit.
    fn best_against(&self, cand: &CandidateEntity) -> f64 {
        let mut best = 0.0f64;
        // Text × text: batch kernel sweeps over the packed corpus.
        for probe in self.values.iter().filter(|v| is_text(v)) {
            best = best.max(best_in(probe.text(), &cand.text_corpus));
            if best >= 1.0 {
                return 1.0;
            }
        }
        // Every combination with a non-text side: generic prepared path.
        for lv in &self.values {
            for rv in &cand.values {
                if is_text(lv) && is_text(rv) {
                    continue;
                }
                best = best.max(prepared_similarity(lv, rv));
                if best >= 1.0 {
                    return 1.0;
                }
            }
        }
        best
    }
}

impl CandidateEntity {
    fn build(
        ds: &Dataset,
        idx: &EntityIndex,
        id: u32,
        interner: &mut TokenInterner,
    ) -> CandidateEntity {
        let values = literal_values(ds, idx, id, interner);
        let mut text_corpus = PreparedCorpus::new();
        for v in values.iter().filter(|v| is_text(v)) {
            text_corpus.push_prepared(v.text());
        }
        CandidateEntity {
            values,
            text_corpus,
        }
    }
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
        // plus multi-valued entities — every dispatch arm of the batched
        // path must agree bitwise with the naive per-pair oracle.
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/label", "LeBron James");
        left.add_str("http://l/a", "http://l/born", "1984");
        left.add_str("http://l/b", "http://l/label", "Café München");
        left.add_str("http://l/b", "http://l/alt", "cafe muenchen");
        left.add_str("http://l/c", "http://l/num", "42");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/name", "James, LeBron");
        right.add_str("http://r/1", "http://r/year", "1984");
        right.add_str("http://r/2", "http://r/name", "Cafe Munchen");
        right.add_str("http://r/3", "http://r/name", "42.0");
        let (li, ri) = (left.entity_index(), right.entity_index());

        let mut interner = TokenInterner::new();
        let probes: Vec<ProbeEntity> = (0..li.len() as u32)
            .map(|id| ProbeEntity::build(&left, &li, id, &mut interner))
            .collect();
        let cands: Vec<CandidateEntity> = (0..ri.len() as u32)
            .map(|id| CandidateEntity::build(&right, &ri, id, &mut interner))
            .collect();
        for l in 0..li.len() as u32 {
            for r in 0..ri.len() as u32 {
                let batched = probes[l as usize].best_against(&cands[r as usize]);
                let naive = best_literal_similarity(&left, li.term(l), &right, ri.term(r));
                assert_eq!(batched.to_bits(), naive.to_bits(), "pair ({l}, {r})");
            }
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
