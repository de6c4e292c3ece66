//! Token blocking: cheap candidate-pair generation.
//!
//! Comparing every left entity against every right entity is quadratic and
//! infeasible at LOD scale. Token blocking builds an inverted index from
//! normalized value tokens to right-side entities and only pairs entities
//! that share at least one (non-stop) token — the standard first stage of
//! every link-discovery tool (SILK, LIMES, PARIS all block first).

use std::collections::{HashMap, HashSet};

use alex_rdf::{Dataset, EntityIndex, Term};
use alex_sim::normalize;

/// Blocking configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingConfig {
    /// Tokens shorter than this are ignored.
    pub min_token_len: usize,
    /// Tokens matching more than this fraction of right-side entities are
    /// treated as stop tokens (e.g. a category shared by every entity).
    pub max_posting_frac: f64,
    /// Minimum number of shared tokens for a pair to become a candidate.
    pub min_shared_tokens: usize,
    /// Skip tokens consisting only of digits. Numbers (years, populations,
    /// zip codes) collide massively across unrelated entities — a shared
    /// "1975" says nothing about identity.
    pub skip_numeric_tokens: bool,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        BlockingConfig {
            min_token_len: 3,
            // Low enough that closed-vocabulary values (categories,
            // occupations) become stop tokens: pairs must share a
            // *distinctive* token (name part, code) to be compared.
            max_posting_frac: 0.03,
            min_shared_tokens: 1,
            skip_numeric_tokens: true,
        }
    }
}

/// Blocking tokens of one entity: normalized tokens of every literal value
/// and of the local names of IRI values.
fn entity_tokens(ds: &Dataset, entity: Term) -> HashSet<String> {
    let mut tokens = HashSet::new();
    for t in ds.graph().matching(Some(entity), None, None) {
        let text = match t.object {
            Term::Literal(lit) => ds.resolve_sym(lit.lexical).to_string(),
            Term::Iri(sym) => alex_sim::iri_local_name(ds.resolve_sym(sym)).to_string(),
            Term::Blank(_) => continue,
        };
        for tok in normalize(&text).split(' ') {
            if !tok.is_empty() {
                tokens.insert(tok.to_string());
            }
        }
    }
    tokens
}

/// Generate candidate `(left_id, right_id)` pairs via token blocking.
///
/// The result is sorted and duplicate-free. Cost is proportional to the sum
/// of posting-list-pair products, not to `|left| × |right|`.
pub fn candidate_pairs(
    left: &Dataset,
    left_idx: &EntityIndex,
    right: &Dataset,
    right_idx: &EntityIndex,
    cfg: &BlockingConfig,
) -> Vec<(u32, u32)> {
    let usable = |tok: &str| {
        tok.len() >= cfg.min_token_len
            && !(cfg.skip_numeric_tokens && tok.bytes().all(|b| b.is_ascii_digit()))
    };

    // Inverted index over the right side.
    let mut postings: HashMap<String, Vec<u32>> = HashMap::new();
    for (rid, term) in right_idx.iter() {
        for tok in entity_tokens(right, term) {
            if usable(&tok) {
                postings.entry(tok).or_default().push(rid);
            }
        }
    }
    // Fractional threshold with an absolute floor: on small data sets a
    // fraction of the entity count degenerates to 1 and every repeated
    // token would become a stop token.
    let max_postings = (((right_idx.len() as f64) * cfg.max_posting_frac).ceil() as usize).max(4);

    let mut shared_counts: HashMap<(u32, u32), usize> = HashMap::new();
    for (lid, term) in left_idx.iter() {
        for tok in entity_tokens(left, term) {
            if !usable(&tok) {
                continue;
            }
            let Some(list) = postings.get(&tok) else {
                continue;
            };
            if list.len() > max_postings {
                continue; // stop token
            }
            for &rid in list {
                *shared_counts.entry((lid, rid)).or_insert(0) += 1;
            }
        }
    }

    let mut pairs: Vec<(u32, u32)> = shared_counts
        .into_iter()
        .filter(|&(_, n)| n >= cfg.min_shared_tokens)
        .map(|(pair, _)| pair)
        .collect();
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datasets() -> (Dataset, Dataset) {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/o/label", "LeBron James");
        left.add_str("http://l/b", "http://l/o/label", "Michael Jordan");
        left.add_str("http://l/c", "http://l/o/label", "Silverford");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/p/name", "James, LeBron");
        right.add_str("http://r/2", "http://r/p/name", "Jordan, Michael");
        right.add_str("http://r/3", "http://r/p/name", "Unrelated Entity");
        (left, right)
    }

    #[test]
    fn pairs_require_shared_tokens() {
        let (left, right) = datasets();
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        // a↔1 (james/lebron), b↔2 (michael/jordan); c and 3 match nothing.
        assert_eq!(pairs.len(), 2);
        let terms: Vec<(String, String)> = pairs
            .iter()
            .map(|&(l, r)| {
                (
                    left.resolve(li.term(l)).to_string(),
                    right.resolve(ri.term(r)).to_string(),
                )
            })
            .collect();
        assert!(terms.contains(&("http://l/a".to_string(), "http://r/1".to_string())));
        assert!(terms.contains(&("http://l/b".to_string(), "http://r/2".to_string())));
    }

    #[test]
    fn stop_tokens_are_skipped() {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for i in 0..50 {
            left.add_str(&format!("http://l/{i}"), "http://l/p", "common");
            right.add_str(&format!("http://r/{i}"), "http://r/p", "common");
        }
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        // "common" appears in 100% of right entities — a stop token.
        assert!(pairs.is_empty());
    }

    #[test]
    fn min_shared_tokens_filters() {
        let (left, right) = datasets();
        let (li, ri) = (left.entity_index(), right.entity_index());
        let cfg = BlockingConfig {
            min_shared_tokens: 2,
            ..BlockingConfig::default()
        };
        let pairs = candidate_pairs(&left, &li, &right, &ri, &cfg);
        // a↔1 and b↔2 share two tokens each.
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn short_tokens_ignored() {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/p", "ab xy");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/p", "ab xy");
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        assert!(pairs.is_empty(), "2-char tokens must not block");
    }

    #[test]
    fn numeric_tokens_do_not_block() {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/p", "born 1975");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/q", "1975");
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        assert!(pairs.is_empty(), "a shared year must not block");
        let cfg = BlockingConfig {
            skip_numeric_tokens: false,
            ..BlockingConfig::default()
        };
        let pairs = candidate_pairs(&left, &li, &right, &ri, &cfg);
        assert_eq!(pairs.len(), 1, "numeric blocking can be re-enabled");
    }

    #[test]
    fn iri_objects_contribute_local_names() {
        let mut left = Dataset::new("L");
        left.add_iri("http://l/a", "http://l/p/team", "http://l/Miami_Heat");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/p/club", "Miami Heat");
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let (left, right) = datasets();
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
    }
}
