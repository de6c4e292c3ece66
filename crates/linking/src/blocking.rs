//! Token blocking: cheap candidate-pair generation.
//!
//! Comparing every left entity against every right entity is quadratic and
//! infeasible at LOD scale. Token blocking builds an inverted index from
//! normalized value tokens to right-side entities and only pairs entities
//! that share at least one (non-stop) token — the standard first stage of
//! every link-discovery tool (SILK, LIMES, PARIS all block first).

use std::collections::HashMap;

use alex_rdf::{Dataset, EntityIndex, Term};
use alex_sim::{normalize, TokenInterner};

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

/// One side's blocking tokens: per entity, the distinct usable tokens of
/// its object values as dense ids, `ids[starts[e]..starts[e + 1]]`.
struct SideTokens {
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl SideTokens {
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn of(&self, e: usize) -> &[u32] {
        &self.ids[self.starts[e] as usize..self.starts[e + 1] as usize]
    }
}

/// Whether `tok`, a normalized token, may block under `cfg`.
fn usable(tok: &str, cfg: &BlockingConfig) -> bool {
    tok.len() >= cfg.min_token_len
        && !(cfg.skip_numeric_tokens && tok.bytes().all(|b| b.is_ascii_digit()))
}

/// Append to `out` the ids of the usable tokens of `normalize(text)`.
fn intern_usable(
    text: &str,
    cfg: &BlockingConfig,
    interner: &mut TokenInterner,
    out: &mut Vec<u32>,
) {
    for tok in normalize(text).split(' ') {
        if !tok.is_empty() && usable(tok, cfg) {
            out.push(interner.intern(tok));
        }
    }
}

/// The text a value blocks on: the lexical form of a literal, the local
/// name of an IRI, nothing for a blank node.
fn block_text(ds: &Dataset, term: Term) -> Option<&str> {
    match term {
        Term::Literal(lit) => Some(ds.resolve_sym(lit.lexical)),
        Term::Iri(sym) => Some(alex_sim::iri_local_name(ds.resolve_sym(sym))),
        Term::Blank(_) => None,
    }
}

/// One side's blocking tokens: each distinct object term is normalized
/// and interned once, and each entity takes the union of its terms' ids.
fn side_tokens(
    ds: &Dataset,
    idx: &EntityIndex,
    cfg: &BlockingConfig,
    interner: &mut TokenInterner,
) -> SideTokens {
    // Term `v`'s usable token ids are value_ids[value_starts[v]..value_starts[v + 1]].
    let mut value_of: HashMap<Term, u32> = HashMap::new();
    let (mut value_starts, mut value_ids) = (vec![0u32], Vec::new());
    // `stamp[t] == e` marks token `t` as taken by entity `e` already.
    let mut stamp: Vec<u32> = Vec::new();
    let mut starts = Vec::with_capacity(idx.len() + 1);
    let mut ids = Vec::new();
    starts.push(0);
    for (e, entity) in idx.iter() {
        for t in ds.graph().matching(Some(entity), None, None) {
            let v = *value_of.entry(t.object).or_insert_with(|| {
                if let Some(text) = block_text(ds, t.object) {
                    intern_usable(text, cfg, interner, &mut value_ids);
                }
                value_starts.push(value_ids.len() as u32);
                value_starts.len() as u32 - 2
            });
            stamp.resize(interner.len(), u32::MAX);
            let (lo, hi) = (value_starts[v as usize], value_starts[v as usize + 1]);
            for &tok in &value_ids[lo as usize..hi as usize] {
                if stamp[tok as usize] != e {
                    stamp[tok as usize] = e;
                    ids.push(tok);
                }
            }
        }
        starts.push(ids.len() as u32);
    }
    SideTokens { starts, ids }
}

/// The candidate pairs of two sides' blocking tokens, over a shared id
/// space of `tokens` ids: a right posting list per token, and per left
/// entity one dense count per right entity.
fn block(
    left: &SideTokens,
    right: &SideTokens,
    tokens: usize,
    cfg: &BlockingConfig,
) -> Vec<(u32, u32)> {
    // Inverted index over the right side, each list ascending.
    let mut post_starts = vec![0u32; tokens + 1];
    for &t in &right.ids {
        post_starts[t as usize + 1] += 1;
    }
    for t in 0..tokens {
        post_starts[t + 1] += post_starts[t];
    }
    let mut fill = post_starts.clone();
    let mut postings = vec![0u32; right.ids.len()];
    for rid in 0..right.len() {
        for &t in right.of(rid) {
            postings[fill[t as usize] as usize] = rid as u32;
            fill[t as usize] += 1;
        }
    }
    // Fractional threshold with an absolute floor: on small data sets a
    // fraction of the entity count degenerates to 1 and every repeated
    // token would become a stop token.
    let max_postings = (((right.len() as f64) * cfg.max_posting_frac).ceil() as usize).max(4);

    let mut shared = vec![0u32; right.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut pairs = Vec::new();
    for lid in 0..left.len() {
        for &t in left.of(lid) {
            let list =
                &postings[post_starts[t as usize] as usize..post_starts[t as usize + 1] as usize];
            if list.len() > max_postings {
                continue; // stop token
            }
            for &rid in list {
                if shared[rid as usize] == 0 {
                    touched.push(rid);
                }
                shared[rid as usize] += 1;
            }
        }
        touched.sort_unstable();
        for &rid in &touched {
            if shared[rid as usize] as usize >= cfg.min_shared_tokens {
                pairs.push((lid as u32, rid));
            }
            shared[rid as usize] = 0;
        }
        touched.clear();
    }
    pairs
}

/// Generate candidate `(left_id, right_id)` pairs via token blocking.
///
/// An entity's blocking tokens are the normalized tokens of the lexical
/// form of each literal object and of the local name of each IRI object.
/// The result is sorted and duplicate-free. Cost is proportional to the
/// sum of posting-list-pair products, not to `|left| × |right|`.
pub fn candidate_pairs(
    left: &Dataset,
    left_idx: &EntityIndex,
    right: &Dataset,
    right_idx: &EntityIndex,
    cfg: &BlockingConfig,
) -> Vec<(u32, u32)> {
    let mut interner = TokenInterner::new();
    let l = side_tokens(left, left_idx, cfg, &mut interner);
    let r = side_tokens(right, right_idx, cfg, &mut interner);
    block(&l, &r, interner.len(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{vocab, Triple};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Blocking as first written, a per-occurrence transcription: every
    /// literal and IRI local name is normalized where it occurs, into a
    /// string set per entity, and pairs are counted in a hash map.
    fn oracle(
        left: &Dataset,
        left_idx: &EntityIndex,
        right: &Dataset,
        right_idx: &EntityIndex,
        cfg: &BlockingConfig,
    ) -> Vec<(u32, u32)> {
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
        let mut postings: HashMap<String, Vec<u32>> = HashMap::new();
        for (rid, term) in right_idx.iter() {
            for tok in entity_tokens(right, term) {
                if usable(&tok, cfg) {
                    postings.entry(tok).or_default().push(rid);
                }
            }
        }
        let max_postings =
            (((right_idx.len() as f64) * cfg.max_posting_frac).ceil() as usize).max(4);
        let mut shared_counts: HashMap<(u32, u32), usize> = HashMap::new();
        for (lid, term) in left_idx.iter() {
            for tok in entity_tokens(left, term) {
                if !usable(&tok, cfg) {
                    continue;
                }
                let Some(list) = postings.get(&tok) else {
                    continue;
                };
                if list.len() > max_postings {
                    continue;
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

    /// Object texts drawn from a small vocabulary, so that tokens repeat
    /// across entities and sides; numbers, dates and booleans among them.
    const WORDS: [&str; 12] = [
        "Miami Heat",
        "heat",
        "LeBron_James",
        "james",
        "1e5",
        "-5",
        "true",
        "1984-12-30",
        "1984",
        "Café Müller",
        "x",
        "new york-ny",
    ];

    /// One data set from generated triples `(subject, kind, word, word)`:
    /// the kind picks a plain, language-tagged or typed literal, an IRI
    /// object with `#` or `/` before its local name, or a blank node.
    fn dataset(name: &str, triples: &[(u32, u32, usize, usize)]) -> Dataset {
        let mut ds = Dataset::new(name);
        for &(s, kind, a, b) in triples {
            let (s, p) = (
                format!("http://{name}/e{s}"),
                format!("http://{name}/p{kind}"),
            );
            let (a, b) = (WORDS[a % WORDS.len()], WORDS[b % WORDS.len()]);
            match kind {
                0 => ds.add_str(&s, &p, &format!("{a} {b}")),
                1 => ds.add_typed(&s, &p, a, vocab::XSD_INTEGER),
                2 => ds.add_typed(&s, &p, a, vocab::XSD_DOUBLE),
                3 => ds.add_typed(&s, &p, a, vocab::XSD_DATE),
                4 => ds.add_typed(&s, &p, a, vocab::XSD_BOOLEAN),
                5 => ds.add_typed(&s, &p, a, vocab::XSD_GYEAR),
                6 => ds.add_iri(
                    &s,
                    &p,
                    &format!("http://x.org/{}#{}", a, b).replace(' ', "_"),
                ),
                7 => ds.add_iri(
                    &s,
                    &p,
                    &format!("http://x.org/{}/{}", a, b).replace(' ', "_"),
                ),
                8 => {
                    let object = Term::Blank(ds.interner_mut().intern(&format!("b{a}")));
                    let (subject, predicate) = (ds.iri(&s), ds.iri(&p));
                    ds.insert(Triple {
                        subject,
                        predicate,
                        object,
                    })
                }
                _ => {
                    let object = ds.lang(a, "en");
                    let (subject, predicate) = (ds.iri(&s), ds.iri(&p));
                    ds.insert(Triple {
                        subject,
                        predicate,
                        object,
                    })
                }
            };
        }
        ds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Blocking returns the oracle's pairs under any configuration.
        #[test]
        fn blocking_matches_the_per_occurrence_oracle(
            left in proptest::collection::vec((0u32..10, 0u32..10, 0usize..12, 0usize..12), 0..40),
            right in proptest::collection::vec((0u32..10, 0u32..10, 0usize..12, 0usize..12), 0..40),
            min_token_len in 0usize..5,
            max_posting_frac in 0.0f64..0.6,
            min_shared_tokens in 0usize..3,
            skip_numeric_tokens in proptest::bool::ANY,
        ) {
            let cfg = BlockingConfig { min_token_len, max_posting_frac, min_shared_tokens, skip_numeric_tokens };
            let (left, right) = (dataset("l", &left), dataset("r", &right));
            let (li, ri) = (left.entity_index(), right.entity_index());
            prop_assert_eq!(
                candidate_pairs(&left, &li, &right, &ri, &cfg),
                oracle(&left, &li, &right, &ri, &cfg)
            );
        }
    }

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
