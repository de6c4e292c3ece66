//! Property-based tests for the linking substrate: blocking soundness,
//! PARIS score bounds, one-to-one assignment invariants, and PARIS's
//! table-backed alignment against a per-pair transcription.

use std::collections::HashMap;

use alex_linking::paris::alignment::align;
use alex_linking::{
    candidate_pairs, AlignmentConfig, BlockingConfig, Functionality, LinkSet, Paris, ScoredLink,
};
use alex_rdf::{vocab, Dataset, EntityIndex, Sym};
use alex_sim::{prepared_similarity, typed_value, PreparedValue, TokenInterner};
use proptest::prelude::*;

fn datasets_from(names: &[String]) -> (Dataset, Dataset) {
    let mut left = Dataset::new("L");
    let mut right = Dataset::new("R");
    for (i, name) in names.iter().enumerate() {
        left.add_str(&format!("http://l/{i}"), "http://l/label", name);
        right.add_str(&format!("http://r/{i}"), "http://r/name", name);
    }
    (left, right)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocking is sound: every returned pair shares at least one usable
    /// token; and it is symmetric-ish in content (ids are valid).
    #[test]
    fn blocking_pairs_are_valid_ids(
        names in proptest::collection::vec("[a-z]{4,9} [a-z]{4,9}", 2..12)
    ) {
        let (left, right) = datasets_from(&names);
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        for &(l, r) in &pairs {
            prop_assert!((l as usize) < li.len());
            prop_assert!((r as usize) < ri.len());
        }
        // Sorted, no duplicates.
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(pairs, sorted);
    }

    /// Identical names must block (they share every token), as long as the
    /// token is usable (alphabetic, ≥3 chars, not a stop token).
    #[test]
    fn exact_duplicates_always_block(
        names in proptest::collection::vec("[a-z]{4,9} [a-z]{4,9}", 2..10)
    ) {
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        prop_assume!(distinct.len() == names.len());
        let (left, right) = datasets_from(&names);
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = candidate_pairs(&left, &li, &right, &ri, &BlockingConfig::default());
        for i in 0..names.len() {
            let lt = left.interner().get(&format!("http://l/{i}")).map(alex_rdf::Term::Iri).unwrap();
            let rt = right.interner().get(&format!("http://r/{i}")).map(alex_rdf::Term::Iri).unwrap();
            let (lid, rid) = (li.id(lt).unwrap(), ri.id(rt).unwrap());
            // Unless its tokens are stop tokens (many duplicates), the
            // diagonal pair must be a candidate.
            let token_count = names.iter().filter(|n| {
                n.split(' ').any(|t| names[i].split(' ').any(|u| u == t))
            }).count();
            if token_count <= 4 {
                prop_assert!(
                    pairs.contains(&(lid, rid)),
                    "diagonal pair {i} missing ({} shared-token names)",
                    token_count
                );
            }
        }
    }

    /// PARIS scores stay in [0, 1] and its one-to-one output never repeats
    /// an endpoint.
    #[test]
    fn paris_output_is_one_to_one_with_unit_scores(
        names in proptest::collection::vec("[a-z]{4,9} [a-z]{4,9}", 2..10)
    ) {
        let (left, right) = datasets_from(&names);
        let out = Paris::new().link(&left, &right);
        let mut lefts = std::collections::HashSet::new();
        let mut rights = std::collections::HashSet::new();
        for l in out.links.iter() {
            prop_assert!((0.0..=1.0).contains(&l.score), "{l:?}");
            prop_assert!(lefts.insert(l.left));
            prop_assert!(rights.insert(l.right));
        }
    }

    /// LinkSet::one_to_one keeps the best-scoring assignment greedily and
    /// never increases the link count.
    #[test]
    fn one_to_one_invariants(
        raw in proptest::collection::vec((0u32..8, 0u32..8, 0.0f64..1.0), 0..40)
    ) {
        let set = LinkSet::from_links(
            raw.iter().map(|&(l, r, s)| ScoredLink { left: l, right: r, score: s }).collect()
        );
        let assigned = set.one_to_one();
        prop_assert!(assigned.len() <= set.len());
        let mut lefts = std::collections::HashSet::new();
        let mut rights = std::collections::HashSet::new();
        for l in assigned.iter() {
            prop_assert!(lefts.insert(l.left));
            prop_assert!(rights.insert(l.right));
        }
        // The top-scoring link overall always survives.
        if let Some(best) = set
            .iter()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
        {
            prop_assert!(
                assigned.iter().any(|l| l.score >= best.score - 1e-12),
                "the globally best link must be kept"
            );
        }
    }

    /// PARIS alignment is byte-identical at every thread count: the
    /// pool's slot-indexed reassembly and the chunk-ordered
    /// merges must leave no trace of the schedule in the scores.
    #[test]
    fn paris_byte_identical_across_thread_counts(
        names in proptest::collection::vec("[a-z]{4,9} [a-z]{4,9}", 3..9)
    ) {
        let (left, right) = datasets_from(&names);
        let fingerprint = |threads: usize| {
            alex_parallel::set_threads(threads);
            let out = Paris::new().link(&left, &right);
            alex_parallel::set_threads(0);
            out.links
                .iter()
                .map(|l| (l.left, l.right, l.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let reference = fingerprint(1);
        for threads in [2, 4, 8] {
            prop_assert_eq!(&fingerprint(threads), &reference, "threads = {}", threads);
        }
    }

    /// `align`'s raw scores are bitwise those of a plain transcription of
    /// the alignment that scores every attribute pair with
    /// `prepared_similarity`, on random players that point at random
    /// teams (IRI objects naming indexed entities, and one naming
    /// nothing), at value floors from 0 to 1.
    #[test]
    fn align_matches_per_pair_oracle(
        players in proptest::collection::vec(
            ("[a-c]{2,5} [a-d]{2,5}", "[a-c]{2,5} [a-d]{2,5}", 0usize..3, 0usize..3, 1970i64..1990),
            1..7
        ),
        teams in proptest::collection::vec(("[a-c]{3,6}", "[a-c]{3,6}"), 3..4),
        floor in 0usize..5,
        dense in proptest::bool::ANY
    ) {
        let (left, right) = team_datasets(&players, &teams);
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs: Vec<(u32, u32)> = if dense {
            (0..li.len() as u32).flat_map(|l| (0..ri.len() as u32).map(move |r| (l, r))).collect()
        } else {
            candidate_pairs(&left, &li, &right, &ri, &BlockingConfig {
                min_token_len: 1,
                max_posting_frac: 1.0,
                min_shared_tokens: 1,
                skip_numeric_tokens: false,
            })
        };
        let cfg = AlignmentConfig {
            iterations: 3,
            sim_threshold: [0.0, 0.3, 0.6, 0.9, 1.0][floor],
            match_threshold: 0.4,
        };
        let got: Vec<(u32, u32, u64)> = align(&left, &li, &right, &ri, &pairs, &cfg)
            .iter()
            .map(|l| (l.left, l.right, l.score.to_bits()))
            .collect();
        prop_assert_eq!(got, naive_align(&left, &li, &right, &ri, &pairs, &cfg));
    }
}

/// Players with a name, a team IRI, a typed birth year and a shared
/// nationality IRI that names no entity; teams with a name.
fn team_datasets(
    players: &[(String, String, usize, usize, i64)],
    teams: &[(String, String)],
) -> (Dataset, Dataset) {
    let mut left = Dataset::new("L");
    let mut right = Dataset::new("R");
    for (i, (l_name, r_name)) in teams.iter().enumerate() {
        left.add_str(&format!("http://l/team{i}"), "http://l/label", l_name);
        right.add_str(&format!("http://r/club{i}"), "http://r/name", r_name);
    }
    for (i, (l_name, r_name, l_team, r_team, born)) in players.iter().enumerate() {
        let (l, r) = (format!("http://l/p{i}"), format!("http://r/p{i}"));
        left.add_str(&l, "http://l/label", l_name);
        left.add_iri(&l, "http://l/team", &format!("http://l/team{l_team}"));
        left.add_typed(&l, "http://l/born", &born.to_string(), vocab::XSD_GYEAR);
        left.add_iri(&l, "http://l/nation", "http://l/Nowhere");
        right.add_str(&r, "http://r/name", r_name);
        right.add_iri(&r, "http://r/club", &format!("http://r/club{r_team}"));
        right.add_str(&r, "http://r/birthYear", &born.to_string());
    }
    (left, right)
}

/// Per entity, its `(predicate, prepared value, indexed entity the object
/// names)` attributes in triple-store order.
type Attrs = Vec<Vec<(Sym, PreparedValue, Option<u32>)>>;

fn naive_attrs(ds: &Dataset, idx: &EntityIndex, interner: &mut TokenInterner) -> Attrs {
    (0..idx.len() as u32)
        .map(|id| {
            ds.graph()
                .matching(Some(idx.term(id)), None, None)
                .map(|t| {
                    let value = PreparedValue::prepare(typed_value(ds, t.object), interner);
                    let entity = if t.object.is_iri() {
                        idx.id(t.object)
                    } else {
                        None
                    };
                    (t.predicate.as_iri().unwrap(), value, entity)
                })
                .collect()
        })
        .collect()
}

/// The alignment transcribed plainly: every attribute pair of every
/// candidate scored with `prepared_similarity`, every pass, sequentially.
fn naive_align(
    left: &Dataset,
    li: &EntityIndex,
    right: &Dataset,
    ri: &EntityIndex,
    pairs: &[(u32, u32)],
    cfg: &AlignmentConfig,
) -> Vec<(u32, u32, u64)> {
    let (lf, rf) = (Functionality::compute(left), Functionality::compute(right));
    let mut interner = TokenInterner::new();
    let la = naive_attrs(left, li, &mut interner);
    let ra = naive_attrs(right, ri, &mut interner);
    let index: HashMap<(u32, u32), usize> =
        pairs.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut scores = vec![0.0f64; pairs.len()];
    for pass in 0..=cfg.iterations {
        let rel: Option<HashMap<(Sym, Sym), f64>> = (pass > 0).then(|| {
            let mut counts: HashMap<(Sym, Sym), (f64, f64)> = HashMap::new();
            for (&(l, r), &s) in pairs.iter().zip(&scores) {
                if s < cfg.match_threshold {
                    continue;
                }
                for (lp, lv, _) in &la[l as usize] {
                    for (rp, rv, _) in &ra[r as usize] {
                        let entry = counts.entry((*lp, *rp)).or_insert((0.0, 0.0));
                        entry.1 += 1.0;
                        if prepared_similarity(lv, rv) >= cfg.sim_threshold {
                            entry.0 += 1.0;
                        }
                    }
                }
            }
            counts
                .into_iter()
                .map(|(k, (a, n))| (k, (a + 0.5) / (n + 1.0)))
                .collect()
        });
        let prev = |l: u32, r: u32| index.get(&(l, r)).map_or(0.0, |&i| scores[i]);
        let next: Vec<f64> = pairs
            .iter()
            .map(|&(l, r)| {
                let mut not_equal = 1.0f64;
                for (lp, lv, le) in &la[l as usize] {
                    for (rp, rv, re) in &ra[r as usize] {
                        let mut sim = prepared_similarity(lv, rv);
                        if let (Some(a), Some(b)) = (le, re) {
                            sim = sim.max(prev(*a, *b));
                        }
                        if sim < cfg.sim_threshold {
                            continue;
                        }
                        let align = rel
                            .as_ref()
                            .map_or(1.0, |t| t.get(&(*lp, *rp)).copied().unwrap_or(0.1));
                        let weight = rf.ifun(*rp).max(lf.ifun(*lp)) * align;
                        not_equal *= 1.0 - (weight * sim).clamp(0.0, 1.0);
                    }
                }
                1.0 - not_equal
            })
            .collect();
        scores = next;
    }
    let mut out: Vec<(u32, u32, u64)> = pairs
        .iter()
        .zip(&scores)
        .filter(|&(_, &s)| s > 0.0)
        .map(|(&(l, r), &s)| (l, r, s.to_bits()))
        .collect();
    out.sort_unstable_by_key(|&(l, r, _)| (l, r));
    out
}
