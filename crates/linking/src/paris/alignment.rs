//! The iterative probabilistic alignment at the heart of the PARIS-like
//! linker.
//!
//! Simplified from Suchanek et al. (PVLDB 2011) but preserving its three
//! mutually recursive estimates:
//!
//! 1. **Entity equivalence** `P(x ≡ y)` — combined by a noisy-or over shared
//!    attribute evidence, each piece weighted by inverse functionality and
//!    the current relation alignment;
//! 2. **Relation alignment** `align(r, r')` — the probability that values of
//!    `r` and `r'` agree on currently-matched entity pairs;
//! 3. **Value equivalence** — literal similarity for literals, and for
//!    IRI-valued attributes the current entity-equivalence estimate
//!    (so matched teams reinforce player matches).
//!
//! Iterating the three to a fixed point is what makes PARIS holistic.
//!
//! ## Hot-path layout
//!
//! The inner loop compares every attribute of `x` against every attribute
//! of `y` for every candidate pair, every pass. Two structures keep that
//! loop allocation-free:
//!
//! * a θ-sparse [`ValueScores`] table over both sides' [`SideValues`],
//!   built once before the first pass at `sim_threshold`: every distinct
//!   value pair the candidates meet is scored once, and a pair the table
//!   misses scored below the floor, so it is discarded exactly as the
//!   floor test below would discard it;
//! * `ScoreTable` — the previous pass's equivalence estimates in a dense
//!   pair-indexed `Vec<f64>` (0.0 = no evidence), with the pair→index map
//!   built once; the hot path does one hash probe instead of building and
//!   cloning a `HashMap` per pass.
//!
//! Every pass retains snapshot semantics: each pair scores against the
//! estimates from the *previous* pass only, so per-pair scoring fans out
//! over the pool with an ordered merge and the result is byte-identical at
//! any thread count.

use std::collections::HashMap;

use alex_parallel::Pool;
use alex_rdf::{Dataset, EntityIndex, Sym};
use alex_sim::TokenInterner;
use alex_telemetry::{emit, span, Event};

use super::functionality::Functionality;
use crate::candidates::{LinkSet, ScoredLink};
use crate::scores::ValueScores;
use crate::values::{SideValues, ValueId};

/// Tunables for the alignment iteration.
#[derive(Debug, Clone, Copy)]
pub struct AlignmentConfig {
    /// Number of refinement iterations after the bootstrap pass.
    pub iterations: usize,
    /// Value-similarity floor: evidence below this contributes nothing.
    pub sim_threshold: f64,
    /// Entity pairs above this score count as "matched" when estimating
    /// relation alignment.
    pub match_threshold: f64,
}

impl Default for AlignmentConfig {
    fn default() -> Self {
        AlignmentConfig {
            iterations: 2,
            sim_threshold: 0.6,
            match_threshold: 0.5,
        }
    }
}

/// One data set as the alignment reads it: its entities' attribute
/// values, its predicates' functionality, and for each value the indexed
/// entity it names, if it is an IRI that does.
struct Side {
    values: SideValues,
    fun: Functionality,
    entities: Vec<Option<u32>>,
}

impl Side {
    fn new(ds: &Dataset, idx: &EntityIndex, interner: &mut TokenInterner) -> Side {
        let values = SideValues::build(ds, idx, interner);
        let entities = (0..values.value_count() as u32)
            .map(|v| {
                let term = values.term(ValueId(v));
                if term.is_iri() {
                    idx.id(term)
                } else {
                    None
                }
            })
            .collect();
        Side {
            values,
            fun: Functionality::compute(ds),
            entities,
        }
    }

    fn entity(&self, v: ValueId) -> Option<u32> {
        self.entities[v.0 as usize]
    }
}

/// The previous pass's equivalence estimates, dense over the candidate
/// pair list: `scores[i]` belongs to `pairs[i]`, 0.0 meaning "no
/// evidence" (the sparse map never stored non-positive scores, and
/// `sim.max(0.0)` is the identity, so the dense default is equivalent).
struct ScoreTable {
    /// Pair → index into `scores`; built once, reused every pass.
    index: HashMap<(u32, u32), u32>,
    scores: Vec<f64>,
}

impl ScoreTable {
    fn new(pairs: &[(u32, u32)]) -> ScoreTable {
        let index = pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, u32::try_from(i).expect("pair count fits u32")))
            .collect();
        ScoreTable {
            index,
            scores: vec![0.0; pairs.len()],
        }
    }

    #[inline]
    fn get(&self, l: u32, r: u32) -> f64 {
        match self.index.get(&(l, r)) {
            Some(&i) => self.scores[i as usize],
            None => 0.0,
        }
    }

    fn positive(&self) -> usize {
        self.scores.iter().filter(|&&s| s > 0.0).count()
    }
}

/// Run the alignment over the blocked candidate pairs, returning the raw
/// (not yet thresholded or one-to-one) scored links.
///
/// # Panics
///
/// If `pairs` is not sorted by `(left, right)` without duplicates, as
/// blocking returns them.
pub fn align(
    left: &Dataset,
    left_idx: &EntityIndex,
    right: &Dataset,
    right_idx: &EntityIndex,
    pairs: &[(u32, u32)],
    cfg: &AlignmentConfig,
) -> LinkSet {
    // Both sides share one token interner: token ids must agree across
    // data sets for the interned Jaccard kernel.
    let mut interner = TokenInterner::new();
    let left = Side::new(left, left_idx, &mut interner);
    let right = Side::new(right, right_idx, &mut interner);

    let pool = Pool::new("paris");
    let sims = ValueScores::build(&left.values, &right.values, pairs, cfg.sim_threshold, &pool);
    let mut table = ScoreTable::new(pairs);

    // Pass 0 bootstraps with a uniform relation alignment and no previous
    // equivalence estimates; passes 1..=iterations re-estimate both.
    for pass in 0..=cfg.iterations {
        let pass_span = span(if pass == 0 {
            "paris/bootstrap"
        } else {
            "paris/iteration"
        });
        let rel_align = if pass == 0 {
            RelationAlignment::uniform()
        } else {
            RelationAlignment::estimate(&left, &right, &sims, pairs, &table, cfg, &pool)
        };
        // Ordered merge: scores come back in pair order, byte-identical to
        // the sequential map at any thread count.
        table.scores = pool.map(pairs, |&pair| {
            pair_score(&left, &right, pair, &sims, &rel_align, &table, cfg)
        });
        emit!(Event::ParisIteration {
            iteration: pass as u64,
            matches: table.positive() as u64,
            duration_us: pass_span.elapsed().as_micros() as u64,
        });
    }

    // Emit links in (left, right) order: the candidate pair slice's order
    // is the blocker's, and downstream consumers (diffs, link dumps, the
    // one-to-one pass on score ties) deserve a reproducible sequence.
    let mut links: Vec<ScoredLink> = pairs
        .iter()
        .zip(&table.scores)
        .filter(|&(_, &s)| s > 0.0)
        .map(|(&(l, r), &score)| ScoredLink {
            left: l,
            right: r,
            score,
        })
        .collect();
    links.sort_by_key(|l| (l.left, l.right));
    links.into_iter().collect()
}

/// Pairwise relation alignment estimates.
struct RelationAlignment {
    /// `align(r, r')` for observed relation pairs; `None` map = uniform 1.0.
    table: Option<HashMap<(Sym, Sym), f64>>,
}

impl RelationAlignment {
    fn uniform() -> Self {
        RelationAlignment { table: None }
    }

    fn get(&self, l: Sym, r: Sym) -> f64 {
        match &self.table {
            None => 1.0,
            Some(t) => t.get(&(l, r)).copied().unwrap_or(0.1),
        }
    }

    /// Estimate `align(r, r')` from currently-matched pairs: the fraction of
    /// matches where some value of `r` agrees (similarity above the floor)
    /// with some value of `r'`. A value pair the table misses scored below
    /// the floor, so it never agrees.
    ///
    /// Matched pairs are filtered sequentially (one dense-table scan), then
    /// chunk-local agree/seen counts fan out over `pool` and merge by
    /// addition in chunk order — exact for integer-valued `f64` counters,
    /// so the table is independent of both chunk boundaries and thread
    /// count.
    fn estimate(
        left: &Side,
        right: &Side,
        sims: &ValueScores,
        pairs: &[(u32, u32)],
        table: &ScoreTable,
        cfg: &AlignmentConfig,
        pool: &Pool,
    ) -> Self {
        type Counts = HashMap<(Sym, Sym), (f64, f64)>;
        let matched: Vec<(u32, u32)> = pairs
            .iter()
            .zip(&table.scores)
            .filter(|&(_, &s)| s >= cfg.match_threshold)
            .map(|(&p, _)| p)
            .collect();
        let chunks = pool.map_chunks(&matched, |chunk| {
            let mut counts = Counts::new();
            for &(l, r) in chunk {
                for &(lp, lv) in left.values.attrs(l) {
                    for &(rp, rv) in right.values.attrs(r) {
                        let entry = counts.entry((lp, rp)).or_insert((0.0, 0.0));
                        entry.1 += 1.0;
                        if sims.score(lv, rv) >= cfg.sim_threshold {
                            entry.0 += 1.0;
                        }
                    }
                }
            }
            counts
        });
        let mut counts = Counts::new();
        for partial in chunks {
            for (key, (a, n)) in partial {
                let entry = counts.entry(key).or_insert((0.0, 0.0));
                entry.0 += a;
                entry.1 += n;
            }
        }
        let table = counts
            .into_iter()
            .map(|(key, (a, n))| {
                // Laplace-smoothed agreement rate.
                (key, (a + 0.5) / (n + 1.0))
            })
            .collect();
        RelationAlignment { table: Some(table) }
    }
}

/// Noisy-or combination of attribute evidence for one candidate pair.
///
/// Factor order is the attribute order — the triple store's iteration
/// order — so the floating-point product is reproducible. A value pair
/// the table misses scored below `sim_threshold`; as `f64::NEG_INFINITY`
/// it yields to an IRI pair's previous estimate in `max`, and is skipped
/// by the floor test otherwise, exactly as its true score would be.
fn pair_score(
    left: &Side,
    right: &Side,
    (l, r): (u32, u32),
    sims: &ValueScores,
    rel_align: &RelationAlignment,
    prev: &ScoreTable,
    cfg: &AlignmentConfig,
) -> f64 {
    let mut not_equal = 1.0f64;
    for &(lp, lv) in left.values.attrs(l) {
        for &(rp, rv) in right.values.attrs(r) {
            let mut sim = sims.score(lv, rv);
            // IRI-valued objects: reuse the previous pass's
            // entity-equivalence estimate when both objects are indexed
            // entities.
            if let (Some(li), Some(ri)) = (left.entity(lv), right.entity(rv)) {
                sim = sim.max(prev.get(li, ri));
            }
            if sim < cfg.sim_threshold {
                continue;
            }
            let weight = right.fun.ifun(rp).max(left.fun.ifun(lp)) * rel_align.get(lp, rp);
            let evidence = (weight * sim).clamp(0.0, 1.0);
            not_equal *= 1.0 - evidence;
        }
    }
    1.0 - not_equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::Term;

    fn build() -> (Dataset, Dataset) {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/label", "LeBron James");
        left.add_str("http://l/a", "http://l/type", "person");
        left.add_str("http://l/b", "http://l/label", "Michael Jordan");
        left.add_str("http://l/b", "http://l/type", "person");
        left.add_str("http://l/c", "http://l/label", "Kobe Bryant");
        left.add_str("http://l/c", "http://l/type", "person");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/name", "LeBron James");
        right.add_str("http://r/1", "http://r/class", "person");
        right.add_str("http://r/2", "http://r/name", "Michael Jordan");
        right.add_str("http://r/2", "http://r/class", "person");
        right.add_str("http://r/3", "http://r/name", "Tim Duncan");
        right.add_str("http://r/3", "http://r/class", "person");
        (left, right)
    }

    fn all_pairs(li: &EntityIndex, ri: &EntityIndex) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for l in 0..li.len() as u32 {
            for r in 0..ri.len() as u32 {
                out.push((l, r));
            }
        }
        out
    }

    #[test]
    fn matching_names_score_higher_than_type_only() {
        let (left, right) = build();
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = all_pairs(&li, &ri);
        let links = align(&left, &li, &right, &ri, &pairs, &AlignmentConfig::default());
        let score_of = |l: &str, r: &str| {
            let lt = li
                .id(left.interner().get(l).map(Term::Iri).unwrap())
                .unwrap();
            let rt = ri
                .id(right.interner().get(r).map(Term::Iri).unwrap())
                .unwrap();
            links
                .iter()
                .find(|x| x.left == lt && x.right == rt)
                .map(|x| x.score)
                .unwrap_or(0.0)
        };
        let same = score_of("http://l/a", "http://r/1");
        let cross = score_of("http://l/a", "http://r/3");
        assert!(same > 0.6, "same-name pair scored {same}");
        assert!(
            same > cross + 0.3,
            "same {same} not clearly above cross {cross}"
        );
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let (left, right) = build();
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = all_pairs(&li, &ri);
        let links = align(&left, &li, &right, &ri, &pairs, &AlignmentConfig::default());
        for l in links.iter() {
            assert!((0.0..=1.0).contains(&l.score), "{:?}", l);
        }
    }

    #[test]
    fn empty_pairs_give_empty_links() {
        let (left, right) = build();
        let (li, ri) = (left.entity_index(), right.entity_index());
        let links = align(&left, &li, &right, &ri, &[], &AlignmentConfig::default());
        assert!(links.is_empty());
    }

    #[test]
    fn iri_objects_propagate_equivalence() {
        // Players point at teams; team names match, so after iteration the
        // players that share only the team attribute still gain score.
        let mut left = Dataset::new("L");
        left.add_str("http://l/heat", "http://l/label", "Miami Heat");
        left.add_iri("http://l/p1", "http://l/team", "http://l/heat");
        left.add_str("http://l/p1", "http://l/label", "LeBron James");
        let mut right = Dataset::new("R");
        right.add_str("http://r/heat", "http://r/name", "Miami Heat");
        right.add_iri("http://r/p1", "http://r/club", "http://r/heat");
        right.add_str("http://r/p1", "http://r/name", "LeBron James");
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = all_pairs(&li, &ri);
        let cfg = AlignmentConfig {
            iterations: 3,
            ..AlignmentConfig::default()
        };
        let links = align(&left, &li, &right, &ri, &pairs, &cfg);
        let p1_l = li
            .id(Term::Iri(left.interner().get("http://l/p1").unwrap()))
            .unwrap();
        let p1_r = ri
            .id(Term::Iri(right.interner().get("http://r/p1").unwrap()))
            .unwrap();
        let s = links
            .iter()
            .find(|x| x.left == p1_l && x.right == p1_r)
            .map(|x| x.score)
            .unwrap_or(0.0);
        assert!(s > 0.8, "player pair scored {s}");
    }

    #[test]
    fn alignment_byte_identical_across_thread_counts() {
        let (left, right) = build();
        let (li, ri) = (left.entity_index(), right.entity_index());
        let pairs = all_pairs(&li, &ri);
        let run = |threads: usize| {
            alex_parallel::set_threads(threads);
            let links = align(&left, &li, &right, &ri, &pairs, &AlignmentConfig::default());
            alex_parallel::set_threads(0);
            links
                .iter()
                .map(|l| (l.left, l.right, l.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }
}
