//! Quality metrics: precision, recall, F-measure (§7.1 "Evaluation
//! Metrics"), computed per episode against the ground truth.

use std::collections::HashSet;

use crate::candidates::CandidateSet;
use crate::space::LinkSpace;

/// Precision / recall / F-measure of a candidate set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// `P = |C ∩ G| / |C|`.
    pub precision: f64,
    /// `R = |C ∩ G| / |G|`.
    pub recall: f64,
    /// `F = 2PR / (P + R)`.
    pub f_measure: f64,
}

impl Quality {
    /// Compute quality for `candidates` against ground-truth entity-id pairs.
    pub fn evaluate(
        candidates: &CandidateSet,
        space: &LinkSpace,
        truth: &HashSet<(u32, u32)>,
    ) -> Quality {
        Quality::evaluate_counted(candidates, space, truth).1
    }

    /// Like [`Quality::evaluate`], also returning the number of correct
    /// candidates (needed to aggregate quality across partitions).
    pub fn evaluate_counted(
        candidates: &CandidateSet,
        space: &LinkSpace,
        truth: &HashSet<(u32, u32)>,
    ) -> (usize, Quality) {
        let correct = candidates
            .iter()
            .filter(|&id| truth.contains(&space.pair(id)))
            .count();
        (
            correct,
            Quality::from_counts(correct, candidates.len(), truth.len()),
        )
    }

    /// Quality from raw counts.
    pub fn from_counts(correct: usize, candidates: usize, truth: usize) -> Quality {
        let precision = if candidates == 0 {
            0.0
        } else {
            correct as f64 / candidates as f64
        };
        let recall = if truth == 0 {
            0.0
        } else {
            correct as f64 / truth as f64
        };
        let f_measure = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Quality {
            precision,
            recall,
            f_measure,
        }
    }
}

/// Per-episode report emitted by the run drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeReport {
    /// Episode number, starting at 1 (index 0 in figures is the initial state).
    pub episode: usize,
    /// Link quality after the episode.
    pub quality: Quality,
    /// Candidate-set size after the episode.
    pub candidates: usize,
    /// Number of correct candidates after the episode (for cross-partition
    /// aggregation).
    pub correct: usize,
    /// Links added during the episode (exploration).
    pub added: usize,
    /// Links removed during the episode (negative feedback + rollbacks).
    pub removed: usize,
    /// Fraction of this episode's feedback that was negative (Fig. 6b, 10c).
    pub negative_feedback_frac: f64,
    /// Number of rollbacks triggered during the episode.
    pub rollbacks: usize,
    /// Fraction of links changed vs. the previous episode's set
    /// (|added ∪ removed| / |previous|, the convergence signal).
    pub change_frac: f64,
    /// Wall-clock duration of the episode.
    pub duration: std::time::Duration,
    /// Whether the episode breached its budget (run supervision, §16):
    /// the episode still committed normally, but the run's completeness
    /// stamp records the overrun.
    pub degraded: bool,
}

/// Allow sampling-free quality math to be checked exactly.
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_basics() {
        let q = Quality::from_counts(50, 100, 200);
        assert_eq!(q.precision, 0.5);
        assert_eq!(q.recall, 0.25);
        assert!((q.f_measure - (2.0 * 0.5 * 0.25 / 0.75)).abs() < 1e-12);
    }

    #[test]
    fn empty_candidates() {
        let q = Quality::from_counts(0, 0, 10);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.f_measure, 0.0);
    }

    #[test]
    fn empty_truth() {
        let q = Quality::from_counts(0, 10, 0);
        assert_eq!(q.recall, 0.0);
    }

    #[test]
    fn perfect_score() {
        let q = Quality::from_counts(10, 10, 10);
        assert_eq!((q.precision, q.recall, q.f_measure), (1.0, 1.0, 1.0));
    }

    #[test]
    fn evaluate_against_space() {
        use crate::space::{PairId, SpaceConfig};
        use alex_rdf::Dataset;

        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for (i, name) in ["Alpha One", "Beta Two"].iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
        }
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let diagonal: Vec<PairId> = space
            .pair_ids()
            .filter(|&id| {
                let (l, r) = space.pair(id);
                l == r
            })
            .collect();
        let candidates = CandidateSet::from_iter(diagonal);
        let truth: HashSet<(u32, u32)> = [(0, 0), (1, 1)].into_iter().collect();
        let q = Quality::evaluate(&candidates, &space, &truth);
        assert_eq!((q.precision, q.recall, q.f_measure), (1.0, 1.0, 1.0));
    }
}
