//! Feedback: the signal ALEX learns from.
//!
//! In deployment, feedback arrives from users judging query answers (see
//! [`crate::bridge`]). In the paper's experiments (§7.1 "Generating
//! Feedback") it is simulated: "We randomly choose a link out of the set of
//! candidate links and compare it to the ground truth." [`OracleFeedback`]
//! is that simulator, with an optional error rate for Appendix C.

use std::collections::HashSet;

use alex_trust::SourceId;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::candidates::CandidateSet;
use crate::space::{LinkSpace, PairId};

/// A user judgment on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// The answer (and hence the link) is correct.
    Positive,
    /// The answer (and hence the link) is incorrect.
    Negative,
}

/// One attributed feedback item: a judgment on a link plus the identity of
/// the source that made it. Attribution is what the trust layer keys its
/// per-source reliability posterior on; unattributed legacy sources use
/// [`SourceId::ANONYMOUS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackItem {
    /// The judged link.
    pub state: PairId,
    /// The judgment.
    pub feedback: Feedback,
    /// Who judged it.
    pub source: SourceId,
}

/// A source of feedback items. Sources are `Send` so that a partitioned
/// run can play each partition's round on a pool worker.
pub trait FeedbackSource: Send {
    /// Produce the next feedback item over the current candidate set.
    /// `None` means no feedback is available (e.g. the set is empty).
    fn next(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<(PairId, Feedback)>;

    /// Like [`FeedbackSource::next`] but with source attribution. The
    /// default wraps `next` and attributes everything to
    /// [`SourceId::ANONYMOUS`]; multi-source populations override this and
    /// the agent's trust gate (when enabled) consumes it.
    fn next_item(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<FeedbackItem> {
        let (state, feedback) = self.next(candidates, space)?;
        Some(FeedbackItem {
            state,
            feedback,
            source: SourceId::ANONYMOUS,
        })
    }

    /// Feedback items withheld since the last call because the producing
    /// query degraded (partial answers from a federation with skipped
    /// sources). Returns the count and resets it. The driver uses this to
    /// tell "no feedback because sources were down" (skip the episode)
    /// apart from "no feedback available" (stop). Sources that never
    /// degrade keep the default.
    fn take_degraded(&mut self) -> usize {
        0
    }

    /// Queries that failed outright since the last call (a fail-fast
    /// endpoint error); returns the count and resets it. They withhold no
    /// judgment, but, like withheld ones, make a dry episode a skip.
    fn take_failed(&mut self) -> usize {
        0
    }

    /// Serialized internal state for crash-durable runs, or `None` when the
    /// source cannot be made durable (e.g. live users). Durable runs persist
    /// this after every episode so a resumed run replays the *same* feedback
    /// stream; sources returning `None` cannot drive a `--state-dir` run.
    fn durable_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state previously produced by
    /// [`FeedbackSource::durable_state`]. The default (for non-durable
    /// sources) rejects.
    fn restore_durable_state(&mut self, _state: &[u8]) -> Result<(), String> {
        Err("this feedback source does not support durable state".to_string())
    }
}

/// Ground-truth oracle feedback with an optional error rate.
#[derive(Debug)]
pub struct OracleFeedback {
    truth: HashSet<(u32, u32)>,
    error_rate: f64,
    rng: StdRng,
}

impl OracleFeedback {
    /// An oracle over ground-truth `(left id, right id)` pairs.
    pub fn new(truth: HashSet<(u32, u32)>, seed: u64) -> Self {
        OracleFeedback::with_error_rate(truth, 0.0, seed)
    }

    /// An oracle that flips each judgment with probability `error_rate`
    /// (Appendix C uses 0.10).
    pub fn with_error_rate(truth: HashSet<(u32, u32)>, error_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&error_rate), "error rate in [0, 1]");
        OracleFeedback {
            truth,
            error_rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether the oracle's ground truth holds the pair.
    pub fn is_correct(&self, pair: (u32, u32)) -> bool {
        self.truth.contains(&pair)
    }

    /// Ground-truth size.
    pub fn truth_len(&self) -> usize {
        self.truth.len()
    }
}

impl FeedbackSource for OracleFeedback {
    fn next(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<(PairId, Feedback)> {
        let id = candidates.sample(&mut self.rng)?;
        let correct = self.is_correct(space.pair(id));
        let mut feedback = if correct {
            Feedback::Positive
        } else {
            Feedback::Negative
        };
        if self.error_rate > 0.0 && self.rng.random_bool(self.error_rate) {
            feedback = match feedback {
                Feedback::Positive => Feedback::Negative,
                Feedback::Negative => Feedback::Positive,
            };
        }
        Some((id, feedback))
    }

    fn durable_state(&self) -> Option<Vec<u8>> {
        // The truth set and error rate are reconstructed from the run
        // inputs; only the RNG position needs persisting.
        let mut out = Vec::with_capacity(32);
        for w in self.rng.state() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        Some(out)
    }

    fn restore_durable_state(&mut self, state: &[u8]) -> Result<(), String> {
        if state.len() != 32 {
            return Err(format!(
                "oracle feedback state must be 32 bytes, got {}",
                state.len()
            ));
        }
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&state[i * 8..(i + 1) * 8]);
            *w = u64::from_le_bytes(raw);
        }
        self.rng = StdRng::from_state(words);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;
    use alex_rdf::Dataset;

    fn space() -> LinkSpace {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for (i, name) in ["Alpha One", "Beta Two", "Gamma Three"].iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
        }
        LinkSpace::build(&left, &right, &SpaceConfig::default())
    }

    #[test]
    fn oracle_judges_against_ground_truth() {
        let space = space();
        // Ground truth: the diagonal.
        let truth: HashSet<(u32, u32)> = (0..3).map(|i| (i, i)).collect();
        let mut oracle = OracleFeedback::new(truth, 1);
        let candidates = CandidateSet::from_iter(space.pair_ids());
        let mut saw_positive = false;
        let mut saw_negative = false;
        for _ in 0..200 {
            let (id, fb) = oracle.next(&candidates, &space).unwrap();
            let (l, r) = space.pair(id);
            match fb {
                Feedback::Positive => {
                    assert_eq!(l, r);
                    saw_positive = true;
                }
                Feedback::Negative => {
                    assert_ne!(l, r);
                    saw_negative = true;
                }
            }
        }
        assert!(saw_positive);
        // The space may or may not contain off-diagonal pairs depending on
        // blocking; only assert negativity when they exist.
        let has_off_diagonal = space.pair_ids().any(|id| {
            let (l, r) = space.pair(id);
            l != r
        });
        assert_eq!(saw_negative, has_off_diagonal);
    }

    #[test]
    fn empty_candidates_yield_no_feedback() {
        let space = space();
        let truth = HashSet::new();
        let mut oracle = OracleFeedback::new(truth, 1);
        assert_eq!(oracle.next(&CandidateSet::new(), &space), None);
    }

    #[test]
    fn error_rate_flips_judgments() {
        let space = space();
        let truth: HashSet<(u32, u32)> = (0..3).map(|i| (i, i)).collect();
        // 100% error: every judgment is flipped.
        let mut oracle = OracleFeedback::with_error_rate(truth, 1.0, 2);
        let diagonal: Vec<PairId> = space
            .pair_ids()
            .filter(|&id| {
                let (l, r) = space.pair(id);
                l == r
            })
            .collect();
        let candidates = CandidateSet::from_iter(diagonal);
        for _ in 0..50 {
            let (_, fb) = oracle.next(&candidates, &space).unwrap();
            assert_eq!(fb, Feedback::Negative, "correct link must be misjudged");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let space = space();
        let truth: HashSet<(u32, u32)> = (0..3).map(|i| (i, i)).collect();
        let candidates = CandidateSet::from_iter(space.pair_ids());
        let mut a = OracleFeedback::new(truth.clone(), 7);
        let mut b = OracleFeedback::new(truth, 7);
        for _ in 0..50 {
            assert_eq!(a.next(&candidates, &space), b.next(&candidates, &space));
        }
    }
}
