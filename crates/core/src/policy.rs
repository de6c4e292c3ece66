//! The stochastic ε-greedy policy (§4.4, Algorithm 1).

use rand::prelude::*;

use crate::feature::FeatureId;
use crate::pairmap::PairMap;
use crate::space::PairId;

/// An ε-greedy policy over states (links) and actions (features).
///
/// Before the first policy improvement touches a state, the policy is
/// "arbitrary" (Algorithm 1 lines 2–8): a uniformly random action. After
/// improvement, the greedy action is taken with probability 1 − ε and a
/// uniformly random action with probability ε — which gives every action
/// probability ≥ ε / |A(s)| > 0, the paper's continuous-exploration
/// requirement (π(s, a) ≥ ε/|A(s)|).
#[derive(Debug, Clone)]
pub struct Policy {
    epsilon: f64,
    greedy: PairMap<FeatureId>,
}

impl Policy {
    /// A fresh policy with the given ε.
    pub fn new(epsilon: f64) -> Policy {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0, 1]");
        Policy {
            epsilon,
            greedy: PairMap::new(),
        }
    }

    /// ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The learned greedy action for a state, if any improvement has set one.
    pub fn greedy_action(&self, state: PairId) -> Option<FeatureId> {
        self.greedy.get(state).copied()
    }

    /// Choose an action for `state` among `actions` (the features of the
    /// state's feature set). Returns `None` when the state has no actions.
    pub fn choose(
        &self,
        state: PairId,
        actions: &[FeatureId],
        rng: &mut impl Rng,
    ) -> Option<FeatureId> {
        if actions.is_empty() {
            return None;
        }
        match self.greedy.get(state) {
            // The greedy action may have referred to a feature that no
            // longer appears (defensive): fall back to random.
            Some(&g) if actions.contains(&g) => {
                if rng.random_bool(1.0 - self.epsilon) {
                    Some(g)
                } else {
                    actions.choose(rng).copied()
                }
            }
            _ => actions.choose(rng).copied(),
        }
    }

    /// π(s, a): the probability the policy assigns to `action` at `state`.
    pub fn probability(&self, state: PairId, actions: &[FeatureId], action: FeatureId) -> f64 {
        if actions.is_empty() || !actions.contains(&action) {
            return 0.0;
        }
        let n = actions.len() as f64;
        match self.greedy.get(state) {
            Some(&g) if actions.contains(&g) => {
                if action == g {
                    (1.0 - self.epsilon) + self.epsilon / n
                } else {
                    self.epsilon / n
                }
            }
            _ => 1.0 / n,
        }
    }

    /// Policy improvement for one state: make `action` greedy (Algorithm 1
    /// line 25).
    pub fn improve(&mut self, state: PairId, action: FeatureId) {
        self.greedy.insert(state, action);
    }

    /// Iterate over learned `(state, greedy action)` entries, in ascending
    /// state order. Restore goes through [`Policy::improve`].
    pub fn iter_greedy(&self) -> impl Iterator<Item = (PairId, FeatureId)> + '_ {
        self.greedy.iter().map(|(s, &a)| (s, a))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn actions(n: u32) -> Vec<FeatureId> {
        (0..n).map(FeatureId).collect()
    }

    #[test]
    fn no_actions_yields_none() {
        let p = Policy::new(0.1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.choose(PairId(0), &[], &mut rng), None);
    }

    #[test]
    fn unlearned_state_is_uniform() {
        let p = Policy::new(0.1);
        let a = actions(4);
        for &act in &a {
            assert!((p.probability(PairId(0), &a, act) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_action_dominates_after_improvement() {
        let mut p = Policy::new(0.1);
        let a = actions(4);
        p.improve(PairId(0), FeatureId(2));
        let pg = p.probability(PairId(0), &a, FeatureId(2));
        let po = p.probability(PairId(0), &a, FeatureId(0));
        assert!((pg - (0.9 + 0.025)).abs() < 1e-12);
        assert!((po - 0.025).abs() < 1e-12);
        // Probabilities sum to 1.
        let total: f64 = a.iter().map(|&x| p.probability(PairId(0), &a, x)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_action_has_nonzero_probability() {
        // The continuous-exploration requirement: π(s,a) ≥ ε/|A(s)| > 0.
        let mut p = Policy::new(0.2);
        let a = actions(5);
        p.improve(PairId(0), FeatureId(0));
        for &act in &a {
            assert!(p.probability(PairId(0), &a, act) >= 0.2 / 5.0 - 1e-12);
        }
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let mut p = Policy::new(0.2);
        let a = actions(4);
        p.improve(PairId(7), FeatureId(1));
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        let trials = 20_000;
        for _ in 0..trials {
            let c = p.choose(PairId(7), &a, &mut rng).unwrap();
            counts[c.0 as usize] += 1;
        }
        let freq_greedy = counts[1] as f64 / trials as f64;
        assert!(
            (freq_greedy - 0.85).abs() < 0.02,
            "greedy freq {freq_greedy}"
        );
        for (i, &c) in counts.iter().enumerate() {
            if i != 1 {
                let f = c as f64 / trials as f64;
                assert!((f - 0.05).abs() < 0.01, "action {i} freq {f}");
            }
        }
    }

    #[test]
    fn stale_greedy_action_falls_back_to_uniform() {
        let mut p = Policy::new(0.1);
        p.improve(PairId(0), FeatureId(99));
        let a = actions(3);
        let mut rng = StdRng::seed_from_u64(2);
        let chosen = p.choose(PairId(0), &a, &mut rng).unwrap();
        assert!(a.contains(&chosen));
        assert!((p.probability(PairId(0), &a, FeatureId(0)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_panics() {
        let _ = Policy::new(1.5);
    }
}
