//! The action-value function Q(s, a), estimated by first-visit Monte Carlo
//! (§4.4.1): `Q(s, a) = AVG(Returns(s, a))` (Algorithm 1 line 16).

use std::collections::HashMap;

use crate::feature::FeatureId;
use crate::space::PairId;

/// First-visit Monte-Carlo estimates of Q(s, a).
#[derive(Debug, Clone, Default)]
pub struct ActionValue {
    returns: HashMap<(PairId, FeatureId), Vec<f64>>,
}

impl ActionValue {
    /// Empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a return observation for (s, a) — Algorithm 1 line 14.
    pub fn append_return(&mut self, state: PairId, action: FeatureId, value: f64) {
        self.returns.entry((state, action)).or_default().push(value);
    }

    /// Q(s, a): the average of collected returns; `None` before the first
    /// observation (Algorithm 1 initializes Q to *undefined*).
    pub fn q(&self, state: PairId, action: FeatureId) -> Option<f64> {
        let rs = self.returns.get(&(state, action))?;
        Some(rs.iter().sum::<f64>() / rs.len() as f64)
    }

    /// Number of return observations for (s, a).
    pub fn observations(&self, state: PairId, action: FeatureId) -> usize {
        self.returns.get(&(state, action)).map_or(0, Vec::len)
    }

    /// argmax over `actions` of Q(state, ·).
    ///
    /// Unobserved actions count as Q = 0 — the optimistic reading of
    /// Algorithm 1's "Q(s, a) = undefined" initialization. This matters:
    /// with a pessimistic reading, a state whose only *observed* action is a
    /// bad one (negative average return) would greedily lock onto it, since
    /// no better estimate exists; optimism makes the improvement step prefer
    /// any untried action over a known-bad one, which is what drives states
    /// away from non-distinctive features (§4.2).
    ///
    /// Returns `None` only when no action has any observation (nothing
    /// learned — Algorithm 1 keeps the arbitrary policy). Ties break toward
    /// the lower feature id for determinism.
    pub fn argmax(&self, state: PairId, actions: &[FeatureId]) -> Option<FeatureId> {
        if actions.iter().all(|&a| self.observations(state, a) == 0) {
            return None;
        }
        let mut best: Option<(FeatureId, f64)> = None;
        for &a in actions {
            let q = self.q(state, a).unwrap_or(0.0);
            let better = match best {
                None => true,
                Some((ba, bq)) => q > bq || (q == bq && a < ba),
            };
            if better {
                best = Some((a, q));
            }
        }
        best.map(|(a, _)| a)
    }

    /// Number of (s, a) pairs with observations.
    pub fn len(&self) -> usize {
        self.returns.len()
    }

    /// Whether no observation exists.
    pub fn is_empty(&self) -> bool {
        self.returns.is_empty()
    }

    /// Iterate over `((state, action), returns)` entries, in arbitrary map
    /// order. The per-entry return *lists* are in append order — that order
    /// matters, because [`ActionValue::q`] sums them as floats.
    pub fn iter_returns(&self) -> impl Iterator<Item = ((PairId, FeatureId), &[f64])> + '_ {
        self.returns.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Replace an entry's return list wholesale (crash-recovery restore).
    /// The list must be in original append order to keep Q byte-identical.
    pub fn restore_returns(&mut self, state: PairId, action: FeatureId, returns: Vec<f64>) {
        self.returns.insert((state, action), returns);
    }

    /// Remove the *last* occurrence of `value` (bitwise comparison) from the
    /// (s, a) return list — the trust layer revoking a credited return.
    /// Returns whether anything was removed. An entry whose list empties is
    /// dropped, so the map is byte-identical to one that never saw the
    /// return.
    pub fn retract_return(&mut self, state: PairId, action: FeatureId, value: f64) -> bool {
        let Some(rs) = self.returns.get_mut(&(state, action)) else {
            return false;
        };
        let Some(idx) = rs.iter().rposition(|r| r.to_bits() == value.to_bits()) else {
            return false;
        };
        rs.remove(idx);
        if rs.is_empty() {
            self.returns.remove(&(state, action));
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn q_is_undefined_before_observations() {
        let v = ActionValue::new();
        assert_eq!(v.q(PairId(0), FeatureId(0)), None);
        assert!(v.is_empty());
    }

    #[test]
    fn q_is_running_average() {
        let mut v = ActionValue::new();
        v.append_return(PairId(0), FeatureId(0), 1.0);
        v.append_return(PairId(0), FeatureId(0), -1.0);
        v.append_return(PairId(0), FeatureId(0), 1.0);
        assert!((v.q(PairId(0), FeatureId(0)).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(v.observations(PairId(0), FeatureId(0)), 3);
    }

    #[test]
    fn argmax_picks_highest_q() {
        let mut v = ActionValue::new();
        v.append_return(PairId(0), FeatureId(0), 0.2);
        v.append_return(PairId(0), FeatureId(1), 0.9);
        v.append_return(PairId(0), FeatureId(2), -0.5);
        let actions = vec![FeatureId(0), FeatureId(1), FeatureId(2)];
        assert_eq!(v.argmax(PairId(0), &actions), Some(FeatureId(1)));
    }

    #[test]
    fn argmax_prefers_unobserved_over_known_bad() {
        let mut v = ActionValue::new();
        v.append_return(PairId(0), FeatureId(2), -5.0);
        let actions = vec![FeatureId(0), FeatureId(1), FeatureId(2)];
        // FeatureId(2) is known-bad; optimism (unobserved = 0) must steer
        // the greedy policy to an untried action, not lock onto the bad one.
        assert_eq!(v.argmax(PairId(0), &actions), Some(FeatureId(0)));
    }

    #[test]
    fn argmax_prefers_known_good_over_unobserved() {
        let mut v = ActionValue::new();
        v.append_return(PairId(0), FeatureId(2), 0.8);
        let actions = vec![FeatureId(0), FeatureId(1), FeatureId(2)];
        assert_eq!(v.argmax(PairId(0), &actions), Some(FeatureId(2)));
    }

    #[test]
    fn argmax_none_without_observations() {
        let v = ActionValue::new();
        assert_eq!(v.argmax(PairId(0), &[FeatureId(0)]), None);
    }

    #[test]
    fn argmax_tie_breaks_deterministically() {
        let mut v = ActionValue::new();
        v.append_return(PairId(0), FeatureId(3), 0.5);
        v.append_return(PairId(0), FeatureId(1), 0.5);
        let actions = vec![FeatureId(1), FeatureId(3)];
        assert_eq!(v.argmax(PairId(0), &actions), Some(FeatureId(1)));
    }

    #[test]
    fn retract_return_removes_last_match_only() {
        let mut v = ActionValue::new();
        v.append_return(PairId(0), FeatureId(0), 1.0);
        v.append_return(PairId(0), FeatureId(0), -2.0);
        v.append_return(PairId(0), FeatureId(0), 1.0);
        assert!(v.retract_return(PairId(0), FeatureId(0), 1.0));
        assert_eq!(v.observations(PairId(0), FeatureId(0)), 2);
        // The earlier 1.0 (append order position 0) survives.
        assert!((v.q(PairId(0), FeatureId(0)).unwrap() - (-0.5)).abs() < 1e-12);
        assert!(!v.retract_return(PairId(0), FeatureId(0), 9.0));
        assert!(v.retract_return(PairId(0), FeatureId(0), -2.0));
        assert!(v.retract_return(PairId(0), FeatureId(0), 1.0));
        // Entry emptied out: gone entirely, as if never observed.
        assert!(v.is_empty());
        assert!(!v.retract_return(PairId(0), FeatureId(0), 1.0));
    }
}
