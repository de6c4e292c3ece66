//! ALEX configuration: every tunable the paper names, with the paper's
//! default values (§7.1 "Default Settings").

use alex_trust::TrustConfig;

/// Configuration for an ALEX agent.
///
/// θ, the feature-value floor of §6.1, belongs to the link space the agent
/// explores: see [`crate::SpaceConfig::theta`].
#[derive(Debug, Clone)]
pub struct AlexConfig {
    /// Step size — the exploration offset around a feature score (§4.2).
    /// Paper default: 0.05.
    pub step_size: f64,
    /// Episode size — feedback items collected before each policy
    /// improvement (§4.4). Paper default: 1000 (10 in the specific-domain
    /// setting).
    pub episode_size: usize,
    /// ε of the ε-greedy policy (§4.4.1).
    pub epsilon: f64,
    /// Enable the blacklist optimization (§6.3).
    pub use_blacklist: bool,
    /// Enable the rollback optimization (§6.3).
    pub use_rollback: bool,
    /// Number of negative feedback items on links generated by one
    /// state-action pair before its links are rolled back.
    pub rollback_threshold: u32,
    /// Maximum number of policy-evaluation/improvement iterations; the paper
    /// caps at 100 (§7.3, Fig. 7a).
    pub max_episodes: usize,
    /// Whether the relaxed convergence rule (fewer than 5% of links changed
    /// over an episode) *stops* the run (§3.2: "ALEX can also use a
    /// more relaxed convergence condition and stop if the change in the set
    /// of candidate links is less than 5%"). When false, the relaxed
    /// episode is only recorded and the run continues to strict convergence
    /// or the episode cap.
    pub stop_on_relaxed: bool,
    /// RNG seed for the stochastic policy.
    pub seed: u64,
    /// Trust-weighted feedback admission (the adversarial-feedback defense).
    /// `None` (the default, and the paper's behaviour) applies every
    /// feedback item directly; `Some` routes feedback through a quorum
    /// buffer keyed on per-source reliability posteriors, with cascading
    /// rollback of admissions that are later discredited.
    pub trust: Option<TrustConfig>,
}

impl Default for AlexConfig {
    fn default() -> Self {
        AlexConfig {
            step_size: 0.05,
            episode_size: 1000,
            epsilon: 0.05,
            use_blacklist: true,
            use_rollback: true,
            rollback_threshold: 3,
            max_episodes: 100,
            stop_on_relaxed: false,
            seed: 42,
            trust: None,
        }
    }
}

impl AlexConfig {
    /// The paper's "specific domains" setting: small episodes for quick,
    /// interactive improvement (§7.2.2).
    pub fn specific_domain() -> Self {
        AlexConfig {
            episode_size: 10,
            ..AlexConfig::default()
        }
    }

    /// Check the invariants the agent relies on: a positive step size,
    /// episode size and episode cap, ε in [0, 1], and a valid trust
    /// configuration. The error names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.step_size.is_nan() || self.step_size <= 0.0 {
            return Err(format!(
                "step_size must be positive, got {}",
                self.step_size
            ));
        }
        if self.episode_size == 0 {
            return Err("episode_size must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(format!("epsilon must be in [0, 1], got {}", self.epsilon));
        }
        if self.max_episodes == 0 {
            return Err("max_episodes must be at least 1".into());
        }
        match &self.trust {
            Some(trust) => trust.validate(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AlexConfig::default();
        assert_eq!(c.step_size, 0.05);
        assert_eq!(c.episode_size, 1000);
        assert_eq!(c.max_episodes, 100);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn specific_domain_uses_small_episodes() {
        let c = AlexConfig::specific_domain();
        assert_eq!(c.episode_size, 10);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_trust_config() {
        let err = AlexConfig {
            trust: Some(TrustConfig {
                quorum: 0.0,
                ..TrustConfig::default()
            }),
            ..AlexConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("quorum"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_step() {
        let err = AlexConfig {
            step_size: 0.0,
            ..AlexConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("step_size"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_episode() {
        let err = AlexConfig {
            episode_size: 0,
            ..AlexConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("episode_size"), "{err}");
        let err = AlexConfig {
            max_episodes: 0,
            ..AlexConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("max_episodes"), "{err}");
    }
}
