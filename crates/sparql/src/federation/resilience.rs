//! Fault-tolerance primitives for federated execution: endpoint errors,
//! per-request deadlines, retry/backoff policies, circuit breakers, and the
//! completeness marker for degraded (partial) query results.
//!
//! Independently operated LOD endpoints stall, error, and truncate results
//! as a matter of course; the executor treats that as the normal case. The
//! types here are deliberately free of executor state so the breaker state
//! machine and backoff bounds can be tested in isolation.

use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::StdRng;

/// An error reported by an [`Endpoint`](super::Endpoint) call.
///
/// The taxonomy mirrors what a remote SPARQL endpoint can actually do to a
/// caller: fail transiently (retry may help), be hard-down (retry cannot
/// help), exceed its time budget, or drop the connection mid-result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndpointError {
    /// A transient failure (connection reset, HTTP 503, ...): retryable.
    Transient {
        /// Name of the failing endpoint.
        endpoint: String,
        /// Human-readable cause.
        message: String,
    },
    /// The endpoint is down or refusing service: not retryable now.
    Unavailable {
        /// Name of the failing endpoint.
        endpoint: String,
        /// Human-readable cause.
        message: String,
    },
    /// The request's deadline expired before the endpoint answered.
    DeadlineExceeded {
        /// Name of the endpoint that ran out of budget.
        endpoint: String,
    },
    /// The result stream was cut short (short read): retryable, since a
    /// fresh call may deliver the full result set.
    Truncated {
        /// Name of the failing endpoint.
        endpoint: String,
        /// Rows delivered before the stream was cut.
        returned: usize,
    },
}

impl EndpointError {
    /// The name of the endpoint that produced the error.
    pub fn endpoint(&self) -> &str {
        match self {
            EndpointError::Transient { endpoint, .. }
            | EndpointError::Unavailable { endpoint, .. }
            | EndpointError::DeadlineExceeded { endpoint }
            | EndpointError::Truncated { endpoint, .. } => endpoint,
        }
    }

    /// Whether a bounded retry against the same endpoint can help.
    /// Deadline overruns are not retryable: the budget is already spent.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EndpointError::Transient { .. } | EndpointError::Truncated { .. }
        )
    }
}

impl std::fmt::Display for EndpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EndpointError::Transient { endpoint, message } => {
                write!(f, "endpoint '{endpoint}' transient failure: {message}")
            }
            EndpointError::Unavailable { endpoint, message } => {
                write!(f, "endpoint '{endpoint}' unavailable: {message}")
            }
            EndpointError::DeadlineExceeded { endpoint } => {
                write!(f, "endpoint '{endpoint}' exceeded its deadline")
            }
            EndpointError::Truncated { endpoint, returned } => {
                write!(
                    f,
                    "endpoint '{endpoint}' returned a truncated result ({returned} rows)"
                )
            }
        }
    }
}

impl std::error::Error for EndpointError {}

/// A per-request time budget. `Deadline::none()` is unbounded and costs
/// nothing to check, so the happy path with no budget configured never
/// reads the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: the call may take arbitrarily long.
    pub const fn none() -> Deadline {
        Deadline { at: None }
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Deadline {
        Deadline {
            at: Some(Instant::now() + budget),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }

    /// Time left before the deadline (`None` when unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Error out with [`EndpointError::DeadlineExceeded`] if expired.
    pub fn check(&self, endpoint: &str) -> Result<(), EndpointError> {
        if self.expired() {
            Err(EndpointError::DeadlineExceeded {
                endpoint: endpoint.to_string(),
            })
        } else {
            Ok(())
        }
    }
}

/// Bounded exponential backoff with jitter for transient endpoint errors.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Growth factor per retry (>= 1).
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Jitter fraction in [0, 1]: the sleep is drawn uniformly from
    /// `[base * (1 - jitter), base]`, which de-synchronizes retry storms
    /// without ever exceeding the deterministic bound.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            initial_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(200),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The deterministic (un-jittered) backoff for the `retry`-th retry
    /// (0-based): `initial * multiplier^retry`, capped at `max_backoff`.
    pub fn base_backoff(&self, retry: u32) -> Duration {
        let factor = self.multiplier.max(1.0).powi(retry.min(62) as i32);
        let nanos = self.initial_backoff.as_secs_f64() * factor;
        Duration::from_secs_f64(nanos.min(self.max_backoff.as_secs_f64()))
    }

    /// The jittered backoff for the `retry`-th retry: uniform in
    /// `[base * (1 - jitter), base]`.
    pub fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let base = self.base_backoff(retry);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 || base.is_zero() {
            return base;
        }
        let lo = base.as_secs_f64() * (1.0 - jitter);
        Duration::from_secs_f64(rng.random_range(lo..=base.as_secs_f64()))
    }
}

/// Circuit-breaker states (closed = healthy, open = shedding, half-open =
/// probing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls are rejected until the cooldown elapses.
    Open,
    /// Probe calls are allowed; successes close, a failure re-opens.
    HalfOpen,
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a probe.
    pub cooldown: Duration,
    /// Consecutive probe successes required to close from half-open.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(100),
            probe_successes: 1,
        }
    }
}

/// A per-endpoint circuit breaker (closed → open → half-open → closed).
///
/// Time is passed in explicitly (`allow_at` / `record_failure_at`) so the
/// state machine is deterministic under test; the executor passes
/// `Instant::now()`.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_ok: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            probe_ok: 0,
        }
    }

    /// Current state (transitions happen in `allow_at` / `record_*`).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a call may proceed at time `now`. An open breaker whose
    /// cooldown has elapsed transitions to half-open and allows the probe.
    pub fn allow_at(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let opened = self.opened_at.unwrap_or(now);
                if now.saturating_duration_since(opened) >= self.cfg.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.probe_ok = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful call. Returns `true` if the breaker closed as a
    /// result (half-open probe quota met).
    pub fn record_success(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                false
            }
            BreakerState::HalfOpen => {
                self.probe_ok += 1;
                if self.probe_ok >= self.cfg.probe_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.opened_at = None;
                    true
                } else {
                    false
                }
            }
            // A success while open can only come from a call admitted
            // before the breaker tripped; it does not close the circuit.
            BreakerState::Open => false,
        }
    }

    /// Record a failed call at time `now`. Returns `true` if the breaker
    /// opened as a result (threshold reached, or a half-open probe failed).
    pub fn record_failure_at(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(now);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = Some(now);
                true
            }
            BreakerState::Open => false,
        }
    }
}

/// How complete a query result (or a single answer) is with respect to the
/// registered sources.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Completeness {
    /// Every registered source answered every probe it was given.
    #[default]
    Complete,
    /// One or more sources were skipped (down past their budget, circuit
    /// open, or erroring beyond the retry allowance); answers may be
    /// missing join partners from those sources.
    Partial {
        /// Names of the skipped sources (sorted, deduplicated).
        skipped_sources: Vec<String>,
    },
}

impl Completeness {
    /// Whether no source was skipped.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// The skipped source names (empty when complete).
    pub fn skipped(&self) -> &[String] {
        match self {
            Completeness::Complete => &[],
            Completeness::Partial { skipped_sources } => skipped_sources,
        }
    }
}

/// Executor-level resilience configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Retry/backoff policy for retryable endpoint errors.
    pub retry: RetryPolicy,
    /// Per-endpoint circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Time budget for one endpoint request — all the probes of one
    /// batch, or the resent rest after a failure (`None` = unbounded; the
    /// happy path then never reads the clock for deadlines).
    pub endpoint_budget: Option<Duration>,
    /// When `true`, endpoint failures abort the query with
    /// [`SparqlError::Endpoint`](crate::SparqlError::Endpoint) instead of
    /// degrading to a partial answer set.
    pub fail_fast: bool,
    /// Seed for backoff jitter (kept deterministic for reproducible runs).
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            endpoint_budget: None,
            fail_fast: false,
            seed: 0x5EED,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn now() -> Instant {
        Instant::now()
    }

    #[test]
    fn error_taxonomy_retryability() {
        let t = EndpointError::Transient {
            endpoint: "A".into(),
            message: "503".into(),
        };
        let u = EndpointError::Unavailable {
            endpoint: "A".into(),
            message: "down".into(),
        };
        let d = EndpointError::DeadlineExceeded {
            endpoint: "A".into(),
        };
        let tr = EndpointError::Truncated {
            endpoint: "A".into(),
            returned: 3,
        };
        assert!(t.is_retryable());
        assert!(tr.is_retryable());
        assert!(!u.is_retryable());
        assert!(!d.is_retryable());
        for e in [t, u, d, tr] {
            assert_eq!(e.endpoint(), "A");
            assert!(e.to_string().contains('A'));
        }
    }

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(d.remaining().is_none());
        assert!(d.check("X").is_ok());
    }

    #[test]
    fn zero_budget_deadline_expires_immediately() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(
            d.check("X"),
            Err(EndpointError::DeadlineExceeded {
                endpoint: "X".into()
            })
        );
    }

    #[test]
    fn generous_deadline_is_not_expired() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn base_backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            initial_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(50),
            jitter: 0.0,
        };
        assert_eq!(p.base_backoff(0), Duration::from_millis(10));
        assert_eq!(p.base_backoff(1), Duration::from_millis(20));
        assert_eq!(p.base_backoff(2), Duration::from_millis(40));
        assert_eq!(p.base_backoff(3), Duration::from_millis(50), "capped");
        assert_eq!(p.base_backoff(62), Duration::from_millis(50));
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(0),
            probe_successes: 2,
        });
        let t0 = now();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure_at(t0));
        assert!(!b.record_failure_at(t0));
        assert!(b.record_failure_at(t0), "third failure opens");
        assert_eq!(b.state(), BreakerState::Open);
        // Zero cooldown: next allow transitions to half-open (probe).
        assert!(b.allow_at(now()));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.record_success(), "one probe success is not enough");
        assert!(b.record_success(), "second probe success closes");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_breaker_rejects_within_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
            probe_successes: 1,
        });
        let t0 = now();
        assert!(b.record_failure_at(t0));
        assert!(!b.allow_at(t0), "cooldown not elapsed");
        assert_eq!(b.state(), BreakerState::Open);
        // Simulate time passing beyond the cooldown.
        assert!(b.allow_at(t0 + Duration::from_secs(3601)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
            probe_successes: 1,
        });
        let t0 = now();
        assert!(b.record_failure_at(t0));
        assert!(b.allow_at(now()));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_failure_at(now()), "probe failure re-opens");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::ZERO,
            probe_successes: 1,
        });
        let t0 = now();
        assert!(!b.record_failure_at(t0));
        assert!(!b.record_success());
        assert!(!b.record_failure_at(t0), "streak was reset by the success");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn completeness_accessors() {
        assert!(Completeness::Complete.is_complete());
        assert!(Completeness::Complete.skipped().is_empty());
        let p = Completeness::Partial {
            skipped_sources: vec!["NYT".into()],
        };
        assert!(!p.is_complete());
        assert_eq!(p.skipped(), ["NYT".to_string()]);
    }

    proptest! {
        /// Jittered backoff always lies in [base*(1-jitter), base] and
        /// never exceeds max_backoff.
        #[test]
        fn backoff_jitter_respects_bounds(
            retry in 0u32..12,
            seed in 0u64..500,
            jitter in 0.0f64..=1.0,
            initial_ms in 1u64..50,
            max_ms in 1u64..400,
        ) {
            let p = RetryPolicy {
                max_retries: 12,
                initial_backoff: Duration::from_millis(initial_ms),
                multiplier: 2.0,
                max_backoff: Duration::from_millis(max_ms),
                jitter,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let base = p.base_backoff(retry);
            let got = p.backoff(retry, &mut rng);
            prop_assert!(got <= base + Duration::from_nanos(1));
            prop_assert!(got <= p.max_backoff + Duration::from_nanos(1));
            let floor = base.as_secs_f64() * (1.0 - jitter);
            prop_assert!(got.as_secs_f64() + 1e-9 >= floor);
        }

        /// The breaker state machine never panics and a long run of
        /// failures always leaves it open; successes after cooldown
        /// always close it again within `probe_successes` probes.
        #[test]
        fn breaker_recovers_after_failure_storm(
            threshold in 1u32..6,
            probes in 1u32..4,
            storm in 1usize..30,
        ) {
            let mut b = CircuitBreaker::new(BreakerConfig {
                failure_threshold: threshold,
                cooldown: Duration::ZERO,
                probe_successes: probes,
            });
            let t0 = Instant::now();
            for _ in 0..storm {
                // Probe-and-fail cycles: allow_at may flip open→half-open,
                // record_failure_at flips back; either way no panic.
                let _ = b.allow_at(t0);
                let _ = b.record_failure_at(t0);
            }
            if storm as u32 >= threshold {
                // At least `threshold` consecutive failures occurred.
                prop_assert_ne!(b.state(), BreakerState::Closed);
            }
            // Recovery: allow (cooldown is zero) then succeed repeatedly.
            for _ in 0..probes + 1 {
                prop_assert!(b.allow_at(Instant::now()));
                b.record_success();
            }
            prop_assert_eq!(b.state(), BreakerState::Closed);
        }
    }
}
