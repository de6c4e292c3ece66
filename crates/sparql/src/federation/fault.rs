//! Deterministic fault injection for federated execution.
//!
//! [`FaultyEndpoint`] wraps any [`Endpoint`] and injects seeded faults from
//! a [`FaultProfile`]: transient errors, permanent outage windows, added
//! latency, and truncated (short-read) results. Every failure is drawn from
//! a seeded RNG keyed to the call sequence, so chaos tests and the e2e
//! benchmark replay the exact same fault schedule on every run.

use std::sync::Mutex;
use std::time::Duration;

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::value::Value;

use super::endpoint::{Endpoint, Probe, Rows};
use super::resilience::{Deadline, EndpointError};

/// A seeded fault schedule for one wrapped endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// RNG seed; the same seed replays the same fault sequence.
    pub seed: u64,
    /// Probability in [0, 1] that a call fails transiently.
    pub transient_rate: f64,
    /// Probability in [0, 1] that a call returns a truncated (short-read)
    /// result, surfaced as [`EndpointError::Truncated`].
    pub truncate_rate: f64,
    /// Latency added to every call (a real sleep, so deadlines trip).
    pub latency: Duration,
    /// Half-open call-index window `[start, end)` during which the
    /// endpoint is hard-down ([`EndpointError::Unavailable`]). Use
    /// `u64::MAX` as the end for a permanent outage.
    pub outage: Option<(u64, u64)>,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// A profile that injects nothing (useful to measure wrapper overhead).
    pub fn none() -> FaultProfile {
        FaultProfile {
            seed: 0,
            transient_rate: 0.0,
            truncate_rate: 0.0,
            latency: Duration::ZERO,
            outage: None,
        }
    }

    /// Whether this profile injects no faults at all.
    pub fn is_noop(&self) -> bool {
        self.transient_rate <= 0.0
            && self.truncate_rate <= 0.0
            && self.latency.is_zero()
            && self.outage.is_none()
    }

    /// Derive a profile with a different seed (so each endpoint in a
    /// federation draws an independent fault sequence).
    pub fn with_seed(&self, seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            ..self.clone()
        }
    }

    /// Parse a comma-separated `key=value` spec, e.g.
    /// `seed=7,transient=0.3,truncate=0.1,latency-ms=5,outage=100..200`.
    ///
    /// Keys: `seed` (u64), `transient` (probability), `truncate`
    /// (probability), `latency-ms` (u64 milliseconds), `outage`
    /// (`start..end` call-index window; `start..` means forever).
    pub fn parse(spec: &str) -> Result<FaultProfile, String> {
        let mut profile = FaultProfile::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault profile entry '{part}' is not key=value"))?;
            let bad = |what: &str| format!("fault profile {key}: invalid {what} '{value}'");
            match key.trim() {
                "seed" => profile.seed = value.parse().map_err(|_| bad("u64"))?,
                "transient" => {
                    profile.transient_rate = parse_rate(value).ok_or_else(|| bad("rate"))?
                }
                "truncate" => {
                    profile.truncate_rate = parse_rate(value).ok_or_else(|| bad("rate"))?
                }
                "latency-ms" => {
                    profile.latency = Duration::from_millis(value.parse().map_err(|_| bad("u64"))?)
                }
                "outage" => {
                    let (start, end) = value
                        .split_once("..")
                        .ok_or_else(|| bad("window (want start..end)"))?;
                    let start: u64 = start.trim().parse().map_err(|_| bad("window start"))?;
                    let end: u64 = if end.trim().is_empty() {
                        u64::MAX
                    } else {
                        end.trim().parse().map_err(|_| bad("window end"))?
                    };
                    if end <= start {
                        return Err(bad("window (end must exceed start)"));
                    }
                    profile.outage = Some((start, end));
                }
                other => return Err(format!("unknown fault profile key '{other}'")),
            }
        }
        Ok(profile)
    }
}

fn parse_rate(value: &str) -> Option<f64> {
    let rate: f64 = value.parse().ok()?;
    (0.0..=1.0).contains(&rate).then_some(rate)
}

/// Per-endpoint mutable fault state, behind a mutex because endpoint calls
/// take `&self`.
#[derive(Debug)]
struct FaultState {
    rng: StdRng,
    /// Probes drawn so far: the call index the schedule is keyed to.
    calls: u64,
    /// Requests (round trips) so far; a per-call `matching` is a request
    /// of one probe.
    requests: u64,
}

/// A decorator injecting deterministic faults into any [`Endpoint`].
///
/// Faults are drawn per probe, latency per request: a batch of probes
/// consumes the same call indices and RNG draws, in the same order, as
/// the same probes sent one `matching` call at a time, and stops at the
/// first fault, where the per-call sequence would have failed too.
#[derive(Debug)]
pub struct FaultyEndpoint<E> {
    inner: E,
    profile: FaultProfile,
    state: Mutex<FaultState>,
}

impl<E: Endpoint> FaultyEndpoint<E> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: E, profile: FaultProfile) -> Self {
        let state = Mutex::new(FaultState {
            rng: StdRng::seed_from_u64(profile.seed),
            calls: 0,
            requests: 0,
        });
        FaultyEndpoint {
            inner,
            profile,
            state,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        match self.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Probes observed so far (fault schedule position).
    pub fn calls(&self) -> u64 {
        self.lock().calls
    }

    /// Requests (round trips) observed so far.
    pub fn requests(&self) -> u64 {
        self.lock().requests
    }

    /// Pay the injected latency for one request. A slow endpoint burns the
    /// caller's budget whether or not the request would have succeeded.
    /// The sleep is clamped to the deadline's remaining budget — sleeping
    /// past it would overshoot the caller's deadline by the full injected
    /// latency — and when the clamp bites, the verdict is already known:
    /// surface `DeadlineExceeded` without racing `deadline.check` against
    /// the clock.
    fn pay_latency(&self, deadline: &Deadline) -> Result<(), EndpointError> {
        if self.profile.latency.is_zero() {
            return Ok(());
        }
        match deadline.remaining() {
            Some(remaining) if remaining <= self.profile.latency => {
                std::thread::sleep(remaining);
                Err(EndpointError::DeadlineExceeded {
                    endpoint: self.inner.name().to_string(),
                })
            }
            _ => {
                std::thread::sleep(self.profile.latency);
                Ok(())
            }
        }
    }

    /// One probe at call index `call`, after the request's latency: the
    /// injected fault, or the inner endpoint's rows.
    fn probe(
        &self,
        state: &mut FaultState,
        call: u64,
        probe: Probe<'_>,
        deadline: &Deadline,
    ) -> Result<Rows, EndpointError> {
        deadline.check(self.inner.name())?;
        if let Some((start, end)) = self.profile.outage {
            if call >= start && call < end {
                return Err(EndpointError::Unavailable {
                    endpoint: self.inner.name().to_string(),
                    message: format!("injected outage (call {call} in {start}..{end})"),
                });
            }
        }
        if self.profile.transient_rate > 0.0 && state.rng.random_bool(self.profile.transient_rate) {
            return Err(EndpointError::Transient {
                endpoint: self.inner.name().to_string(),
                message: format!("injected transient failure (call {call})"),
            });
        }
        let truncate =
            self.profile.truncate_rate > 0.0 && state.rng.random_bool(self.profile.truncate_rate);
        let [s, p, o] = probe;
        let rows = self.inner.matching(s, p, o, deadline)?;
        if truncate {
            // A short read is detectable (the stream was cut), so it is
            // surfaced as a retryable error rather than silent partial data.
            return Err(EndpointError::Truncated {
                endpoint: self.inner.name().to_string(),
                returned: rows.len() / 2,
            });
        }
        Ok(rows)
    }
}

impl<E: Endpoint> Endpoint for FaultyEndpoint<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn matching(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<Vec<[Value; 3]>, EndpointError> {
        match self.matching_batch(&[[s, p, o]], deadline) {
            (_, Some(err)) => Err(err),
            (mut answered, None) => Ok(answered.pop().unwrap_or_default()),
        }
    }

    fn matching_batch(
        &self,
        probes: &[Probe<'_>],
        deadline: &Deadline,
    ) -> (Vec<Rows>, Option<EndpointError>) {
        let mut answered = Vec::with_capacity(probes.len());
        if probes.is_empty() {
            return (answered, None);
        }
        let mut state = self.lock();
        state.requests += 1;
        for (i, &probe) in probes.iter().enumerate() {
            let call = state.calls;
            state.calls += 1;
            // Latency is paid once, after the first probe's call index is
            // taken: a request cut by its deadline consumes that index, as
            // the same probe sent alone would.
            let latency = if i == 0 {
                self.pay_latency(deadline)
            } else {
                Ok(())
            };
            match latency.and_then(|()| self.probe(&mut state, call, probe, deadline)) {
                Ok(rows) => answered.push(rows),
                Err(err) => return (answered, Some(err)),
            }
        }
        (answered, None)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::federation::endpoint::DatasetEndpoint;
    use alex_rdf::Dataset;

    fn inner() -> DatasetEndpoint {
        let mut ds = Dataset::new("T");
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        ds.add_str("http://e/b", "http://e/name", "Beta");
        DatasetEndpoint::new(ds)
    }

    #[test]
    fn noop_profile_is_transparent() {
        let ep = FaultyEndpoint::new(inner(), FaultProfile::none());
        assert_eq!(ep.name(), "T");
        let rows = ep.matching(None, None, None, &Deadline::none()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(ep.has_matches(None, None, None, &Deadline::none()).unwrap());
        assert_eq!(ep.calls(), 2, "matching + has_matches (via default)");
    }

    #[test]
    fn transient_faults_are_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let ep = FaultyEndpoint::new(
                inner(),
                FaultProfile {
                    seed,
                    transient_rate: 0.5,
                    ..FaultProfile::none()
                },
            );
            (0..32)
                .map(|_| ep.matching(None, None, None, &Deadline::none()).is_err())
                .collect()
        };
        let a = schedule(7);
        assert_eq!(a, schedule(7), "same seed, same fault sequence");
        assert_ne!(a, schedule(8), "different seed, different sequence");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn outage_window_is_hard_down() {
        let ep = FaultyEndpoint::new(
            inner(),
            FaultProfile {
                outage: Some((1, 3)),
                ..FaultProfile::none()
            },
        );
        let call = || ep.matching(None, None, None, &Deadline::none());
        assert!(call().is_ok(), "call 0 precedes the window");
        for expected_call in 1..3 {
            match call() {
                Err(EndpointError::Unavailable { endpoint, message }) => {
                    assert_eq!(endpoint, "T");
                    assert!(message.contains(&format!("call {expected_call}")));
                }
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
        assert!(call().is_ok(), "recovered after the window");
    }

    #[test]
    fn truncation_reports_short_read() {
        let ep = FaultyEndpoint::new(
            inner(),
            FaultProfile {
                truncate_rate: 1.0,
                ..FaultProfile::none()
            },
        );
        match ep.matching(None, None, None, &Deadline::none()) {
            Err(EndpointError::Truncated { endpoint, returned }) => {
                assert_eq!(endpoint, "T");
                assert_eq!(returned, 1, "2 rows truncated to half");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn latency_trips_an_already_tight_deadline() {
        let ep = FaultyEndpoint::new(
            inner(),
            FaultProfile {
                latency: Duration::from_millis(2),
                ..FaultProfile::none()
            },
        );
        let out = ep.matching(
            None,
            None,
            None,
            &Deadline::within(Duration::from_micros(100)),
        );
        assert_eq!(
            out,
            Err(EndpointError::DeadlineExceeded {
                endpoint: "T".into()
            })
        );
        // With room to spare the same call succeeds.
        let out = ep.matching(None, None, None, &Deadline::within(Duration::from_secs(10)));
        assert_eq!(out.unwrap().len(), 2);
    }

    #[test]
    fn injected_latency_is_clamped_to_the_remaining_budget() {
        // Injected latency far beyond the deadline: the call must give up
        // at the deadline, not sleep the whole injected duration.
        let ep = FaultyEndpoint::new(
            inner(),
            FaultProfile {
                latency: Duration::from_secs(30),
                ..FaultProfile::none()
            },
        );
        let started = std::time::Instant::now();
        let out = ep.matching(
            None,
            None,
            None,
            &Deadline::within(Duration::from_millis(20)),
        );
        assert_eq!(
            out,
            Err(EndpointError::DeadlineExceeded {
                endpoint: "T".into()
            })
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sleep overshot the deadline: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn batch_replays_the_per_call_schedule() {
        let profile = FaultProfile {
            seed: 11,
            transient_rate: 0.3,
            truncate_rate: 0.2,
            outage: Some((5, 8)),
            ..FaultProfile::none()
        };
        let per_call = FaultyEndpoint::new(inner(), profile.clone());
        let batched = FaultyEndpoint::new(inner(), profile);
        let a = Value::iri("http://e/a");
        let probes: Vec<Probe<'_>> = (0..40)
            .map(|i| match i % 2 {
                0 => [Some(&a), None, None],
                _ => [None, None, None],
            })
            .collect();
        // One call per probe, each resent until it succeeds.
        let mut expected = Vec::new();
        for &[s, p, o] in &probes {
            loop {
                let out = per_call.matching(s, p, o, &Deadline::none());
                let done = out.is_ok();
                expected.push(out);
                if done {
                    break;
                }
            }
        }
        // One request per failure, each resending from the failed probe.
        let mut got = Vec::new();
        let mut next = 0;
        while next < probes.len() {
            let (answered, err) = batched.matching_batch(&probes[next..], &Deadline::none());
            next += answered.len();
            got.extend(answered.into_iter().map(Ok));
            got.extend(err.map(Err));
        }
        assert!(
            got.iter().any(Result::is_err),
            "the profile must inject faults"
        );
        assert_eq!(got, expected, "same outcomes, call for call");
        assert_eq!(batched.calls(), per_call.calls(), "same call indices");
        assert_eq!(per_call.requests(), per_call.calls());
        assert!(batched.requests() < per_call.requests() / 2);
    }

    #[test]
    fn a_batch_pays_latency_once() {
        let ep = FaultyEndpoint::new(
            inner(),
            FaultProfile {
                latency: Duration::from_millis(40),
                ..FaultProfile::none()
            },
        );
        let probes: Vec<Probe<'_>> = vec![[None, None, None]; 10];
        let started = std::time::Instant::now();
        let (answered, err) = ep.matching_batch(&probes, &Deadline::none());
        let elapsed = started.elapsed();
        assert_eq!(err, None);
        assert_eq!(answered.len(), 10);
        assert!(elapsed >= Duration::from_millis(40));
        assert!(
            elapsed < Duration::from_millis(400),
            "paid per probe: {elapsed:?}"
        );
        assert_eq!((ep.requests(), ep.calls()), (1, 10));

        // A deadline inside the latency cuts the request at its first
        // probe, which consumes one call index, as a lone call would.
        let (answered, err) =
            ep.matching_batch(&probes, &Deadline::within(Duration::from_micros(100)));
        assert!(answered.is_empty());
        assert_eq!(
            err,
            Some(EndpointError::DeadlineExceeded {
                endpoint: "T".into()
            })
        );
        assert_eq!((ep.requests(), ep.calls()), (2, 11));
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultProfile::parse(
            "seed=7, transient=0.3, truncate=0.1, latency-ms=5, outage=100..200",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.transient_rate, 0.3);
        assert_eq!(p.truncate_rate, 0.1);
        assert_eq!(p.latency, Duration::from_millis(5));
        assert_eq!(p.outage, Some((100, 200)));
        assert!(!p.is_noop());
    }

    #[test]
    fn parse_open_ended_outage_and_empty_spec() {
        let p = FaultProfile::parse("outage=10..").unwrap();
        assert_eq!(p.outage, Some((10, u64::MAX)));
        assert!(FaultProfile::parse("").unwrap().is_noop());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "transient=1.5",
            "transient=-0.1",
            "bogus=1",
            "seed",
            "outage=5..2",
            "latency-ms=abc",
        ] {
            assert!(FaultProfile::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn with_seed_keeps_rates() {
        let p = FaultProfile::parse("transient=0.25,seed=1")
            .unwrap()
            .with_seed(9);
        assert_eq!(p.seed, 9);
        assert_eq!(p.transient_rate, 0.25);
    }
}
