//! Deterministic fault injection for federated execution.
//!
//! [`FaultyEndpoint`] wraps any [`Endpoint`] and injects the federation
//! faults of a [`FaultPlan`]: transient errors, truncated (short-read)
//! results, added latency, and an outage window. Transient and truncate
//! faults are content keyed: the n-th send of a probe to an endpoint draws
//! from `(seed, endpoint name, probe, n)`, so its fate does not depend on
//! what else the endpoint was sent before it. Two endpoints under one plan
//! therefore fail independently, and a cache that saves some sends moves
//! no fault onto another probe. The outage is a call-index window.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use alex_fault::{key, Fault, FaultPlan};

use crate::value::Value;

use super::endpoint::{Endpoint, Probe, Rows};
use super::resilience::{Deadline, EndpointError};

/// [`FaultPlan`] under its old federation name, kept only because
/// `e2e-bench/src/traced.rs` (outside this workspace) still spells it so.
pub type FaultProfile = FaultPlan;

/// Per-endpoint mutable fault state, behind a mutex because endpoint calls
/// take `&self`.
#[derive(Debug, Default)]
struct FaultState {
    /// Probes seen so far: the call index the outage window reads.
    calls: u64,
    /// Requests (round trips) so far; a per-call `matching` is a request
    /// of one probe.
    requests: u64,
    /// Sends so far per probe key; kept only when a rate is set.
    sends: HashMap<u64, u64>,
}

/// A decorator injecting deterministic faults into any [`Endpoint`].
///
/// Faults are drawn per probe, latency per request: a batch of probes
/// takes the same call indices and the same draws as the same probes sent
/// one `matching` call at a time, and stops at the first fault, where the
/// per-call sequence would have failed too.
#[derive(Debug)]
pub struct FaultyEndpoint<E> {
    inner: E,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl<E: Endpoint> FaultyEndpoint<E> {
    /// Wrap `inner` with the federation faults of `plan`.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        FaultyEndpoint {
            inner,
            plan,
            state: Mutex::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probes observed so far (the outage window's call index).
    pub fn calls(&self) -> u64 {
        self.lock().calls
    }

    /// Requests (round trips) observed so far.
    pub fn requests(&self) -> u64 {
        self.lock().requests
    }

    /// Pay the injected latency for one request, whether or not it would
    /// succeed. The sleep is clamped to the deadline's remaining budget;
    /// when the clamp bites, the verdict is known: `DeadlineExceeded`.
    fn pay_latency(&self, deadline: &Deadline) -> Result<(), EndpointError> {
        if self.plan.latency.is_zero() {
            return Ok(());
        }
        match deadline.remaining() {
            Some(remaining) if remaining <= self.plan.latency => {
                std::thread::sleep(remaining);
                Err(EndpointError::DeadlineExceeded {
                    endpoint: self.inner.name().to_string(),
                })
            }
            _ => {
                std::thread::sleep(self.plan.latency);
                Ok(())
            }
        }
    }

    /// The key of this send of `probe`: its endpoint, its pattern and how
    /// often it was sent before.
    fn send_key(&self, state: &mut FaultState, probe: Probe<'_>) -> u64 {
        let terms = probe.map(|t| t.map(Value::to_string).unwrap_or_default());
        let [s, p, o] = terms.each_ref().map(|t| t.as_bytes());
        let probe_key = key(&[self.inner.name().as_bytes(), s, p, o]);
        let sends = state.sends.entry(probe_key).or_insert(0);
        *sends += 1;
        key(&[&probe_key.to_le_bytes(), &(*sends - 1).to_le_bytes()])
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
        if let Some((start, end)) = self.plan.outage {
            if call >= start && call < end {
                return Err(EndpointError::Unavailable {
                    endpoint: self.inner.name().to_string(),
                    message: format!("injected outage (call {call} in {start}..{end})"),
                });
            }
        }
        let (mut transient, mut truncate) = (false, false);
        if self.plan.transient_rate > 0.0 || self.plan.truncate_rate > 0.0 {
            let key = self.send_key(state, probe);
            transient = self.plan.fires(Fault::Transient, key);
            truncate = self.plan.fires(Fault::Truncate, key);
        }
        if transient {
            return Err(EndpointError::Transient {
                endpoint: self.inner.name().to_string(),
                message: format!("injected transient failure (call {call})"),
            });
        }
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
    use std::time::Duration;

    fn faulty(plan: FaultPlan) -> FaultyEndpoint<DatasetEndpoint> {
        let mut ds = Dataset::new("T");
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        ds.add_str("http://e/b", "http://e/name", "Beta");
        FaultyEndpoint::new(DatasetEndpoint::new(ds), plan)
    }

    fn scan(
        ep: &FaultyEndpoint<DatasetEndpoint>,
        deadline: &Deadline,
    ) -> Result<Rows, EndpointError> {
        ep.matching(None, None, None, deadline)
    }

    #[test]
    fn noop_plan_is_transparent() {
        let ep = faulty(FaultPlan::default());
        assert_eq!(ep.name(), "T");
        assert_eq!(scan(&ep, &Deadline::none()).unwrap().len(), 2);
        assert!(ep.has_matches(None, None, None, &Deadline::none()).unwrap());
        assert_eq!(ep.calls(), 2, "matching + has_matches (via default)");
        assert!(ep.lock().sends.is_empty(), "no rate, no per-probe state");
    }

    #[test]
    fn transient_faults_are_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let ep = faulty(FaultPlan {
                seed,
                transient_rate: 0.5,
                ..FaultPlan::default()
            });
            (0..32)
                .map(|_| scan(&ep, &Deadline::none()).is_err())
                .collect()
        };
        let a = schedule(7);
        assert_eq!(a, schedule(7), "same seed, same fault sequence");
        assert_ne!(a, schedule(8), "different seed, different sequence");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn outage_window_is_hard_down() {
        let ep = faulty(FaultPlan {
            outage: Some((1, 3)),
            ..FaultPlan::default()
        });
        assert!(
            scan(&ep, &Deadline::none()).is_ok(),
            "call 0 precedes the window"
        );
        for expected_call in 1..3 {
            match scan(&ep, &Deadline::none()) {
                Err(EndpointError::Unavailable { endpoint, message }) => {
                    assert_eq!(endpoint, "T");
                    assert!(message.contains(&format!("call {expected_call}")));
                }
                other => panic!("expected Unavailable, got {other:?}"),
            }
        }
        assert!(
            scan(&ep, &Deadline::none()).is_ok(),
            "recovered after the window"
        );
    }

    #[test]
    fn truncation_reports_short_read() {
        let ep = faulty(FaultPlan {
            truncate_rate: 1.0,
            ..FaultPlan::default()
        });
        let out = scan(&ep, &Deadline::none());
        let want = EndpointError::Truncated {
            endpoint: "T".into(),
            returned: 1,
        };
        assert_eq!(out, Err(want), "2 rows truncated to half");
    }

    #[test]
    fn injected_latency_trips_deadlines_and_is_clamped_to_them() {
        let late = Err(EndpointError::DeadlineExceeded {
            endpoint: "T".into(),
        });
        let ep = faulty(FaultPlan {
            latency: Duration::from_millis(2),
            ..FaultPlan::default()
        });
        assert_eq!(
            scan(&ep, &Deadline::within(Duration::from_micros(100))),
            late
        );
        // With room to spare the same call succeeds.
        let out = scan(&ep, &Deadline::within(Duration::from_secs(10)));
        assert_eq!(out.unwrap().len(), 2);

        // Latency far beyond the deadline: the call gives up at the
        // deadline, not after the whole injected sleep.
        let ep = faulty(FaultPlan {
            latency: Duration::from_secs(30),
            ..FaultPlan::default()
        });
        let started = std::time::Instant::now();
        assert_eq!(
            scan(&ep, &Deadline::within(Duration::from_millis(20))),
            late
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "sleep overshot: {elapsed:?}"
        );
    }

    #[test]
    fn a_batch_pays_latency_once() {
        let ep = faulty(FaultPlan {
            latency: Duration::from_millis(40),
            ..FaultPlan::default()
        });
        let probes: Vec<Probe<'_>> = vec![[None, None, None]; 10];
        let started = std::time::Instant::now();
        let (answered, err) = ep.matching_batch(&probes, &Deadline::none());
        let elapsed = started.elapsed();
        assert_eq!((answered.len(), err), (10, None));
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
        let late = EndpointError::DeadlineExceeded {
            endpoint: "T".into(),
        };
        assert_eq!(err, Some(late));
        assert_eq!((ep.requests(), ep.calls()), (2, 11));
    }
}
