//! Endpoints: the federation engine's view of a data source.
//!
//! Endpoint calls are fallible and budgeted: a remote SPARQL endpoint can
//! error, stall, or truncate its response, so `matching` returns a
//! `Result` and takes a per-call [`Deadline`]. The in-process
//! [`DatasetEndpoint`] never fails on its own, but still honors the
//! deadline so the executor's budget accounting is uniform.
//!
//! The executor sends each endpoint its probe list as one request
//! ([`Endpoint::matching_batch`], a FedX-style bound join): one round trip
//! per (pattern, partial solution, endpoint) instead of one per probe.

use std::sync::Arc;

use alex_rdf::{Dataset, Term};

use crate::value::Value;

use super::resilience::{Deadline, EndpointError};

/// The triples one probe matched.
pub type Rows = Vec<[Value; 3]>;

/// One probe: an (s, p, o) pattern whose `None` positions are wildcards.
pub type Probe<'a> = [Option<&'a Value>; 3];

/// A queryable data source. In-process wrapper around a data set here; a
/// network SPARQL endpoint in a deployed system.
///
/// `Send + Sync` because the executor dispatches probes to different
/// endpoints concurrently; implementations with mutable state (the fault
/// injector, a connection pool) must synchronize it internally.
pub trait Endpoint: Send + Sync {
    /// The source's name (used in diagnostics and provenance).
    fn name(&self) -> &str;

    /// All triples matching the pattern; `None` positions are wildcards.
    /// Fails when the source errors or the `deadline` expires mid-call.
    fn matching(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<Vec<[Value; 3]>, EndpointError>;

    /// Whether any triple matches (used for source selection). The default
    /// checks the deadline before materializing and propagates endpoint
    /// errors — a failing source must surface as an error, never as a
    /// silent "no matches". Implementations should override this when they
    /// can answer without materializing the full result.
    fn has_matches(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<bool, EndpointError> {
        deadline.check(self.name())?;
        Ok(!self.matching(s, p, o, deadline)?.is_empty())
    }

    /// Answer `probes` as one request under one `deadline`: the rows of
    /// the answered prefix, in probe order, and the error that stopped the
    /// request (`None` only when every probe was answered). The default
    /// loops over [`Endpoint::matching`], so an endpoint or decorator
    /// that only implements `matching` keeps working, one call per probe.
    fn matching_batch(
        &self,
        probes: &[Probe<'_>],
        deadline: &Deadline,
    ) -> (Vec<Rows>, Option<EndpointError>) {
        let mut answered = Vec::with_capacity(probes.len());
        for &[s, p, o] in probes {
            match self.matching(s, p, o, deadline) {
                Ok(rows) => answered.push(rows),
                Err(err) => return (answered, Some(err)),
            }
        }
        (answered, None)
    }
}

/// An in-process endpoint over an owned [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetEndpoint {
    dataset: Arc<Dataset>,
}

impl DatasetEndpoint {
    /// Wrap a data set, owned or shared with its other readers.
    pub fn new(dataset: impl Into<Arc<Dataset>>) -> Self {
        DatasetEndpoint {
            dataset: dataset.into(),
        }
    }

    /// Resolve a constant value to a dataset-local term. A constant that
    /// does not occur in the data set matches nothing.
    fn term_of(&self, v: Option<&Value>) -> Result<Option<Term>, ()> {
        match v {
            None => Ok(None),
            Some(v) => match v.lookup_term(&self.dataset) {
                Some(t) => Ok(Some(t)),
                None => Err(()), // constant absent from this data set
            },
        }
    }
}

impl Endpoint for DatasetEndpoint {
    fn name(&self) -> &str {
        self.dataset.name()
    }

    fn matching(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<Vec<[Value; 3]>, EndpointError> {
        deadline.check(self.name())?;
        let (Ok(s), Ok(p), Ok(o)) = (self.term_of(s), self.term_of(p), self.term_of(o)) else {
            return Ok(Vec::new());
        };
        Ok(self
            .dataset
            .graph()
            .matching(s, p, o)
            .map(|t| {
                [
                    Value::from_term(&self.dataset, t.subject),
                    Value::from_term(&self.dataset, t.predicate),
                    Value::from_term(&self.dataset, t.object),
                ]
            })
            .collect())
    }

    fn has_matches(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<bool, EndpointError> {
        deadline.check(self.name())?;
        let (Ok(s), Ok(p), Ok(o)) = (self.term_of(s), self.term_of(p), self.term_of(o)) else {
            return Ok(false);
        };
        Ok(self.dataset.graph().matching(s, p, o).next().is_some())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn endpoint() -> DatasetEndpoint {
        let mut ds = Dataset::new("T");
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        ds.add_str("http://e/b", "http://e/name", "Beta");
        DatasetEndpoint::new(ds)
    }

    #[test]
    fn wildcard_scan() {
        let ep = endpoint();
        assert_eq!(
            ep.matching(None, None, None, &Deadline::none())
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn bound_subject() {
        let ep = endpoint();
        let s = Value::iri("http://e/a");
        let rows = ep
            .matching(Some(&s), None, None, &Deadline::none())
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], Value::plain("Alpha"));
    }

    #[test]
    fn absent_constant_matches_nothing() {
        let ep = endpoint();
        let s = Value::iri("http://elsewhere/x");
        assert!(ep
            .matching(Some(&s), None, None, &Deadline::none())
            .unwrap()
            .is_empty());
        assert!(!ep
            .has_matches(Some(&s), None, None, &Deadline::none())
            .unwrap());
    }

    #[test]
    fn has_matches_agrees_with_matching() {
        let ep = endpoint();
        let p = Value::iri("http://e/name");
        assert!(ep
            .has_matches(None, Some(&p), None, &Deadline::none())
            .unwrap());
        let q = Value::iri("http://e/other");
        assert!(!ep
            .has_matches(None, Some(&q), None, &Deadline::none())
            .unwrap());
    }

    #[test]
    fn name_is_dataset_name() {
        assert_eq!(endpoint().name(), "T");
    }

    #[test]
    fn expired_deadline_errors_instead_of_empty() {
        let ep = endpoint();
        let expired = Deadline::within(Duration::ZERO);
        assert_eq!(
            ep.matching(None, None, None, &expired),
            Err(EndpointError::DeadlineExceeded {
                endpoint: "T".into()
            })
        );
        assert_eq!(
            ep.has_matches(None, None, None, &expired),
            Err(EndpointError::DeadlineExceeded {
                endpoint: "T".into()
            })
        );
    }

    /// The trait-level `matching_batch` default answers probes in order
    /// and stops at the first error, returning the answered prefix.
    #[test]
    fn default_batch_stops_at_the_first_error() {
        struct FailsOnB;
        impl Endpoint for FailsOnB {
            fn name(&self) -> &str {
                "FailsOnB"
            }
            fn matching(
                &self,
                s: Option<&Value>,
                _p: Option<&Value>,
                _o: Option<&Value>,
                deadline: &Deadline,
            ) -> Result<Vec<[Value; 3]>, EndpointError> {
                if s == Some(&Value::iri("http://e/b")) {
                    return Err(EndpointError::Transient {
                        endpoint: "FailsOnB".into(),
                        message: "503".into(),
                    });
                }
                endpoint().matching(s, None, None, deadline)
            }
        }
        let (a, b) = (Value::iri("http://e/a"), Value::iri("http://e/b"));
        let probes = [
            [Some(&a), None, None],
            [None, None, None],
            [Some(&b), None, None],
            [Some(&a), None, None],
        ];
        let (answered, err) = FailsOnB.matching_batch(&probes, &Deadline::none());
        assert_eq!(answered.iter().map(Vec::len).collect::<Vec<_>>(), [1, 2]);
        assert!(matches!(err, Some(EndpointError::Transient { .. })));
        let (answered, err) = endpoint().matching_batch(&probes, &Deadline::none());
        assert_eq!(
            answered.iter().map(Vec::len).collect::<Vec<_>>(),
            [1, 2, 1, 1]
        );
        assert_eq!(err, None);
    }

    /// The trait-level `has_matches` default must propagate underlying
    /// errors and check the deadline before materializing anything.
    #[test]
    fn default_has_matches_reports_errors() {
        struct Flaky;
        impl Endpoint for Flaky {
            fn name(&self) -> &str {
                "Flaky"
            }
            fn matching(
                &self,
                _s: Option<&Value>,
                _p: Option<&Value>,
                _o: Option<&Value>,
                _deadline: &Deadline,
            ) -> Result<Vec<[Value; 3]>, EndpointError> {
                Err(EndpointError::Transient {
                    endpoint: "Flaky".into(),
                    message: "503".into(),
                })
            }
        }
        let err = Flaky.has_matches(None, None, None, &Deadline::none());
        assert_eq!(
            err,
            Err(EndpointError::Transient {
                endpoint: "Flaky".into(),
                message: "503".into(),
            })
        );
        // Expired deadline short-circuits before the (failing) call.
        let err = Flaky.has_matches(None, None, None, &Deadline::within(Duration::ZERO));
        assert_eq!(
            err,
            Err(EndpointError::DeadlineExceeded {
                endpoint: "Flaky".into()
            })
        );
    }
}
