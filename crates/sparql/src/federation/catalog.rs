//! Per-endpoint coverage catalogs for source selection.
//!
//! Broadcasting every triple pattern to every endpoint is the dominant
//! cost of federated evaluation: most sources cannot answer most
//! patterns, and every useless probe burns latency, retry budget, and
//! cache capacity. A [`Catalog`] records, per endpoint slot, which predicate
//! IRIs (and, for `rdf:type`, which class IRIs) the source holds, so the
//! executor can *prove* a probe would return nothing and skip it.
//!
//! Coverage comes only from probing: [`Catalog::record_scan`] takes the
//! rows of a complete wildcard scan of the endpoint, which
//! `FederatedEngine::build_catalog` runs under retries and the breaker.
//! Probing is always exhaustive, never sampled or written by hand: a
//! catalog that misses a predicate the endpoint does hold turns a "not
//! covered" verdict into silently lost answers — the one failure mode a
//! pruning layer must never have. An endpoint without an entry is unknown, and
//! unknown endpoints are broadcast.
//!
//! The completeness contract: a catalog prune asserts "this endpoint
//! provably holds no matching triple", so it does **not** downgrade
//! [`Completeness`](super::resilience::Completeness). Resilience skips
//! (breaker open, retries exhausted, budget blown) keep their explicit
//! downgrade — the catalog consults coverage only, never health, so it
//! can never convert an outage into a silent gap.

use std::collections::{BTreeMap, BTreeSet};

use crate::value::Value;

/// What one endpoint is known to hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Coverage {
    /// Predicate IRIs with at least one triple.
    predicates: BTreeSet<String>,
    /// Class IRIs with at least one `rdf:type` assertion.
    classes: BTreeSet<String>,
}

/// A map from endpoint slot (the endpoint's registration index in its
/// engine) to the coverage a scan of it found. Slots, not names, tell
/// endpoints apart: two endpoints may share a name and hold different
/// data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    entries: BTreeMap<usize, Coverage>,
}

impl Catalog {
    /// An empty catalog (covers nothing, prunes nothing).
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Build (or refresh) the coverage of endpoint slot `endpoint` from
    /// the rows of a complete wildcard scan of it.
    pub fn record_scan(&mut self, endpoint: usize, rows: &[[Value; 3]]) {
        let mut coverage = Coverage::default();
        for [_, p, o] in rows {
            if let Value::Iri(p_iri) = p {
                coverage.predicates.insert(p_iri.clone());
                if p_iri == alex_rdf::vocab::RDF_TYPE {
                    if let Value::Iri(class) = o {
                        coverage.classes.insert(class.clone());
                    }
                }
            }
        }
        self.entries.insert(endpoint, coverage);
    }

    /// Whether a probe `(p, o)` *may* match on endpoint slot `endpoint`. `false` is a
    /// proof of emptiness (safe to prune); `true` means unknown-or-maybe
    /// (must probe). Only positive knowledge prunes:
    ///
    /// * no entry → `true` (unknown);
    /// * bound IRI predicate not in the predicate set → `false`;
    /// * `rdf:type` with a bound IRI object not in the class set → `false`;
    /// * anything else (unbound or non-IRI predicate) → `true`.
    pub fn may_match(&self, endpoint: usize, p: Option<&Value>, o: Option<&Value>) -> bool {
        let Some(coverage) = self.entries.get(&endpoint) else {
            return true;
        };
        let Some(Value::Iri(p_iri)) = p else {
            return true;
        };
        if !coverage.predicates.contains(p_iri) {
            return false;
        }
        if p_iri == alex_rdf::vocab::RDF_TYPE {
            if let Some(Value::Iri(class)) = o {
                return coverage.classes.contains(class);
            }
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn scan() -> Vec<[Value; 3]> {
        vec![
            [
                Value::iri("http://e/a"),
                Value::iri("http://e/name"),
                Value::plain("Alpha"),
            ],
            [
                Value::iri("http://e/a"),
                Value::iri(alex_rdf::vocab::RDF_TYPE),
                Value::iri("http://e/Person"),
            ],
            [
                Value::iri("http://e/b"),
                Value::iri("http://e/knows"),
                Value::iri("http://e/a"),
            ],
        ]
    }

    #[test]
    fn scan_collects_predicates_and_classes() {
        let mut cat = Catalog::new();
        cat.record_scan(0, &scan());
        let cov = &cat.entries[&0];
        assert!(cov.predicates.contains("http://e/name"));
        assert!(cov.predicates.contains("http://e/knows"));
        assert!(cov.predicates.contains(alex_rdf::vocab::RDF_TYPE));
        assert_eq!(cov.classes.len(), 1);
        assert!(cov.classes.contains("http://e/Person"));
    }

    #[test]
    fn may_match_prunes_only_with_positive_knowledge() {
        let mut cat = Catalog::new();
        let name = Value::iri("http://e/name");
        let ghost = Value::iri("http://e/ghost");

        // Unknown endpoint: never prune.
        assert!(cat.may_match(0, Some(&ghost), None));
        cat.record_scan(0, &scan());
        // Covered predicates pass, absent ones prune.
        assert!(cat.may_match(0, Some(&name), None));
        assert!(!cat.may_match(0, Some(&ghost), None));
        // Unbound and non-IRI predicates never prune.
        assert!(cat.may_match(0, None, None));
        assert!(cat.may_match(0, Some(&Value::plain("lit")), None));
        // rdf:type narrows by class.
        let rdf_type = Value::iri(alex_rdf::vocab::RDF_TYPE);
        assert!(cat.may_match(0, Some(&rdf_type), Some(&Value::iri("http://e/Person"))));
        assert!(!cat.may_match(0, Some(&rdf_type), Some(&Value::iri("http://e/Robot"))));
        assert!(cat.may_match(0, Some(&rdf_type), None));
    }
}
