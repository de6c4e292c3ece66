//! Per-endpoint coverage catalogs for source selection.
//!
//! Broadcasting every triple pattern to every endpoint is the dominant
//! cost of federated evaluation: most sources cannot answer most
//! patterns, and every useless probe burns latency, retry budget, and
//! cache capacity. A [`Catalog`] records, per endpoint, which predicate
//! IRIs (and, for `rdf:type`, which class IRIs) the source holds, so the
//! executor can *prove* a probe would return nothing and skip it.
//!
//! Two ways to build coverage:
//!
//! * **probing** ([`Catalog::probe_endpoint`], or [`Catalog::record_scan`]
//!   over a scan the caller ran — `FederatedEngine::build_catalog` runs
//!   it under retries and the breaker) — a wildcard scan of the
//!   endpoint collects the full predicate/class sets. Probing is always
//!   exhaustive, never sampled: a sampled catalog could miss a predicate
//!   the endpoint does hold, and a false "not covered" verdict silently
//!   loses answers — the one failure mode a pruning layer must never
//!   have. (Sources too large to scan should declare instead.)
//! * **declaration** ([`Catalog::declare`]) — coverage supplied upfront
//!   (a VoID-style description, a service manifest).
//!
//! Staleness is explicit: the catalog carries a version counter, every
//! coverage entry records the version it was built at, and
//! [`Catalog::bump_version`] marks all existing entries stale when the
//! underlying data may have changed. A stale (or absent) entry means
//! *unknown*, and unknown endpoints are broadcast — the catalog can only
//! narrow selection when it has fresh positive knowledge, so a forgotten
//! refresh degrades to the old broadcast behavior instead of losing
//! answers.
//!
//! The completeness contract: a catalog prune asserts "this endpoint
//! provably holds no matching triple", so it does **not** downgrade
//! [`Completeness`](super::resilience::Completeness). Resilience skips
//! (breaker open, retries exhausted, budget blown) keep their explicit
//! downgrade — the catalog consults coverage only, never health, so it
//! can never convert an outage into a silent gap.

use std::collections::{BTreeMap, BTreeSet};

use crate::value::Value;

use super::endpoint::Endpoint;
use super::resilience::{Deadline, EndpointError};

/// What one endpoint is known to hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Predicate IRIs with at least one triple.
    pub predicates: BTreeSet<String>,
    /// Class IRIs with at least one `rdf:type` assertion.
    pub classes: BTreeSet<String>,
    /// Catalog version this entry was built at; older than the catalog's
    /// current version means stale (treated as unknown).
    pub built_version: u64,
}

/// Error from parsing a serialized catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for CatalogParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "catalog parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for CatalogParseError {}

/// A versioned map from endpoint name to [`Coverage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    version: u64,
    entries: BTreeMap<String, Coverage>,
}

impl Catalog {
    /// An empty catalog (covers nothing, prunes nothing).
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The current data version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of endpoints with coverage entries (fresh or stale).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no endpoint has a coverage entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mark the underlying data as changed: every existing entry becomes
    /// stale (unknown) until re-probed or re-declared.
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Declare an endpoint's coverage upfront (stamped fresh at the
    /// current version).
    pub fn declare<P, C>(&mut self, endpoint: impl Into<String>, predicates: P, classes: C)
    where
        P: IntoIterator<Item = String>,
        C: IntoIterator<Item = String>,
    {
        self.entries.insert(
            endpoint.into(),
            Coverage {
                predicates: predicates.into_iter().collect(),
                classes: classes.into_iter().collect(),
                built_version: self.version,
            },
        );
    }

    /// Build (or refresh) an endpoint's coverage by an exhaustive
    /// wildcard scan. On error the endpoint's previous entry is left
    /// untouched (possibly stale — i.e. broadcast), never half-written.
    pub fn probe_endpoint(
        &mut self,
        ep: &dyn Endpoint,
        deadline: &Deadline,
    ) -> Result<(), EndpointError> {
        let rows = ep.matching(None, None, None, deadline)?;
        self.record_scan(ep.name(), &rows);
        Ok(())
    }

    /// Build (or refresh) an endpoint's coverage from the rows of a
    /// complete wildcard scan of it.
    pub fn record_scan(&mut self, endpoint: &str, rows: &[[Value; 3]]) {
        let mut coverage = Coverage {
            built_version: self.version,
            ..Coverage::default()
        };
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
        self.entries.insert(endpoint.to_string(), coverage);
    }

    /// The coverage entry for an endpoint, if any (fresh or stale).
    pub fn coverage(&self, endpoint: &str) -> Option<&Coverage> {
        self.entries.get(endpoint)
    }

    /// Whether the endpoint's entry is stale (or missing): stale entries
    /// are treated as unknown and never prune.
    pub fn is_stale(&self, endpoint: &str) -> bool {
        self.entries
            .get(endpoint)
            .is_none_or(|c| c.built_version < self.version)
    }

    /// Whether a probe `(p, o)` *may* match on `endpoint`. `false` is a
    /// proof of emptiness (safe to prune); `true` means unknown-or-maybe
    /// (must probe). Only fresh positive knowledge prunes:
    ///
    /// * no entry, or a stale entry → `true` (unknown);
    /// * bound IRI predicate not in the predicate set → `false`;
    /// * `rdf:type` with a bound IRI object not in the class set → `false`;
    /// * anything else (unbound or non-IRI predicate) → `true`.
    pub fn may_match(&self, endpoint: &str, p: Option<&Value>, o: Option<&Value>) -> bool {
        let Some(coverage) = self.entries.get(endpoint) else {
            return true;
        };
        if coverage.built_version < self.version {
            return true;
        }
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

    /// Serialize to a line-oriented text document (stable: sorted maps).
    ///
    /// ```text
    /// alex-catalog v1
    /// version 3
    /// endpoint 3 DBpedia
    /// predicate http://db/award
    /// class http://db/Player
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("alex-catalog v1\n");
        out.push_str(&format!("version {}\n", self.version));
        for (name, coverage) in &self.entries {
            out.push_str(&format!("endpoint {} {}\n", coverage.built_version, name));
            for p in &coverage.predicates {
                out.push_str(&format!("predicate {p}\n"));
            }
            for c in &coverage.classes {
                out.push_str(&format!("class {c}\n"));
            }
        }
        out
    }

    /// Parse a document produced by [`Catalog::to_text`].
    pub fn from_text(doc: &str) -> Result<Catalog, CatalogParseError> {
        let err = |line: usize, message: &str| CatalogParseError {
            line,
            message: message.to_string(),
        };
        let mut lines = doc.lines().enumerate();
        match lines.next() {
            Some((_, "alex-catalog v1")) => {}
            _ => return Err(err(1, "expected header 'alex-catalog v1'")),
        }
        let mut catalog = Catalog::new();
        let mut current: Option<String> = None;
        let mut saw_version = false;
        for (i, line) in lines {
            let lineno = i + 1;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (kind, rest) = line
                .split_once(' ')
                .ok_or_else(|| err(lineno, "expected '<kind> <value>'"))?;
            match kind {
                "version" => {
                    catalog.version = rest
                        .parse()
                        .map_err(|_| err(lineno, "invalid version number"))?;
                    saw_version = true;
                }
                "endpoint" => {
                    let (built, name) = rest
                        .split_once(' ')
                        .ok_or_else(|| err(lineno, "expected 'endpoint <version> <name>'"))?;
                    let built_version: u64 = built
                        .parse()
                        .map_err(|_| err(lineno, "invalid endpoint version"))?;
                    if name.is_empty() {
                        return Err(err(lineno, "empty endpoint name"));
                    }
                    catalog.entries.insert(
                        name.to_string(),
                        Coverage {
                            built_version,
                            ..Coverage::default()
                        },
                    );
                    current = Some(name.to_string());
                }
                "predicate" | "class" => {
                    let Some(name) = &current else {
                        return Err(err(lineno, "coverage line before any endpoint"));
                    };
                    // The entry was just inserted above; guard anyway to
                    // stay panic-free.
                    let Some(coverage) = catalog.entries.get_mut(name) else {
                        return Err(err(lineno, "coverage line before any endpoint"));
                    };
                    if kind == "predicate" {
                        coverage.predicates.insert(rest.to_string());
                    } else {
                        coverage.classes.insert(rest.to_string());
                    }
                }
                other => return Err(err(lineno, &format!("unknown line kind '{other}'"))),
            }
        }
        if !saw_version {
            return Err(err(1, "missing 'version' line"));
        }
        Ok(catalog)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::federation::endpoint::DatasetEndpoint;
    use alex_rdf::Dataset;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new("T");
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        ds.add_iri("http://e/a", alex_rdf::vocab::RDF_TYPE, "http://e/Person");
        ds.add_iri("http://e/b", "http://e/knows", "http://e/a");
        ds
    }

    #[test]
    fn probe_collects_predicates_and_classes() {
        let ep = DatasetEndpoint::new(dataset());
        let mut cat = Catalog::new();
        cat.probe_endpoint(&ep, &Deadline::none()).unwrap();
        let cov = cat.coverage("T").unwrap();
        assert!(cov.predicates.contains("http://e/name"));
        assert!(cov.predicates.contains("http://e/knows"));
        assert!(cov.predicates.contains(alex_rdf::vocab::RDF_TYPE));
        assert_eq!(cov.classes.len(), 1);
        assert!(cov.classes.contains("http://e/Person"));
        assert!(!cat.is_stale("T"));
    }

    #[test]
    fn may_match_prunes_only_with_fresh_positive_knowledge() {
        let ep = DatasetEndpoint::new(dataset());
        let mut cat = Catalog::new();
        let name = Value::iri("http://e/name");
        let ghost = Value::iri("http://e/ghost");

        // Unknown endpoint: never prune.
        assert!(cat.may_match("T", Some(&ghost), None));
        cat.probe_endpoint(&ep, &Deadline::none()).unwrap();
        // Fresh knowledge: covered predicates pass, absent ones prune.
        assert!(cat.may_match("T", Some(&name), None));
        assert!(!cat.may_match("T", Some(&ghost), None));
        // Unbound and non-IRI predicates never prune.
        assert!(cat.may_match("T", None, None));
        assert!(cat.may_match("T", Some(&Value::plain("lit")), None));
        // rdf:type narrows by class.
        let rdf_type = Value::iri(alex_rdf::vocab::RDF_TYPE);
        assert!(cat.may_match("T", Some(&rdf_type), Some(&Value::iri("http://e/Person"))));
        assert!(!cat.may_match("T", Some(&rdf_type), Some(&Value::iri("http://e/Robot"))));
        assert!(cat.may_match("T", Some(&rdf_type), None));
    }

    #[test]
    fn bump_version_makes_entries_stale_and_disables_pruning() {
        let ep = DatasetEndpoint::new(dataset());
        let mut cat = Catalog::new();
        cat.probe_endpoint(&ep, &Deadline::none()).unwrap();
        let ghost = Value::iri("http://e/ghost");
        assert!(!cat.may_match("T", Some(&ghost), None));
        cat.bump_version();
        assert!(cat.is_stale("T"));
        assert!(
            cat.may_match("T", Some(&ghost), None),
            "stale entries must broadcast, not prune"
        );
        // Re-probing restores fresh pruning at the new version.
        cat.probe_endpoint(&ep, &Deadline::none()).unwrap();
        assert!(!cat.is_stale("T"));
        assert!(!cat.may_match("T", Some(&ghost), None));
    }

    #[test]
    fn declared_coverage_prunes_like_probed() {
        let mut cat = Catalog::new();
        cat.declare(
            "Remote With Spaces",
            vec!["http://e/name".to_string()],
            vec!["http://e/Person".to_string()],
        );
        assert!(cat.may_match(
            "Remote With Spaces",
            Some(&Value::iri("http://e/name")),
            None
        ));
        assert!(!cat.may_match(
            "Remote With Spaces",
            Some(&Value::iri("http://e/other")),
            None
        ));
    }

    #[test]
    fn text_round_trip_is_stable() {
        let ep = DatasetEndpoint::new(dataset());
        let mut cat = Catalog::new();
        cat.bump_version();
        cat.probe_endpoint(&ep, &Deadline::none()).unwrap();
        cat.declare(
            "Semantic Web Dogfood",
            vec!["http://s/p".to_string()],
            Vec::new(),
        );
        let doc = cat.to_text();
        let back = Catalog::from_text(&doc).unwrap();
        assert_eq!(back, cat);
        assert_eq!(back.to_text(), doc, "serialization is a fixpoint");
        assert_eq!(back.version(), 1);
        assert!(!back.is_stale("Semantic Web Dogfood"));
    }

    #[test]
    fn from_text_rejects_malformed_documents() {
        assert!(Catalog::from_text("").is_err());
        assert!(Catalog::from_text("not-a-catalog\n").is_err());
        assert!(
            Catalog::from_text("alex-catalog v1\n").is_err(),
            "missing version"
        );
        assert!(Catalog::from_text("alex-catalog v1\nversion x\n").is_err());
        assert!(
            Catalog::from_text("alex-catalog v1\nversion 0\npredicate http://p\n").is_err(),
            "coverage before endpoint"
        );
        assert!(Catalog::from_text("alex-catalog v1\nversion 0\nwhat is this\n").is_err());
        let e =
            Catalog::from_text("alex-catalog v1\nversion 0\nendpoint notanumber T\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn probe_failure_leaves_previous_entry_untouched() {
        use crate::federation::fault::{FaultProfile, FaultyEndpoint};
        let good = DatasetEndpoint::new(dataset());
        let mut cat = Catalog::new();
        cat.probe_endpoint(&good, &Deadline::none()).unwrap();
        let before = cat.clone();
        let dead = FaultyEndpoint::new(
            DatasetEndpoint::new(dataset()),
            FaultProfile {
                outage: Some((0, u64::MAX)),
                ..FaultProfile::none()
            },
        );
        assert!(cat.probe_endpoint(&dead, &Deadline::none()).is_err());
        assert_eq!(cat, before);
    }
}
