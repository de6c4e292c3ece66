//! The `owl:sameAs` link index used by the federation engine.
//!
//! This is the mutable link store ALEX operates on: federated joins consult
//! it to bridge entities across data sets, query answers record which links
//! they used (provenance), and ALEX's feedback loop adds and removes links.

use std::collections::{HashMap, HashSet};

/// A directed `owl:sameAs` link between two entity IRIs, in the orientation
/// it was asserted (left data set → right data set).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Entity IRI in the left data set.
    pub left: String,
    /// Entity IRI in the right data set.
    pub right: String,
}

impl Link {
    /// Construct a link.
    pub fn new(left: impl Into<String>, right: impl Into<String>) -> Link {
        Link {
            left: left.into(),
            right: right.into(),
        }
    }
}

/// A bidirectional index over sameAs links.
#[derive(Debug, Clone, Default)]
pub struct SameAsLinks {
    forward: HashMap<String, Vec<String>>,
    backward: HashMap<String, Vec<String>>,
    set: HashSet<Link>,
    generation: u64,
}

impl SameAsLinks {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of (left, right) IRI pairs.
    pub fn from_pairs<I, L, R>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (L, R)>,
        L: Into<String>,
        R: Into<String>,
    {
        let mut s = Self::new();
        for (l, r) in pairs {
            s.add(Link::new(l, r));
        }
        s
    }

    /// Closure generation: a counter bumped on every *effective* mutation
    /// (duplicate adds and absent removes do not count). Two indexes with
    /// equal generation that started from the same state hold the same
    /// link closure, so an owner can use it as a cheap check that no one
    /// else mutated the index since it last looked.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Add a link. Returns `true` if it was new.
    pub fn add(&mut self, link: Link) -> bool {
        if !self.set.insert(link.clone()) {
            return false;
        }
        self.generation += 1;
        self.forward
            .entry(link.left.clone())
            .or_default()
            .push(link.right.clone());
        self.backward
            .entry(link.right.clone())
            .or_default()
            .push(link.left.clone());
        true
    }

    /// Remove a link. Returns `true` if it was present.
    pub fn remove(&mut self, link: &Link) -> bool {
        if !self.set.remove(link) {
            return false;
        }
        self.generation += 1;
        if let Some(v) = self.forward.get_mut(&link.left) {
            v.retain(|r| r != &link.right);
        }
        if let Some(v) = self.backward.get_mut(&link.right) {
            v.retain(|l| l != &link.left);
        }
        true
    }

    /// Whether the exact (oriented) link exists.
    pub fn contains(&self, link: &Link) -> bool {
        self.set.contains(link)
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Entities equivalent to `iri` in either direction, each with the link
    /// that asserts the equivalence (in stored orientation, so provenance
    /// can be traced back to the original assertion).
    pub fn equivalents<'a>(&'a self, iri: &str) -> Vec<(&'a str, Link)> {
        let mut out = Vec::new();
        if let Some(rights) = self.forward.get(iri) {
            for r in rights {
                out.push((r.as_str(), Link::new(iri, r.clone())));
            }
        }
        if let Some(lefts) = self.backward.get(iri) {
            for l in lefts {
                out.push((l.as_str(), Link::new(l.clone(), iri)));
            }
        }
        out
    }

    /// Iterate over all links, sorted by `(left, right)`. The backing set
    /// hashes, so raw iteration order would vary per process — and this
    /// ordering seeds the agent's candidate set, where it decides which
    /// index the seeded sampler maps to which pair. Sorting here keeps
    /// whole improve runs byte-reproducible across processes and thread
    /// counts.
    pub fn iter(&self) -> impl Iterator<Item = &Link> {
        let mut links: Vec<&Link> = self.set.iter().collect();
        links.sort_unstable();
        links.into_iter()
    }

    /// Serialize every link as `owl:sameAs` N-Triples (sorted, stable) —
    /// the interchange format other linked-data tools understand.
    pub fn to_ntriples(&self) -> String {
        let mut links: Vec<&Link> = self.set.iter().collect();
        links.sort();
        let mut out = String::new();
        for l in links {
            out.push_str(&format!(
                "<{}> <{}> <{}> .\n",
                l.left,
                alex_rdf::vocab::OWL_SAME_AS,
                l.right
            ));
        }
        out
    }

    /// Parse `owl:sameAs` links from an N-Triples document. Triples with a
    /// different predicate or non-IRI endpoints are ignored.
    pub fn from_ntriples(doc: &str) -> Result<SameAsLinks, alex_rdf::RdfError> {
        let mut ds = alex_rdf::Dataset::new("links");
        alex_rdf::ntriples::parse_into(&mut ds, doc)?;
        let mut out = SameAsLinks::new();
        let Some(same_as) = ds.interner().get(alex_rdf::vocab::OWL_SAME_AS) else {
            return Ok(out);
        };
        for t in ds.graph().iter() {
            if t.predicate != alex_rdf::Term::Iri(same_as) {
                continue;
            }
            if let (alex_rdf::Term::Iri(l), alex_rdf::Term::Iri(r)) = (t.subject, t.object) {
                out.add(Link::new(ds.resolve_sym(l), ds.resolve_sym(r)));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn add_and_contains() {
        let mut s = SameAsLinks::new();
        assert!(s.add(Link::new("a", "x")));
        assert!(!s.add(Link::new("a", "x")), "duplicates rejected");
        assert!(s.contains(&Link::new("a", "x")));
        assert!(!s.contains(&Link::new("x", "a")), "orientation matters");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_cleans_both_directions() {
        let mut s = SameAsLinks::new();
        s.add(Link::new("a", "x"));
        assert!(s.remove(&Link::new("a", "x")));
        assert!(!s.remove(&Link::new("a", "x")));
        assert!(s.equivalents("a").is_empty());
        assert!(s.equivalents("x").is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn equivalents_both_directions_with_provenance() {
        let mut s = SameAsLinks::new();
        s.add(Link::new("a", "x"));
        s.add(Link::new("b", "x"));
        let eq_x = s.equivalents("x");
        assert_eq!(eq_x.len(), 2);
        for (other, link) in &eq_x {
            assert!(s.contains(link), "provenance link {link:?} must exist");
            assert!(*other == "a" || *other == "b");
        }
        let eq_a = s.equivalents("a");
        assert_eq!(eq_a.len(), 1);
        assert_eq!(eq_a[0].0, "x");
        assert_eq!(eq_a[0].1, Link::new("a", "x"));
    }

    #[test]
    fn generation_counts_effective_mutations_only() {
        let mut s = SameAsLinks::new();
        assert_eq!(s.generation(), 0);
        s.add(Link::new("a", "x"));
        assert_eq!(s.generation(), 1);
        s.add(Link::new("a", "x")); // duplicate: no-op
        assert_eq!(s.generation(), 1);
        s.remove(&Link::new("ghost", "y")); // absent: no-op
        assert_eq!(s.generation(), 1);
        s.remove(&Link::new("a", "x"));
        assert_eq!(s.generation(), 2);
        // Clones carry the closure stamp; a mutated clone diverges.
        let mut c = s.clone();
        assert_eq!(c.generation(), 2);
        c.add(Link::new("b", "y"));
        assert_eq!(c.generation(), 3);
        assert_eq!(s.generation(), 2);
    }

    #[test]
    fn from_pairs_builds_index() {
        let s = SameAsLinks::from_pairs(vec![("a", "x"), ("b", "y")]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn unknown_iri_has_no_equivalents() {
        let s = SameAsLinks::new();
        assert!(s.equivalents("ghost").is_empty());
    }

    #[test]
    fn ntriples_round_trip() {
        let s = SameAsLinks::from_pairs(vec![
            ("http://a/1", "http://b/1"),
            ("http://a/2", "http://b/2"),
        ]);
        let doc = s.to_ntriples();
        assert_eq!(doc.lines().count(), 2);
        assert!(doc.contains("owl#sameAs"));
        let back = SameAsLinks::from_ntriples(&doc).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.contains(&Link::new("http://a/1", "http://b/1")));
        // Stable output.
        assert_eq!(back.to_ntriples(), doc);
    }

    #[test]
    fn bulk_constructors_funnel_through_add() {
        // from_pairs and from_ntriples build through add(), so duplicates
        // in the input are no-ops and the generation counts each distinct
        // link exactly once: there is no second mutation path.
        let s = SameAsLinks::from_pairs(vec![("a", "x"), ("b", "y"), ("a", "x")]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.generation(), s.len() as u64);

        let doc = "<http://a/1> <http://www.w3.org/2002/07/owl#sameAs> <http://b/1> .\n\
                   <http://a/1> <http://www.w3.org/2002/07/owl#sameAs> <http://b/1> .\n";
        let t = SameAsLinks::from_ntriples(doc).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.generation(), t.len() as u64);
    }

    #[test]
    fn from_ntriples_ignores_other_predicates() {
        let doc = "<http://a/1> <http://other/pred> <http://b/1> .\n\
                   <http://a/2> <http://www.w3.org/2002/07/owl#sameAs> \"literal\" .\n\
                   <http://a/3> <http://www.w3.org/2002/07/owl#sameAs> <http://b/3> .\n";
        let links = SameAsLinks::from_ntriples(doc).unwrap();
        assert_eq!(links.len(), 1);
        assert!(links.contains(&Link::new("http://a/3", "http://b/3")));
    }
}
