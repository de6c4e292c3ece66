//! An in-memory indexed triple store.
//!
//! Triples are kept in three ordered indexes — SPO, POS, and OSP — so every
//! triple-pattern shape resolves to a contiguous range scan over one of them.
//! This is the classic RDF store layout (see e.g. Hexastore); three orders
//! suffice because every pattern with at least one bound position maps to a
//! prefix of one of the three.
//!
//! Only SPO is kept from the start. Linking reads entities subject-first,
//! so POS and OSP are bulk-built from SPO the first time a pattern needs
//! one of them (a federated query, say) and maintained by [`Graph::insert`]
//! and [`Graph::remove`] from then on.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::OnceLock;

use crate::interner::Sym;
use crate::term::{Literal, LiteralKind, Term};
use crate::triple::Triple;

/// Smallest possible term under the derived `Ord` (for range lower bounds).
#[inline]
fn min_term() -> Term {
    Term::Iri(Sym::from_index(0))
}

/// Largest possible term under the derived `Ord` (for range upper bounds).
#[inline]
fn max_term() -> Term {
    Term::Literal(Literal {
        lexical: Sym::from_index(u32::MAX as usize),
        kind: LiteralKind::Typed(Sym::from_index(u32::MAX as usize)),
    })
}

type Index = BTreeSet<(Term, Term, Term)>;

/// An in-memory triple store with SPO / POS / OSP indexes, the latter two
/// built on first use.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    spo: Index,
    pos: OnceLock<Index>,
    osp: OnceLock<Index>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        debug_assert!(!t.subject.is_literal(), "literal subject");
        debug_assert!(t.predicate.is_iri(), "non-IRI predicate");
        let fresh = self.spo.insert((t.subject, t.predicate, t.object));
        if fresh {
            if let Some(pos) = self.pos.get_mut() {
                pos.insert((t.predicate, t.object, t.subject));
            }
            if let Some(osp) = self.osp.get_mut() {
                osp.insert((t.object, t.subject, t.predicate));
            }
        }
        fresh
    }

    /// Remove a triple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Triple) -> bool {
        let was = self.spo.remove(&(t.subject, t.predicate, t.object));
        if was {
            if let Some(pos) = self.pos.get_mut() {
                pos.remove(&(t.predicate, t.object, t.subject));
            }
            if let Some(osp) = self.osp.get_mut() {
                osp.remove(&(t.object, t.subject, t.predicate));
            }
        }
        was
    }

    /// The POS index, built from SPO on first use.
    fn pos(&self) -> &Index {
        self.pos
            .get_or_init(|| self.spo.iter().map(|&(s, p, o)| (p, o, s)).collect())
    }

    /// The OSP index, built from SPO on first use.
    fn osp(&self) -> &Index {
        self.osp
            .get_or_init(|| self.spo.iter().map(|&(s, p, o)| (o, s, p)).collect())
    }

    /// Whether the exact triple is present.
    pub fn contains(&self, t: &Triple) -> bool {
        self.spo.contains(&(t.subject, t.predicate, t.object))
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Whether the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Iterate over all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(|&(s, p, o)| Triple::new(s, p, o))
    }

    /// Match a triple pattern; `None` positions are wildcards.
    ///
    /// Every shape resolves to a contiguous range scan on the most selective
    /// index, so the cost is proportional to the number of matches, once
    /// the index exists: the first pattern with an unbound subject, or with
    /// a bound subject and object but no predicate, builds POS or OSP.
    pub fn matching<'a>(
        &'a self,
        s: Option<Term>,
        p: Option<Term>,
        o: Option<Term>,
    ) -> Box<dyn Iterator<Item = Triple> + 'a> {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.contains(&t) {
                    Box::new(std::iter::once(t))
                } else {
                    Box::new(std::iter::empty())
                }
            }
            (Some(s), Some(p), None) => Box::new(
                self.spo
                    .range((
                        Bound::Included((s, p, min_term())),
                        Bound::Included((s, p, max_term())),
                    ))
                    .map(|&(s, p, o)| Triple::new(s, p, o)),
            ),
            (Some(s), None, None) => Box::new(
                self.spo
                    .range((
                        Bound::Included((s, min_term(), min_term())),
                        Bound::Included((s, max_term(), max_term())),
                    ))
                    .map(|&(s, p, o)| Triple::new(s, p, o)),
            ),
            (Some(s), None, Some(o)) => Box::new(
                self.osp()
                    .range((
                        Bound::Included((o, s, min_term())),
                        Bound::Included((o, s, max_term())),
                    ))
                    .map(|&(o, s, p)| Triple::new(s, p, o)),
            ),
            (None, Some(p), Some(o)) => Box::new(
                self.pos()
                    .range((
                        Bound::Included((p, o, min_term())),
                        Bound::Included((p, o, max_term())),
                    ))
                    .map(|&(p, o, s)| Triple::new(s, p, o)),
            ),
            (None, Some(p), None) => Box::new(
                self.pos()
                    .range((
                        Bound::Included((p, min_term(), min_term())),
                        Bound::Included((p, max_term(), max_term())),
                    ))
                    .map(|&(p, o, s)| Triple::new(s, p, o)),
            ),
            (None, None, Some(o)) => Box::new(
                self.osp()
                    .range((
                        Bound::Included((o, min_term(), min_term())),
                        Bound::Included((o, max_term(), max_term())),
                    ))
                    .map(|&(o, s, p)| Triple::new(s, p, o)),
            ),
            (None, None, None) => Box::new(self.iter()),
        }
    }

    /// Objects of all triples `(s, p, ?o)`.
    pub fn objects(&self, s: Term, p: Term) -> impl Iterator<Item = Term> + '_ {
        self.matching(Some(s), Some(p), None).map(|t| t.object)
    }

    /// Distinct subjects, in term order.
    pub fn subjects(&self) -> impl Iterator<Item = Term> + '_ {
        DistinctFirst {
            inner: self.spo.iter(),
            last: None,
        }
    }

    /// Distinct predicates, in term order (builds POS on first use).
    pub fn predicates(&self) -> impl Iterator<Item = Term> + '_ {
        DistinctFirst {
            inner: self.pos().iter(),
            last: None,
        }
    }
}

/// Yields the first tuple component, skipping consecutive duplicates.
/// Works because the underlying BTreeSet iterates in sorted order.
struct DistinctFirst<'a> {
    inner: std::collections::btree_set::Iter<'a, (Term, Term, Term)>,
    last: Option<Term>,
}

impl Iterator for DistinctFirst<'_> {
    type Item = Term;

    fn next(&mut self) -> Option<Term> {
        for &(first, _, _) in self.inner.by_ref() {
            if self.last != Some(first) {
                self.last = Some(first);
                return Some(first);
            }
        }
        None
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    fn t(i: &mut Interner, s: &str, p: &str, o: &str) -> Triple {
        Triple::new(
            Term::Iri(i.intern(s)),
            Term::Iri(i.intern(p)),
            Term::Iri(i.intern(o)),
        )
    }

    fn sample() -> (Interner, Graph) {
        let mut i = Interner::new();
        let mut g = Graph::new();
        g.insert(t(&mut i, "s1", "p1", "o1"));
        g.insert(t(&mut i, "s1", "p1", "o2"));
        g.insert(t(&mut i, "s1", "p2", "o1"));
        g.insert(t(&mut i, "s2", "p1", "o1"));
        (i, g)
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut i = Interner::new();
        let mut g = Graph::new();
        let tr = t(&mut i, "s", "p", "o");
        assert!(g.insert(tr));
        assert!(!g.insert(tr));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut i = Interner::new();
        let mut g = Graph::new();
        let tr = t(&mut i, "s", "p", "o");
        g.insert(tr);
        assert!(g.remove(&tr));
        assert!(!g.remove(&tr));
        assert!(g.is_empty());
        assert_eq!(g.matching(None, Some(tr.predicate), None).count(), 0);
        assert_eq!(g.matching(None, None, Some(tr.object)).count(), 0);
    }

    #[test]
    fn match_fully_bound() {
        let (mut i, g) = sample();
        let present = t(&mut i, "s1", "p1", "o1");
        let absent = t(&mut i, "s9", "p1", "o1");
        assert_eq!(
            g.matching(
                Some(present.subject),
                Some(present.predicate),
                Some(present.object)
            )
            .count(),
            1
        );
        assert_eq!(
            g.matching(
                Some(absent.subject),
                Some(absent.predicate),
                Some(absent.object)
            )
            .count(),
            0
        );
    }

    #[test]
    fn match_sp_wildcard_o() {
        let (mut i, g) = sample();
        let s1 = Term::Iri(i.intern("s1"));
        let p1 = Term::Iri(i.intern("p1"));
        assert_eq!(g.matching(Some(s1), Some(p1), None).count(), 2);
    }

    #[test]
    fn match_s_only() {
        let (mut i, g) = sample();
        let s1 = Term::Iri(i.intern("s1"));
        assert_eq!(g.matching(Some(s1), None, None).count(), 3);
    }

    #[test]
    fn match_so_wildcard_p() {
        let (mut i, g) = sample();
        let s1 = Term::Iri(i.intern("s1"));
        let o1 = Term::Iri(i.intern("o1"));
        assert_eq!(g.matching(Some(s1), None, Some(o1)).count(), 2);
    }

    #[test]
    fn match_po_wildcard_s() {
        let (mut i, g) = sample();
        let p1 = Term::Iri(i.intern("p1"));
        let o1 = Term::Iri(i.intern("o1"));
        assert_eq!(g.matching(None, Some(p1), Some(o1)).count(), 2);
    }

    #[test]
    fn match_p_only() {
        let (mut i, g) = sample();
        let p1 = Term::Iri(i.intern("p1"));
        assert_eq!(g.matching(None, Some(p1), None).count(), 3);
    }

    #[test]
    fn match_o_only() {
        let (mut i, g) = sample();
        let o1 = Term::Iri(i.intern("o1"));
        assert_eq!(g.matching(None, None, Some(o1)).count(), 3);
    }

    #[test]
    fn match_all_wildcards() {
        let (_, g) = sample();
        assert_eq!(g.matching(None, None, None).count(), 4);
    }

    #[test]
    fn distinct_subjects_and_predicates() {
        let (_, g) = sample();
        assert_eq!(g.subjects().count(), 2);
        assert_eq!(g.predicates().count(), 2);
    }

    #[test]
    fn objects_helper() {
        let (mut i, g) = sample();
        let s1 = Term::Iri(i.intern("s1"));
        let p1 = Term::Iri(i.intern("p1"));
        let objs: Vec<Term> = g.objects(s1, p1).collect();
        assert_eq!(objs.len(), 2);
    }

    #[test]
    fn from_iterator_collects() {
        let mut i = Interner::new();
        let triples = vec![t(&mut i, "a", "p", "b"), t(&mut i, "c", "p", "d")];
        let g: Graph = triples.into_iter().collect();
        assert_eq!(g.len(), 2);
    }
}
