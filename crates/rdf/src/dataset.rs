//! A named RDF data set: an interner plus an indexed graph, with convenience
//! builders and an entity index assigning dense ids to entities.

use std::collections::HashMap;

use crate::entity::Entity;
use crate::graph::Graph;
use crate::interner::{Interner, Sym};
use crate::term::{Literal, Term};
use crate::triple::Triple;

/// A named RDF data set. This is the unit ALEX links: every experiment pairs
/// two `Dataset`s (e.g. DBpedia and NYTimes in the paper's Table 1).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    name: String,
    interner: Interner,
    graph: Graph,
}

impl Dataset {
    /// Create an empty data set with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Dataset {
            name: name.into(),
            interner: Interner::new(),
            graph: Graph::new(),
        }
    }

    /// The data set's name (e.g. "DBpedia").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The data set's interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the interner.
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the data set holds no triples.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Intern an IRI and wrap it as a term.
    pub fn iri(&mut self, iri: &str) -> Term {
        Term::Iri(self.interner.intern(iri))
    }

    /// Intern a plain literal and wrap it as a term.
    pub fn plain(&mut self, lexical: &str) -> Term {
        Term::Literal(Literal::plain(self.interner.intern(lexical)))
    }

    /// Intern a datatyped literal and wrap it as a term.
    pub fn typed(&mut self, lexical: &str, datatype: &str) -> Term {
        let lex = self.interner.intern(lexical);
        let dt = self.interner.intern(datatype);
        Term::Literal(Literal::typed(lex, dt))
    }

    /// Intern a language-tagged literal and wrap it as a term.
    pub fn lang(&mut self, lexical: &str, tag: &str) -> Term {
        let lex = self.interner.intern(lexical);
        let t = self.interner.intern(tag);
        Term::Literal(Literal::lang(lex, t))
    }

    /// Insert an (IRI, IRI, IRI) triple from strings.
    pub fn add_iri(&mut self, s: &str, p: &str, o: &str) -> bool {
        let (s, p, o) = (self.iri(s), self.iri(p), self.iri(o));
        self.graph.insert(Triple::new(s, p, o))
    }

    /// Insert an (IRI, IRI, plain literal) triple from strings.
    pub fn add_str(&mut self, s: &str, p: &str, lexical: &str) -> bool {
        let (s, p) = (self.iri(s), self.iri(p));
        let o = self.plain(lexical);
        self.graph.insert(Triple::new(s, p, o))
    }

    /// Insert an (IRI, IRI, datatyped literal) triple from strings.
    pub fn add_typed(&mut self, s: &str, p: &str, lexical: &str, datatype: &str) -> bool {
        let (s, p) = (self.iri(s), self.iri(p));
        let o = self.typed(lexical, datatype);
        self.graph.insert(Triple::new(s, p, o))
    }

    /// Insert a prebuilt triple.
    pub fn insert(&mut self, t: Triple) -> bool {
        self.graph.insert(t)
    }

    /// Resolve any term's primary string (IRI text, blank label, or lexical form).
    pub fn resolve(&self, term: Term) -> &str {
        match term {
            Term::Iri(s) | Term::Blank(s) => self.interner.resolve(s),
            Term::Literal(l) => self.interner.resolve(l.lexical),
        }
    }

    /// Resolve a symbol.
    pub fn resolve_sym(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Materialize the entity view of a subject.
    pub fn entity(&self, subject: Term) -> Entity {
        Entity::of(&self.graph, subject)
    }

    /// All IRI subjects (the data set's entities), in term order.
    pub fn entities(&self) -> impl Iterator<Item = Term> + '_ {
        self.graph.subjects().filter(|t| t.is_iri())
    }

    /// Build a dense entity index over the current subjects.
    pub fn entity_index(&self) -> EntityIndex {
        EntityIndex::build(self)
    }
}

/// Dense ids for the entities of one data set.
///
/// ALEX's link space refers to entities by `(side, EntityId)`; the index maps
/// between dense ids and terms.
#[derive(Debug, Clone, Default)]
pub struct EntityIndex {
    terms: Vec<Term>,
    ids: HashMap<Term, u32>,
}

impl EntityIndex {
    /// Build the index from a data set's current subjects.
    pub fn build(ds: &Dataset) -> Self {
        let terms: Vec<Term> = ds.entities().collect();
        let ids = terms
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        EntityIndex { terms, ids }
    }

    /// Number of indexed entities.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The term for a dense id.
    pub fn term(&self, id: u32) -> Term {
        self.terms[id as usize]
    }

    /// The dense id for a term, if indexed.
    pub fn id(&self, term: Term) -> Option<u32> {
        self.ids.get(&term).copied()
    }

    /// Iterate `(id, term)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Term)> + '_ {
        self.terms.iter().enumerate().map(|(i, &t)| (i as u32, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new("test");
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        ds.add_str("http://e/b", "http://e/name", "Beta");
        ds.add_iri("http://e/a", "http://e/knows", "http://e/b");
        ds
    }

    #[test]
    fn name_and_len() {
        let ds = sample();
        assert_eq!(ds.name(), "test");
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
    }

    #[test]
    fn entities_are_iri_subjects() {
        let ds = sample();
        assert_eq!(ds.entities().count(), 2);
    }

    #[test]
    fn entity_view_from_dataset() {
        let mut ds = sample();
        let a = ds.iri("http://e/a");
        let e = ds.entity(a);
        assert_eq!(e.arity(), 2);
    }

    #[test]
    fn resolve_terms() {
        let mut ds = sample();
        let a = ds.iri("http://e/a");
        assert_eq!(ds.resolve(a), "http://e/a");
        let lit = ds.plain("hello");
        assert_eq!(ds.resolve(lit), "hello");
    }

    #[test]
    fn typed_and_lang_literals() {
        let mut ds = Dataset::new("t");
        let t1 = ds.typed("1984", crate::vocab::XSD_GYEAR);
        let t2 = ds.lang("hello", "en");
        assert!(t1.is_literal());
        assert!(t2.is_literal());
        assert_ne!(t1, t2);
    }

    #[test]
    fn entity_index_round_trips() {
        let ds = sample();
        let idx = ds.entity_index();
        assert_eq!(idx.len(), 2);
        for (id, term) in idx.iter() {
            assert_eq!(idx.id(term), Some(id));
            assert_eq!(idx.term(id), term);
        }
    }

    #[test]
    fn entity_index_unknown_term() {
        let mut ds = sample();
        let idx = ds.entity_index();
        let ghost = ds.iri("http://e/ghost");
        assert_eq!(idx.id(ghost), None);
    }

    #[test]
    fn add_is_set_semantics() {
        let mut ds = Dataset::new("t");
        assert!(ds.add_str("http://e/a", "http://e/p", "v"));
        assert!(!ds.add_str("http://e/a", "http://e/p", "v"));
    }
}
