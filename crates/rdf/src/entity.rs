//! Entity views: an entity is a subject IRI together with its attributes.
//!
//! The paper represents an entity as a set of attributes, where an attribute
//! is a (predicate label, predicate value) pair — e.g.
//! `{(name, "LeBron James"), (birth date, 1984), (age, 29)}` (§4.1). An
//! [`Entity`] is exactly that view, materialized from a [`crate::Graph`].

use crate::graph::Graph;
use crate::interner::Sym;
use crate::term::Term;

/// One attribute of an entity: a predicate and its object values.
///
/// RDF allows repeated predicates, so `objects` can hold several values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// The predicate IRI symbol.
    pub predicate: Sym,
    /// All object terms asserted for this predicate.
    pub objects: Vec<Term>,
}

/// A materialized entity view: subject term plus grouped attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// The subject term (an IRI or blank node).
    pub term: Term,
    /// Attributes grouped by predicate, in predicate order.
    pub attributes: Vec<Attribute>,
}

impl Entity {
    /// Materialize the entity view of `subject` from `graph`.
    ///
    /// Returns an entity with no attributes if the subject has no triples.
    pub fn of(graph: &Graph, subject: Term) -> Entity {
        let mut attributes: Vec<Attribute> = Vec::new();
        // `matching` yields SPO order, so triples arrive grouped by predicate.
        for t in graph.matching(Some(subject), None, None) {
            let pred = t
                .predicate
                .as_iri()
                .expect("graph invariant: predicate is an IRI");
            match attributes.last_mut() {
                Some(attr) if attr.predicate == pred => attr.objects.push(t.object),
                _ => attributes.push(Attribute {
                    predicate: pred,
                    objects: vec![t.object],
                }),
            }
        }
        Entity {
            term: subject,
            attributes,
        }
    }

    /// Number of distinct predicates.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Objects for a given predicate, if present.
    pub fn objects(&self, predicate: Sym) -> Option<&[Term]> {
        self.attributes
            .iter()
            .find(|a| a.predicate == predicate)
            .map(|a| a.objects.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use crate::term::Literal;
    use crate::triple::Triple;

    fn build() -> (Interner, Graph, Term) {
        let mut i = Interner::new();
        let mut g = Graph::new();
        let lebron = Term::Iri(i.intern("http://e/LeBron"));
        let name = Term::Iri(i.intern("http://e/name"));
        let team = Term::Iri(i.intern("http://e/team"));
        g.insert(Triple::new(
            lebron,
            name,
            Term::Literal(Literal::plain(i.intern("LeBron James"))),
        ));
        g.insert(Triple::new(
            lebron,
            team,
            Term::Literal(Literal::plain(i.intern("Heat"))),
        ));
        g.insert(Triple::new(
            lebron,
            team,
            Term::Literal(Literal::plain(i.intern("Cavaliers"))),
        ));
        (i, g, lebron)
    }

    #[test]
    fn groups_objects_by_predicate() {
        let (mut i, g, lebron) = build();
        let e = Entity::of(&g, lebron);
        assert_eq!(e.arity(), 2);
        let team = i.intern("http://e/team");
        assert_eq!(e.objects(team).unwrap().len(), 2);
    }

    #[test]
    fn missing_predicate_returns_none() {
        let (mut i, g, lebron) = build();
        let e = Entity::of(&g, lebron);
        let missing = i.intern("http://e/height");
        assert!(e.objects(missing).is_none());
    }

    #[test]
    fn unknown_subject_has_no_attributes() {
        let (mut i, g, _) = build();
        let ghost = Term::Iri(i.intern("http://e/ghost"));
        let e = Entity::of(&g, ghost);
        assert_eq!(e.arity(), 0);
    }
}
