//! Precomputed, interned attribute values.
//!
//! PARIS, the label baseline and the link space each evaluate millions of
//! value similarities; parsing and classifying each RDF term on every
//! comparison would dominate the cost. [`SideValues`] resolves, classifies *and prepares* every distinct
//! object term of one side once: each value carries its normalized form,
//! token spans and interned Jaccard token ids ([`PreparedValue`]), so the
//! similarity hot loop never re-normalizes a string or allocates a
//! `HashSet`. Entities refer to their values by [`ValueId`], so a literal
//! shared by many entities (or by two predicates of one entity) is prepared
//! once, and the score table ([`crate::scores::ValueScores`]) can score
//! each distinct value pair once. Both sides of a comparison must be built
//! against one shared [`TokenInterner`] — token ids are only meaningful
//! within an interner.

use std::collections::HashMap;

use alex_rdf::{Dataset, EntityIndex, Sym, Term};
use alex_sim::{PreparedValue, TokenInterner};

/// Dense id of a distinct object term within one [`SideValues`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Prepared attribute lists for every entity of one data set: one
/// [`PreparedValue`] per distinct object term, and per entity its
/// `(predicate, value)` pairs in triple-store order, in one flat arena.
#[derive(Debug, Clone, Default)]
pub struct SideValues {
    values: Vec<PreparedValue>,
    /// The object term of each value, parallel to `values`.
    terms: Vec<Term>,
    attrs: Vec<(Sym, ValueId)>,
    /// `attrs[offsets[id] .. offsets[id + 1]]` are entity `id`'s attributes.
    offsets: Vec<u32>,
}

impl SideValues {
    /// Resolve and prepare every indexed entity's attributes, interning
    /// token ids into `interner` (shared across the two sides of a build).
    /// Values are prepared in first-occurrence order, so the interner sees
    /// the same token sequence as a build that prepared every occurrence.
    pub fn build(ds: &Dataset, idx: &EntityIndex, interner: &mut TokenInterner) -> SideValues {
        let mut values = Vec::new();
        let mut terms = Vec::new();
        let mut value_of: HashMap<Term, ValueId> = HashMap::new();
        let mut attrs = Vec::new();
        let mut offsets = Vec::with_capacity(idx.len() + 1);
        offsets.push(0);
        for id in 0..idx.len() as u32 {
            for t in ds.graph().matching(Some(idx.term(id)), None, None) {
                // Predicates are IRIs in every well-formed graph; drop
                // (rather than die on) anything else.
                let Some(pred) = t.predicate.as_iri() else {
                    continue;
                };
                let value = *value_of.entry(t.object).or_insert_with(|| {
                    values.push(PreparedValue::of_term(ds, t.object, interner));
                    terms.push(t.object);
                    ValueId(values.len() as u32 - 1)
                });
                attrs.push((pred, value));
            }
            offsets.push(attrs.len() as u32);
        }
        SideValues {
            values,
            terms,
            attrs,
            offsets,
        }
    }

    /// The `(predicate, value)` attributes of entity `id`, in triple-store
    /// order.
    pub fn attrs(&self, id: u32) -> &[(Sym, ValueId)] {
        let lo = self.offsets[id as usize] as usize;
        let hi = self.offsets[id as usize + 1] as usize;
        &self.attrs[lo..hi]
    }

    /// The prepared form of value `v`.
    pub fn value(&self, v: ValueId) -> &PreparedValue {
        &self.values[v.0 as usize]
    }

    /// The object term value `v` was prepared from.
    pub fn term(&self, v: ValueId) -> Term {
        self.terms[v.0 as usize]
    }

    /// Number of distinct values.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether no entity is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use alex_rdf::vocab;
    use alex_sim::{typed_value, TypedValue};

    fn entity(ds: &Dataset, idx: &EntityIndex, iri: &str) -> u32 {
        idx.id(ds.interner().get(iri).map(Term::Iri).unwrap())
            .unwrap()
    }

    #[test]
    fn shared_literals_are_prepared_once() {
        let mut ds = Dataset::new("t");
        ds.add_str("http://e/a", "http://e/name", "Alpha");
        ds.add_str("http://e/a", "http://e/label", "Alpha");
        ds.add_typed("http://e/a", "http://e/born", "1984", vocab::XSD_GYEAR);
        ds.add_str("http://e/b", "http://e/name", "Alpha");
        ds.add_str("http://e/b", "http://e/nick", "Beta");
        let idx = ds.entity_index();
        let mut interner = TokenInterner::new();
        let vals = SideValues::build(&ds, &idx, &mut interner);
        assert_eq!(vals.len(), 2);
        // "Alpha" (three occurrences), 1984 and "Beta".
        assert_eq!(vals.value_count(), 3);
        let (a, b) = (
            entity(&ds, &idx, "http://e/a"),
            entity(&ds, &idx, "http://e/b"),
        );
        let alpha = |attrs: &[(Sym, ValueId)]| {
            attrs
                .iter()
                .filter(
                    |&&(_, v)| matches!(vals.value(v).value(), TypedValue::Text(s) if s == "Alpha"),
                )
                .map(|&(_, v)| v)
                .collect::<Vec<_>>()
        };
        let (in_a, in_b) = (alpha(vals.attrs(a)), alpha(vals.attrs(b)));
        assert_eq!(in_a.len(), 2, "two predicates of one entity");
        assert_eq!(in_a[0], in_a[1]);
        assert_eq!(in_b, vec![in_a[0]], "two entities");
        assert!(vals
            .attrs(a)
            .iter()
            .any(|&(_, v)| *vals.value(v).value() == TypedValue::Year(1984)));
        // Text values arrive pre-tokenized with interned ids.
        assert!(!vals.value(in_a[0]).text().token_ids().is_empty());
        assert!(!interner.is_empty());
    }

    #[test]
    fn attrs_keep_triple_store_order() {
        let mut ds = Dataset::new("t");
        for (p, o) in [("z", "one"), ("a", "two"), ("m", "one"), ("b", "three")] {
            ds.add_str("http://e/a", &format!("http://e/{p}"), o);
        }
        ds.add_str("http://e/b", "http://e/a", "three");
        let idx = ds.entity_index();
        let vals = SideValues::build(&ds, &idx, &mut TokenInterner::new());
        for id in 0..idx.len() as u32 {
            let expected: Vec<(Sym, Term)> = ds
                .graph()
                .matching(Some(idx.term(id)), None, None)
                .map(|t| (t.predicate.as_iri().unwrap(), t.object))
                .collect();
            let got = vals.attrs(id);
            assert_eq!(got.len(), expected.len());
            for (&(p, v), &(ep, eo)) in got.iter().zip(&expected) {
                assert_eq!(p, ep);
                assert_eq!(vals.term(v), eo);
                assert_eq!(*vals.value(v).value(), typed_value(&ds, eo));
            }
        }
    }

    #[test]
    fn iri_and_literal_with_one_lexical_form_stay_apart() {
        let mut ds = Dataset::new("t");
        ds.add_iri("http://e/a", "http://e/ref", "http://e/x");
        ds.add_str("http://e/a", "http://e/text", "http://e/x");
        let idx = ds.entity_index();
        let vals = SideValues::build(&ds, &idx, &mut TokenInterner::new());
        let a = entity(&ds, &idx, "http://e/a");
        let attrs = vals.attrs(a);
        assert_eq!(attrs.len(), 2);
        assert_ne!(attrs[0].1, attrs[1].1);
        assert_eq!(vals.value_count(), 2);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new("t");
        let idx = ds.entity_index();
        let vals = SideValues::build(&ds, &idx, &mut TokenInterner::new());
        assert!(vals.is_empty());
        assert_eq!(vals.value_count(), 0);
    }
}
