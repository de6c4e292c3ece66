//! Property-based tests for the RDF substrate: interning, graph index
//! consistency, and N-Triples round-tripping under arbitrary content.

use std::collections::BTreeSet;

use alex_rdf::{ntriples, Dataset, Graph, Interner, Literal, Term, Triple};
use proptest::prelude::*;

/// Strategy for IRI-ish strings (no whitespace or angle brackets).
fn iri() -> impl Strategy<Value = String> {
    "[a-z]{1,8}(/[a-z0-9_]{1,8}){0,3}".prop_map(|s| format!("http://e/{s}"))
}

/// Strategy for literal lexical forms, including nasty characters.
fn lexical() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[\\x20-\\x7e\u{e9}\u{4e16}\n\t\"\\\\]{0,24}").unwrap()
}

/// A small term universe: subjects 0..5, predicates 0..3, objects 0..6,
/// the last three objects literals, so patterns meet both term kinds.
struct Universe {
    subjects: Vec<Term>,
    predicates: Vec<Term>,
    objects: Vec<Term>,
}

impl Universe {
    fn new() -> Universe {
        let mut interner = Interner::new();
        let mut iri = |tag: &str, i: u32| Term::Iri(interner.intern(&format!("http://e/{tag}{i}")));
        let subjects = (0..5).map(|i| iri("s", i)).collect();
        let predicates = (0..3).map(|i| iri("p", i)).collect();
        let mut objects: Vec<Term> = (0..3).map(|i| iri("o", i)).collect();
        objects.extend(
            (0..3).map(|i| Term::Literal(Literal::plain(interner.intern(&format!("v{i}"))))),
        );
        Universe {
            subjects,
            predicates,
            objects,
        }
    }

    fn triple(&self, (s, p, o): (usize, usize, usize)) -> Triple {
        Triple::new(self.subjects[s], self.predicates[p], self.objects[o])
    }

    /// Every pattern over the universe: each position a wildcard or any
    /// of its terms, so all eight shapes with every binding.
    fn patterns(&self) -> Vec<(Option<Term>, Option<Term>, Option<Term>)> {
        let with_wildcard = |terms: &[Term]| {
            std::iter::once(None)
                .chain(terms.iter().copied().map(Some))
                .collect::<Vec<_>>()
        };
        let (ss, ps, os) = (
            with_wildcard(&self.subjects),
            with_wildcard(&self.predicates),
            with_wildcard(&self.objects),
        );
        let mut out = Vec::new();
        for &s in &ss {
            for &p in &ps {
                for &o in &os {
                    out.push((s, p, o));
                }
            }
        }
        out
    }
}

/// Whether every pattern of `universe` matches in `graph` exactly what a
/// naive filter over `reference` finds (as sets, with no duplicates), and
/// the graph's size, subjects and predicates agree with `reference`.
fn check_graph(
    graph: &Graph,
    reference: &BTreeSet<Triple>,
    universe: &Universe,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(graph.len(), reference.len());
    for (s, p, o) in universe.patterns() {
        let got: Vec<Triple> = graph.matching(s, p, o).collect();
        let unique: BTreeSet<Triple> = got.iter().copied().collect();
        prop_assert_eq!(unique.len(), got.len(), "duplicates for {:?}", (s, p, o));
        let expected: BTreeSet<Triple> = reference
            .iter()
            .filter(|x| {
                s.is_none_or(|s| x.subject == s)
                    && p.is_none_or(|p| x.predicate == p)
                    && o.is_none_or(|o| x.object == o)
            })
            .copied()
            .collect();
        prop_assert_eq!(unique, expected, "pattern {:?}", (s, p, o));
    }
    let subjects: BTreeSet<Term> = reference.iter().map(|t| t.subject).collect();
    prop_assert_eq!(
        graph.subjects().collect::<Vec<_>>(),
        subjects.into_iter().collect::<Vec<_>>()
    );
    let predicates: BTreeSet<Term> = reference.iter().map(|t| t.predicate).collect();
    prop_assert_eq!(
        graph.predicates().collect::<Vec<_>>(),
        predicates.into_iter().collect::<Vec<_>>()
    );
    Ok(())
}

proptest! {
    #[test]
    fn interner_round_trips(strings in proptest::collection::vec(".{0,20}", 0..40)) {
        let mut interner = Interner::new();
        let syms: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, &sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(sym), s.as_str());
        }
        // Idempotence: interning again yields identical symbols.
        for (s, &sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(interner.intern(s), sym);
        }
        let distinct: std::collections::HashSet<&String> = strings.iter().collect();
        prop_assert_eq!(interner.len(), distinct.len());
    }

    #[test]
    fn graph_indexes_agree_on_every_pattern(
        spec in proptest::collection::vec((0u32..6, 0u32..4, 0u32..6), 0..60)
    ) {
        let mut interner = Interner::new();
        let term = |interner: &mut Interner, tag: &str, i: u32| {
            Term::Iri(interner.intern(&format!("http://e/{tag}{i}")))
        };
        let triples: Vec<Triple> = spec
            .iter()
            .map(|&(s, p, o)| {
                Triple::new(
                    term(&mut interner, "s", s),
                    term(&mut interner, "p", p),
                    term(&mut interner, "o", o),
                )
            })
            .collect();
        let graph: Graph = triples.iter().copied().collect();

        // Reference: brute-force filtering over the deduplicated list.
        let mut dedup = triples.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(graph.len(), dedup.len());

        for &t in dedup.iter().take(10) {
            for (s, p, o) in [
                (Some(t.subject), None, None),
                (None, Some(t.predicate), None),
                (None, None, Some(t.object)),
                (Some(t.subject), Some(t.predicate), None),
                (Some(t.subject), None, Some(t.object)),
                (None, Some(t.predicate), Some(t.object)),
                (Some(t.subject), Some(t.predicate), Some(t.object)),
            ] {
                let got: Vec<Triple> = graph.matching(s, p, o).collect();
                let expected: Vec<Triple> = dedup
                    .iter()
                    .filter(|x| {
                        s.is_none_or(|s| x.subject == s)
                            && p.is_none_or(|p| x.predicate == p)
                            && o.is_none_or(|o| x.object == o)
                    })
                    .copied()
                    .collect();
                prop_assert_eq!(got.len(), expected.len());
                for e in &expected {
                    prop_assert!(got.contains(e));
                }
            }
        }
    }

    #[test]
    fn graph_remove_is_inverse_of_insert(
        spec in proptest::collection::vec((0u32..5, 0u32..3, 0u32..5), 1..40)
    ) {
        let mut interner = Interner::new();
        let mut graph = Graph::new();
        let triples: Vec<Triple> = spec
            .iter()
            .map(|&(s, p, o)| {
                Triple::new(
                    Term::Iri(interner.intern(&format!("s{s}"))),
                    Term::Iri(interner.intern(&format!("p{p}"))),
                    Term::Iri(interner.intern(&format!("o{o}"))),
                )
            })
            .collect();
        for t in &triples {
            graph.insert(*t);
        }
        for t in &triples {
            graph.remove(t);
        }
        prop_assert!(graph.is_empty());
        prop_assert_eq!(graph.matching(None, None, None).count(), 0);
    }

    #[test]
    fn ntriples_round_trip(
        rows in proptest::collection::vec((iri(), iri(), lexical()), 0..25)
    ) {
        let mut ds = Dataset::new("prop");
        for (s, p, lex) in &rows {
            ds.add_str(s, p, lex);
            ds.add_iri(s, p, "http://e/shared");
        }
        let doc = ntriples::serialize(&ds);
        let mut back = Dataset::new("copy");
        ntriples::parse_into(&mut back, &doc).expect("own output must parse");
        prop_assert_eq!(back.len(), ds.len());
        prop_assert_eq!(ntriples::serialize(&back), doc);
    }

    #[test]
    fn entity_views_cover_all_triples(
        rows in proptest::collection::vec((0u32..6, 0u32..4, ".{0,10}"), 1..40)
    ) {
        let mut ds = Dataset::new("prop");
        for (s, p, lex) in &rows {
            ds.add_str(&format!("http://e/s{s}"), &format!("http://e/p{p}"), lex);
        }
        let total: usize = ds
            .entities()
            .map(|e| {
                ds.entity(e)
                    .attributes
                    .iter()
                    .map(|a| a.objects.len())
                    .sum::<usize>()
            })
            .sum();
        prop_assert_eq!(total, ds.len());
    }

    /// POS and OSP are built on first use and maintained after: whether
    /// the first read comes before, between or after random inserts and
    /// removes, every pattern shape matches what a naive filter finds,
    /// and a clone taken once the indexes exist stays consistent on its
    /// own as both copies change.
    #[test]
    fn lazily_built_indexes_match_naive_filter(
        ops in proptest::collection::vec((0u8..3, (0usize..5, 0usize..3, 0usize..6)), 0..60),
        first_read in 0usize..61,
    ) {
        let universe = Universe::new();
        let first_read = first_read.min(ops.len());
        let mut graph = Graph::new();
        let mut reference = BTreeSet::new();
        let mut copy: Option<(Graph, BTreeSet<Triple>)> = None;
        for (i, &(kind, spo)) in ops.iter().enumerate() {
            if i == first_read {
                check_graph(&graph, &reference, &universe)?;
                copy = Some((graph.clone(), reference.clone()));
            }
            let t = universe.triple(spo);
            // Inserts twice as often as removes, so the graph grows.
            if kind < 2 {
                prop_assert_eq!(graph.insert(t), reference.insert(t));
            } else {
                prop_assert_eq!(graph.remove(&t), reference.remove(&t));
            }
            if let Some((g, r)) = copy.as_mut() {
                // The copy takes the mirror operation, so the two diverge.
                if kind < 2 {
                    prop_assert_eq!(g.remove(&t), r.remove(&t));
                } else {
                    prop_assert_eq!(g.insert(t), r.insert(t));
                }
            }
        }
        check_graph(&graph, &reference, &universe)?;
        if let Some((g, r)) = &copy {
            check_graph(g, r, &universe)?;
        }
    }
}
