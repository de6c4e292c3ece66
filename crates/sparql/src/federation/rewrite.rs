//! sameAs-closure query rewriting.
//!
//! The executor already chases `owl:sameAs` at probe time: when a
//! pattern position holds an IRI, [`SameAsLinks`](super::SameAsLinks)
//! supplies the equivalence class and every member is probed. That
//! expansion is implicit — it never shows up in the query text, the
//! canonical fingerprint, or the answer cache key, which makes it
//! impossible to reason about (or cache) a query *as rewritten against a
//! specific closure state*.
//!
//! [`rewrite_sameas`] makes the closure explicit: each required triple
//! pattern whose constant subject/object IRIs have non-empty equivalence
//! classes is replaced by a `{ … } UNION { … }` alternation, one branch
//! per member combination, original first. The result is a
//! [`RewrittenQuery`] carrying
//!
//! * the rewritten [`Query`] (plain AST — it prints, parses, and
//!   fingerprints like any hand-written UNION query),
//! * the link-closure **generation** it was rewritten at, so a rewrite
//!   is refused once the closure has changed, and
//! * per-branch **link provenance**, so answers produced by a
//!   substituted branch still credit the links that enabled them —
//!   byte-compatible with the implicit expansion's `links_used`.
//!
//! Inside UNION branches the executor suppresses implicit *constant*
//! expansion (the alternation is the expansion); runtime-bound variable
//! values still expand, so rewriting can only make the closure visible,
//! never lose answers. Rewriting is idempotent: patterns already inside
//! a UNION are left untouched, so `rewrite(rewrite(q)) == rewrite(q)`
//! under the same closure.

use std::collections::BTreeMap;

use crate::ast::{Query, TermPattern, TriplePattern, WhereElement};
use crate::value::Value;

use super::links::{Link, SameAsLinks};

/// A query rewritten against a specific sameAs-closure state.
#[derive(Debug, Clone, PartialEq)]
pub struct RewrittenQuery {
    query: Query,
    generation: u64,
    rewritten_patterns: u64,
    /// Links that justify each substituted branch, keyed by
    /// `(union index, branch index)` in [`Query::unions`] order. Absent
    /// key means the branch used no links (e.g. the original branch, or
    /// a union already present before rewriting).
    branch_links: BTreeMap<(usize, usize), Vec<Link>>,
}

impl RewrittenQuery {
    /// The rewritten query (plain AST; unions are ordinary unions).
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The link-closure generation this rewrite reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of required patterns converted into unions.
    pub fn rewritten_patterns(&self) -> u64 {
        self.rewritten_patterns
    }

    /// Whether the closure has changed since this rewrite was computed.
    pub fn is_stale(&self, links: &SameAsLinks) -> bool {
        links.generation() != self.generation
    }

    /// Links credited to branch `bi` of union `ui` (empty for original
    /// branches and pre-existing unions).
    pub fn links_for(&self, ui: usize, bi: usize) -> &[Link] {
        self.branch_links
            .get(&(ui, bi))
            .map_or(&[], |links| links.as_slice())
    }
}

/// The sameAs alternatives of one pattern position: the original term
/// first, then one entry per equivalence-class member, each with the
/// link that justifies it. Non-constant and non-IRI positions have no
/// alternatives beyond themselves.
fn alternatives(term: &TermPattern, links: &SameAsLinks) -> Vec<(TermPattern, Option<Link>)> {
    let mut out = vec![(term.clone(), None)];
    if let TermPattern::Value(Value::Iri(iri)) = term {
        for (other, link) in links.equivalents(iri) {
            out.push((TermPattern::Value(Value::iri(other)), Some(link)));
        }
    }
    out
}

/// Rewrite `query` against the current closure in `links`.
///
/// Only required patterns are rewritten; OPTIONAL groups, filters, and
/// pre-existing unions pass through verbatim (which is what makes the
/// rewrite idempotent). A pattern whose constant IRIs have no
/// equivalents stays a plain pattern — no single-branch unions.
pub fn rewrite_sameas(query: &Query, links: &SameAsLinks) -> RewrittenQuery {
    let mut where_clause = Vec::with_capacity(query.where_clause.len());
    let mut branch_links = BTreeMap::new();
    let mut rewritten_patterns = 0u64;
    // Index into `Query::unions()` order: every Union pushed — copied or
    // freshly created — claims the next slot.
    let mut ui = 0usize;
    for element in &query.where_clause {
        match element {
            WhereElement::Pattern(p) => {
                let s_alts = alternatives(&p.subject, links);
                let o_alts = alternatives(&p.object, links);
                if s_alts.len() * o_alts.len() == 1 {
                    where_clause.push(WhereElement::Pattern(p.clone()));
                    continue;
                }
                let mut branches = Vec::with_capacity(s_alts.len() * o_alts.len());
                for (bi_s, (s, s_link)) in s_alts.iter().enumerate() {
                    for (bi_o, (o, o_link)) in o_alts.iter().enumerate() {
                        let bi = bi_s * o_alts.len() + bi_o;
                        let used: Vec<Link> =
                            [s_link, o_link].into_iter().flatten().cloned().collect();
                        if !used.is_empty() {
                            branch_links.insert((ui, bi), used);
                        }
                        branches.push(vec![TriplePattern {
                            subject: s.clone(),
                            predicate: p.predicate.clone(),
                            object: o.clone(),
                        }]);
                    }
                }
                where_clause.push(WhereElement::Union(branches));
                rewritten_patterns += 1;
                ui += 1;
            }
            WhereElement::Union(branches) => {
                where_clause.push(WhereElement::Union(branches.clone()));
                ui += 1;
            }
            other => where_clause.push(other.clone()),
        }
    }
    RewrittenQuery {
        query: Query {
            where_clause,
            ..query.clone()
        },
        generation: links.generation(),
        rewritten_patterns,
        branch_links,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn links() -> SameAsLinks {
        SameAsLinks::from_pairs([("http://db/LeBron", "http://nyt/lebron-james")])
    }

    #[test]
    fn constant_subject_becomes_a_two_branch_union() {
        let q = parse("SELECT ?o WHERE { <http://db/LeBron> <http://db/award> ?o . }").unwrap();
        let rw = rewrite_sameas(&q, &links());
        assert_eq!(rw.rewritten_patterns(), 1);
        let unions: Vec<_> = rw.query().unions().collect();
        assert_eq!(unions.len(), 1);
        assert_eq!(unions[0].len(), 2);
        assert_eq!(
            rw.query().to_sparql(),
            "SELECT ?o WHERE { { <http://db/LeBron> <http://db/award> ?o . } UNION \
             { <http://nyt/lebron-james> <http://db/award> ?o . } }"
        );
        assert_eq!(rw.links_for(0, 0), &[]);
        assert_eq!(
            rw.links_for(0, 1),
            &[Link::new("http://db/LeBron", "http://nyt/lebron-james")]
        );
    }

    #[test]
    fn variables_and_unlinked_constants_pass_through() {
        let q = parse(
            "SELECT ?s ?o WHERE { ?s <http://db/award> ?o . \
             <http://db/Nobody> <http://db/award> ?o . }",
        )
        .unwrap();
        let rw = rewrite_sameas(&q, &links());
        assert_eq!(rw.rewritten_patterns(), 0);
        assert_eq!(rw.query(), &q, "nothing to rewrite: query unchanged");
    }

    #[test]
    fn subject_and_object_links_cross_product() {
        let mut links = links();
        links.add(Link::new("http://db/Heat", "http://nyt/miami-heat"));
        let q = parse("SELECT ?x WHERE { <http://db/LeBron> <http://db/team> <http://db/Heat> . }")
            .unwrap();
        let rw = rewrite_sameas(&q, &links);
        let unions: Vec<_> = rw.query().unions().collect();
        assert_eq!(unions[0].len(), 4, "2 subjects x 2 objects");
        // Branch 3 = (alt subject, alt object): credits both links.
        assert_eq!(rw.links_for(0, 3).len(), 2);
        // Branch order is subject-major: branch 1 = (orig s, alt o).
        assert_eq!(
            rw.links_for(0, 1),
            &[Link::new("http://db/Heat", "http://nyt/miami-heat")]
        );
    }

    #[test]
    fn rewrite_is_idempotent() {
        let links = links();
        let q = parse(
            "SELECT ?o ?v WHERE { <http://db/LeBron> <http://db/award> ?o . \
             OPTIONAL { ?o <http://db/year> ?v . } }",
        )
        .unwrap();
        let once = rewrite_sameas(&q, &links);
        let twice = rewrite_sameas(once.query(), &links);
        assert_eq!(twice.query(), once.query());
        assert_eq!(twice.rewritten_patterns(), 0);
        assert!(twice.branch_links.is_empty());
    }

    #[test]
    fn staleness_tracks_the_closure_generation() {
        let mut links = links();
        let q = parse("SELECT ?o WHERE { <http://db/LeBron> <http://db/award> ?o . }").unwrap();
        let rw = rewrite_sameas(&q, &links);
        assert!(!rw.is_stale(&links));
        links.add(Link::new("http://db/Heat", "http://nyt/miami-heat"));
        assert!(rw.is_stale(&links));
        let fresh = rewrite_sameas(&q, &links);
        assert!(!fresh.is_stale(&links));
        assert_eq!(fresh.generation(), links.generation());
    }

    #[test]
    fn pre_existing_unions_keep_their_index_slot() {
        let mut links = links();
        links.add(Link::new("http://db/Heat", "http://nyt/miami-heat"));
        let q = parse(
            "SELECT ?a ?b WHERE { \
             { ?a <http://p/1> ?b . } UNION { ?a <http://p/2> ?b . } \
             <http://db/Heat> <http://db/arena> ?b . }",
        )
        .unwrap();
        let rw = rewrite_sameas(&q, &links);
        let unions: Vec<_> = rw.query().unions().collect();
        assert_eq!(unions.len(), 2);
        assert_eq!(unions[0].len(), 2, "hand-written union copied verbatim");
        assert_eq!(
            rw.links_for(0, 1),
            &[],
            "no credit for hand-written branches"
        );
        assert_eq!(
            rw.links_for(1, 1),
            &[Link::new("http://db/Heat", "http://nyt/miami-heat")]
        );
    }
}
