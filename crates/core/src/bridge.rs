//! The query-answer feedback bridge (Fig. 1's "Link to State" box).
//!
//! "ALEX considers the approval/rejection of a query answer as an
//! approval/rejection of the link(s) used to produce this answer" (§1).
//! The federated engine annotates each answer with the sameAs links it used
//! (IRI-level, see [`alex_sparql::QueryAnswer`]); this bridge maps those
//! links back to entity-id pairs the agent understands.

use std::collections::HashMap;

use alex_rdf::{Dataset, EntityIndex, Term};
use alex_sparql::{Link, QueryAnswer};

use crate::feedback::Feedback;

/// Maps IRI-level links to `(left id, right id)` entity pairs.
#[derive(Debug, Clone, Default)]
pub struct FeedbackBridge {
    left_ids: HashMap<String, u32>,
    right_ids: HashMap<String, u32>,
}

impl FeedbackBridge {
    /// Build from the two data sets and their entity indexes.
    pub fn new(
        left: &Dataset,
        left_index: &EntityIndex,
        right: &Dataset,
        right_index: &EntityIndex,
    ) -> FeedbackBridge {
        let ids = |ds: &Dataset, index: &EntityIndex| -> HashMap<String, u32> {
            let iri = |(id, term)| match term {
                Term::Iri(sym) => Some((ds.resolve_sym(sym).to_string(), id)),
                _ => None,
            };
            index.iter().filter_map(iri).collect()
        };
        FeedbackBridge {
            left_ids: ids(left, left_index),
            right_ids: ids(right, right_index),
        }
    }

    /// Resolve a sameAs link to an entity-id pair, trying both orientations
    /// (the engine preserves the stored orientation, which may be either).
    pub fn link_to_pair(&self, link: &Link) -> Option<(u32, u32)> {
        let pair = |l: &str, r: &str| Some((*self.left_ids.get(l)?, *self.right_ids.get(r)?));
        pair(&link.left, &link.right).or_else(|| pair(&link.right, &link.left))
    }

    /// Translate a judgment of a query answer into per-link feedback:
    /// every link used by the answer receives the answer's judgment.
    /// Links that do not resolve to known entities are skipped.
    ///
    /// A rejected answer from a *degraded* query (partial completeness —
    /// some sources were skipped) is withheld: the answer may look wrong
    /// only because a down source withheld its join partners, so it must
    /// not count as negative evidence against the links. That is `None`,
    /// counted in `alex_degraded_feedback_withheld_total`. Approvals still
    /// flow — a correct answer is correct regardless of what else is
    /// missing.
    pub fn feedback_for_answer(
        &self,
        answer: &QueryAnswer,
        approved: bool,
    ) -> Option<Vec<((u32, u32), Feedback)>> {
        if !approved && !answer.completeness.is_complete() {
            alex_telemetry::counter!("alex_degraded_feedback_withheld_total").inc();
            return None;
        }
        let feedback = if approved {
            Feedback::Positive
        } else {
            Feedback::Negative
        };
        let pairs = answer
            .links_used
            .iter()
            .filter_map(|link| self.link_to_pair(link));
        Some(pairs.map(|p| (p, feedback)).collect())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use alex_sparql::{Bindings, Completeness};

    fn setup() -> (Dataset, Dataset, FeedbackBridge) {
        let mut left = Dataset::new("L");
        left.add_str("http://l/a", "http://l/p", "x");
        let mut right = Dataset::new("R");
        right.add_str("http://r/1", "http://r/q", "y");
        let li = left.entity_index();
        let ri = right.entity_index();
        let bridge = FeedbackBridge::new(&left, &li, &right, &ri);
        (left, right, bridge)
    }

    #[test]
    fn resolves_forward_orientation() {
        let (_, _, bridge) = setup();
        let link = Link::new("http://l/a", "http://r/1");
        assert_eq!(bridge.link_to_pair(&link), Some((0, 0)));
    }

    #[test]
    fn resolves_reverse_orientation() {
        let (_, _, bridge) = setup();
        let link = Link::new("http://r/1", "http://l/a");
        assert_eq!(bridge.link_to_pair(&link), Some((0, 0)));
    }

    #[test]
    fn unknown_iris_resolve_to_none() {
        let (_, _, bridge) = setup();
        let link = Link::new("http://ghost/x", "http://r/1");
        assert_eq!(bridge.link_to_pair(&link), None);
    }

    #[test]
    fn answer_feedback_fans_out_to_links() {
        let (_, _, bridge) = setup();
        let answer = QueryAnswer {
            bindings: Bindings::new(),
            links_used: vec![
                Link::new("http://l/a", "http://r/1"),
                Link::new("http://ghost/x", "http://ghost/y"),
            ],
            completeness: Completeness::Complete,
        };
        let approved = bridge.feedback_for_answer(&answer, true);
        assert_eq!(approved, Some(vec![((0, 0), Feedback::Positive)]));
        let rejected = bridge.feedback_for_answer(&answer, false);
        assert_eq!(rejected, Some(vec![((0, 0), Feedback::Negative)]));
    }

    #[test]
    fn answer_without_links_yields_no_feedback() {
        let (_, _, bridge) = setup();
        let answer = QueryAnswer {
            bindings: Bindings::new(),
            links_used: vec![],
            completeness: Completeness::Complete,
        };
        assert_eq!(bridge.feedback_for_answer(&answer, true), Some(vec![]));
    }

    #[test]
    fn partial_answer_rejection_is_withheld_but_approval_flows() {
        let (_, _, bridge) = setup();
        let answer = QueryAnswer {
            bindings: Bindings::new(),
            links_used: vec![Link::new("http://l/a", "http://r/1")],
            completeness: Completeness::Partial {
                skipped_sources: vec!["NYT".into()],
            },
        };
        // The missing source may have withheld the join partners that would
        // have made this answer look right: no negative evidence.
        assert_eq!(bridge.feedback_for_answer(&answer, false), None);
        // Approvals are unaffected by degradation.
        assert_eq!(
            bridge.feedback_for_answer(&answer, true),
            Some(vec![((0, 0), Feedback::Positive)])
        );
    }
}
