//! Query-answer feedback over a (possibly faulty) federation — the
//! deployment mode of Fig. 1 packaged as a [`FeedbackSource`].
//!
//! [`QueryFeedback`] owns a [`FederatedEngine`] and a SPARQL workload. Each
//! time the episode loop asks for feedback, it keeps the engine's sameAs
//! links in sync with the agent's current candidate set, executes workload
//! queries, judges every answer against the ground truth, and routes the
//! judgments through the [`FeedbackBridge`] back to entity-id pairs.
//!
//! Degradation-aware: when the federation skips sources (outage, open
//! circuit, blown budget), rejected answers from those *partial* results
//! are withheld rather than converted into negative evidence — the answer
//! may look wrong only because a down source withheld its join partners.
//! Withheld judgments are reported through
//! [`FeedbackSource::take_degraded`], so the driver can skip the episode
//! instead of mistaking an outage for convergence; their run total is
//! [`RunReport::withheld_judgments`](crate::driver::RunReport::withheld_judgments).

use std::collections::{HashSet, VecDeque};

use alex_rdf::Dataset;
use alex_sparql::{parse, FederatedEngine, Link, Query};
use alex_telemetry::counter;

use crate::bridge::FeedbackBridge;
use crate::candidates::CandidateSet;
use crate::feedback::{Feedback, FeedbackSource};
use crate::space::{LinkSpace, PairId};

/// A feedback source that judges federated query answers against ground
/// truth and feeds the verdicts back as link-level feedback.
pub struct QueryFeedback {
    engine: FederatedEngine,
    left: Dataset,
    right: Dataset,
    queries: Vec<Query>,
    bridge: FeedbackBridge,
    truth: HashSet<(u32, u32)>,
    pending: VecDeque<((u32, u32), Feedback)>,
    /// Judgments withheld because the producing query degraded, since the
    /// last `take_degraded` call.
    degraded: usize,
    /// Round-robin position in the workload.
    cursor: usize,
    /// The candidate pairs the engine's link index holds, sorted: what
    /// the last refill synced. The source owns the index, so the next
    /// refill diffs ids against this.
    synced: Vec<PairId>,
    /// The index's closure generation right after the last sync; any
    /// other mutation would bump it.
    synced_generation: u64,
}

impl QueryFeedback {
    /// Build a source over `engine` (endpoints already registered, fault
    /// wrappers and resilience applied by the caller). `left`/`right` are
    /// used to resolve the agent's candidate pairs back to IRIs when
    /// syncing the engine's link index; `truth` holds ground-truth
    /// entity-id pairs for judging answers. From here on the source owns
    /// the engine's link index: links already in it are removed, and
    /// every later mutation is a refill's.
    pub fn new(
        mut engine: FederatedEngine,
        left: Dataset,
        right: Dataset,
        queries: Vec<Query>,
        bridge: FeedbackBridge,
        truth: HashSet<(u32, u32)>,
    ) -> QueryFeedback {
        let foreign: Vec<Link> = engine.links().iter().cloned().collect();
        for link in &foreign {
            engine.links_mut().remove(link);
        }
        let synced_generation = engine.links().generation();
        QueryFeedback {
            engine,
            left,
            right,
            queries,
            bridge,
            truth,
            pending: VecDeque::new(),
            degraded: 0,
            cursor: 0,
            synced: Vec::new(),
            synced_generation,
        }
    }

    /// Number of queries in the workload.
    pub fn workload_len(&self) -> usize {
        self.queries.len()
    }

    /// Borrow the engine (e.g. to inspect breaker states after a run).
    pub fn engine(&self) -> &FederatedEngine {
        &self.engine
    }

    /// Mutably borrow the engine (e.g. to enable the answer cache after
    /// construction).
    pub fn engine_mut(&mut self) -> &mut FederatedEngine {
        &mut self.engine
    }

    /// Make the engine's link index equal the candidate set, issuing only
    /// the actual adds/removes. Every exploration add, rejection remove,
    /// blacklist, rollback, and resume-replay thus costs the index exactly
    /// the mutated pairs (its `generation()` moves by that many) instead of
    /// a wholesale replacement. The diff runs on sorted pair ids against
    /// the last sync; only changed pairs are resolved to IRIs. Changes
    /// apply in `Link` order, the order a merge of the sorted IRI sets
    /// would issue them in, so link insertion order — which decides
    /// `equivalents()` and with it answer order — does not depend on how
    /// the diff is found.
    fn sync_links(&mut self, candidates: &CandidateSet, space: &LinkSpace) {
        debug_assert_eq!(
            self.engine.links().generation(),
            self.synced_generation,
            "the engine's link index was mutated outside QueryFeedback"
        );
        let mut desired: Vec<PairId> = candidates.iter().collect();
        desired.sort_unstable();
        desired.dedup();
        let link_of = |id: PairId| {
            let (lt, rt) = space.pair_terms(id);
            Link::new(self.left.resolve(lt), self.right.resolve(rt))
        };
        let mut changes: Vec<(Link, bool)> = Vec::new();
        for &id in &self.synced {
            if desired.binary_search(&id).is_err() {
                changes.push((link_of(id), false));
            }
        }
        for &id in &desired {
            if self.synced.binary_search(&id).is_err() {
                changes.push((link_of(id), true));
            }
        }
        changes.sort_unstable();
        let links = self.engine.links_mut();
        for (link, add) in changes {
            if add {
                links.add(link);
            } else {
                links.remove(&link);
            }
        }
        debug_assert_eq!(links.len(), desired.len(), "pairs and links must map 1:1");
        self.synced_generation = links.generation();
        self.synced = desired;
    }

    /// Sync the engine's links to the candidate set, then execute workload
    /// queries (round-robin) until at least one judgment is queued or a
    /// full pass produced nothing. Returns whether anything was queued.
    fn refill(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> bool {
        self.sync_links(candidates, space);
        for _ in 0..self.queries.len() {
            let query = &self.queries[self.cursor % self.queries.len()];
            self.cursor += 1;
            match self.engine.execute_full(query) {
                Ok(result) => {
                    for answer in &result.answers {
                        if answer.links_used.is_empty() {
                            continue; // single-source answer: no link to judge
                        }
                        let approved = answer.links_used.iter().all(|link| {
                            self.bridge
                                .link_to_pair(link)
                                .map(|p| self.truth.contains(&p))
                                .unwrap_or(false)
                        });
                        if !approved && !answer.completeness.is_complete() {
                            // The bridge would also withhold this, but count
                            // it here so the episode knows why it was dry.
                            self.degraded += 1;
                            continue;
                        }
                        self.pending
                            .extend(self.bridge.feedback_for_answer(answer, approved));
                    }
                }
                Err(_) => {
                    // Fail-fast engines surface endpoint errors; treat the
                    // whole query as degraded rather than crashing the run.
                    counter!("alex_query_feedback_errors_total").inc();
                    self.degraded += 1;
                }
            }
            if !self.pending.is_empty() {
                return true;
            }
        }
        false
    }
}

impl FeedbackSource for QueryFeedback {
    fn next(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<(PairId, Feedback)> {
        loop {
            if let Some((pair, feedback)) = self.pending.pop_front() {
                // Pairs come from links built out of the candidate set, so
                // they resolve; anything foreign is silently dropped.
                if let Some(id) = space.id_of(pair.0, pair.1) {
                    return Some((id, feedback));
                }
                continue;
            }
            if self.queries.is_empty() || candidates.is_empty() {
                return None;
            }
            if !self.refill(candidates, space) {
                return None;
            }
        }
    }

    fn take_degraded(&mut self) -> usize {
        std::mem::take(&mut self.degraded)
    }
}

/// Build a federated query workload from IRI-level links: for each
/// `(left IRI, right IRI)` pair, anchor the left entity by one of its
/// literal attributes and request an attribute of the linked right entity —
/// a query only answerable across a sameAs link (the paper's Fig. 1 shape):
///
/// ```sparql
/// SELECT ?e ?v WHERE { ?e <left-pred> "left-literal" . ?e <right-pred> ?v }
/// ```
///
/// Links whose entities lack usable attributes (or whose literals would
/// need escaping) are skipped; at most `cap` queries are produced.
pub fn workload_from_links(
    left: &Dataset,
    right: &Dataset,
    links: &[(String, String)],
    cap: usize,
) -> Vec<Query> {
    let mut out = Vec::new();
    for (left_iri, right_iri) in links {
        if out.len() >= cap {
            break;
        }
        let Some(anchor) = literal_attribute(left, left_iri) else {
            continue;
        };
        let Some(right_pred) = any_attribute_predicate(right, right_iri) else {
            continue;
        };
        let (anchor_pred, anchor_value) = anchor;
        let sparql = format!(
            "SELECT ?e ?v WHERE {{ ?e <{anchor_pred}> \"{anchor_value}\" . \
             ?e <{right_pred}> ?v }}"
        );
        if let Ok(query) = parse(&sparql) {
            out.push(query);
        }
    }
    out
}

/// Build a workload whose answers are only reachable across a sameAs hop:
/// each query anchors the *left* entity by IRI and requests an attribute
/// that only the *right* data set holds,
///
/// ```sparql
/// SELECT ?v WHERE { <left-iri> <right-pred> ?v }
/// ```
///
/// so without the `(left, right)` link in the engine's closure the query
/// returns nothing, and with it every answer carries link provenance.
/// This is the workload the recall experiments use: answer recall tracks
/// closure convergence directly.
pub fn workload_requiring_links(
    right: &Dataset,
    links: &[(String, String)],
    cap: usize,
) -> Vec<Query> {
    let mut out = Vec::new();
    for (left_iri, right_iri) in links {
        if out.len() >= cap {
            break;
        }
        let Some(right_pred) = any_attribute_predicate(right, right_iri) else {
            continue;
        };
        let sparql = format!("SELECT ?v WHERE {{ <{left_iri}> <{right_pred}> ?v }}");
        if let Ok(query) = parse(&sparql) {
            out.push(query);
        }
    }
    out
}

/// The first literal attribute of `iri` that can be embedded in SPARQL
/// without escaping.
fn literal_attribute(ds: &Dataset, iri: &str) -> Option<(String, String)> {
    let sym = ds.interner().get(iri)?;
    let entity = ds.entity(alex_rdf::Term::Iri(sym));
    entity.attributes.iter().find_map(|a| {
        let value = a.objects.iter().find(|o| o.is_literal())?;
        let lexical = ds.resolve(*value);
        if lexical.contains('"') || lexical.contains('\\') {
            return None;
        }
        Some((ds.resolve_sym(a.predicate).to_string(), lexical.to_string()))
    })
}

/// The predicate of the first attribute `iri` has at all.
fn any_attribute_predicate(ds: &Dataset, iri: &str) -> Option<String> {
    let sym = ds.interner().get(iri)?;
    let entity = ds.entity(alex_rdf::Term::Iri(sym));
    entity
        .attributes
        .first()
        .map(|a| ds.resolve_sym(a.predicate).to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;
    use alex_fault::FaultPlan;
    use alex_sparql::{DatasetEndpoint, FaultyEndpoint};

    /// Two aligned toy data sets with literal labels on both sides.
    fn datasets() -> (Dataset, Dataset) {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for (i, name) in ["Alpha One", "Beta Two", "Gamma Three"].iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
        }
        (left, right)
    }

    fn truth_links() -> Vec<(String, String)> {
        (0..3)
            .map(|i| (format!("http://l/{i}"), format!("http://r/{i}")))
            .collect()
    }

    fn build_source(engine_faulty: bool) -> (QueryFeedback, LinkSpace, HashSet<(u32, u32)>) {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let bridge = FeedbackBridge::new(&left, space.left_index(), &right, space.right_index());
        let links = truth_links();
        let queries = workload_from_links(&left, &right, &links, 10);
        assert_eq!(queries.len(), 3);
        let mut engine = FederatedEngine::new();
        if engine_faulty {
            engine.add_endpoint(Box::new(FaultyEndpoint::new(
                DatasetEndpoint::new(left.clone()),
                FaultPlan {
                    outage: Some((0, u64::MAX)),
                    ..FaultPlan::default()
                },
            )));
        } else {
            engine.add_endpoint(Box::new(DatasetEndpoint::new(left.clone())));
        }
        engine.add_endpoint(Box::new(DatasetEndpoint::new(right.clone())));
        let truth: HashSet<(u32, u32)> = (0..3).map(|i| (i, i)).collect();
        let source = QueryFeedback::new(engine, left, right, queries, bridge, truth.clone());
        (source, space, truth)
    }

    #[test]
    fn judges_answers_against_truth() {
        let (mut source, mut space, truth) = build_source(false);
        let mut candidates = CandidateSet::new();
        // One correct link and one wrong link in the candidate set.
        candidates.insert(space.ensure_pair(0, 0));
        candidates.insert(space.ensure_pair(1, 2));
        let mut saw_positive = false;
        let mut saw_negative = false;
        for _ in 0..20 {
            let Some((id, fb)) = source.next(&candidates, &space) else {
                break;
            };
            let pair = space.pair(id);
            match fb {
                Feedback::Positive => {
                    assert!(truth.contains(&pair), "positive only on true links");
                    saw_positive = true;
                }
                Feedback::Negative => {
                    assert!(!truth.contains(&pair), "negative only on false links");
                    saw_negative = true;
                }
            }
        }
        assert!(saw_positive, "correct link must be approved");
        assert!(saw_negative, "wrong link must be rejected");
        assert_eq!(source.take_degraded(), 0);
    }

    #[test]
    fn dead_source_degrades_instead_of_judging() {
        let (mut source, mut space, _) = build_source(true);
        let mut candidates = CandidateSet::new();
        candidates.insert(space.ensure_pair(0, 0));
        candidates.insert(space.ensure_pair(1, 2));
        // The left endpoint is hard-down: anchors never match, so queries
        // produce no judgeable answers — but crucially no negatives either.
        assert_eq!(source.next(&candidates, &space), None);
        assert_eq!(source.take_degraded(), 0, "no answers at all, none judged");
    }

    #[test]
    fn empty_candidates_yield_nothing() {
        let (mut source, space, _) = build_source(false);
        assert_eq!(source.next(&CandidateSet::new(), &space), None);
    }

    #[test]
    fn refill_syncs_links_incrementally() {
        let (mut source, mut space, _) = build_source(false);
        let start = source.engine().links().generation();

        // First sync: both candidates appear as adds (exploration path).
        let mut candidates = CandidateSet::new();
        candidates.insert(space.ensure_pair(0, 0));
        candidates.insert(space.ensure_pair(1, 1));
        assert!(source.next(&candidates, &space).is_some());
        let links: Vec<Link> = source.engine().links().iter().cloned().collect();
        assert_eq!(
            links,
            vec![
                Link::new("http://l/0", "http://r/0"),
                Link::new("http://l/1", "http://r/1")
            ],
        );
        assert_eq!(source.engine().links().generation(), start + 2);

        // Shrinking the candidate set (rejection/rollback path) must cost
        // exactly one effective mutation — not a rebuild of everything,
        // and the surviving link is never removed and re-added.
        let mut shrunk = CandidateSet::new();
        shrunk.insert(space.ensure_pair(0, 0));
        let dropped = Link::new("http://l/1", "http://r/1");
        for _ in 0..40 {
            if !source.engine().links().contains(&dropped) {
                break;
            }
            source.next(&shrunk, &space);
        }
        let links: Vec<Link> = source.engine().links().iter().cloned().collect();
        assert_eq!(links, vec![Link::new("http://l/0", "http://r/0")]);
        assert_eq!(source.engine().links().generation(), start + 3);
    }

    /// The string-level sync this source used before it diffed pair ids:
    /// rebuild every candidate as an IRI pair, sort, and merge against the
    /// index. Kept as the oracle for `sync_links`.
    fn string_merge_sync(
        links: &mut alex_sparql::SameAsLinks,
        candidates: &CandidateSet,
        space: &LinkSpace,
        left: &Dataset,
        right: &Dataset,
    ) {
        let mut desired: Vec<Link> = candidates
            .iter()
            .map(|id| {
                let (lt, rt) = space.pair_terms(id);
                Link::new(left.resolve(lt), right.resolve(rt))
            })
            .collect();
        desired.sort_unstable();
        desired.dedup();
        let current: Vec<Link> = links.iter().cloned().collect();
        let (mut i, mut j) = (0, 0);
        while i < current.len() || j < desired.len() {
            match (current.get(i), desired.get(j)) {
                (Some(have), Some(want)) if have == want => {
                    i += 1;
                    j += 1;
                }
                (Some(have), Some(want)) if have < want => {
                    links.remove(have);
                    i += 1;
                }
                (Some(have), None) => {
                    links.remove(have);
                    i += 1;
                }
                (_, Some(want)) => {
                    links.add(want.clone());
                    j += 1;
                }
                (None, None) => break,
            }
        }
    }

    #[test]
    fn id_sync_replays_the_string_merge_under_random_churn() {
        use rand::prelude::*;

        const N: u32 = 12;
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        for i in 0..N {
            left.add_str(&format!("http://l/{i}"), "http://l/label", &format!("e{i}"));
            right.add_str(&format!("http://r/{i}"), "http://r/name", &format!("e{i}"));
        }
        let mut space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let bridge = FeedbackBridge::new(&left, space.left_index(), &right, space.right_index());
        let mut source = QueryFeedback::new(
            FederatedEngine::new(),
            left.clone(),
            right.clone(),
            Vec::new(),
            bridge,
            HashSet::new(),
        );
        let mut oracle = alex_sparql::SameAsLinks::new();

        let mut rng = StdRng::seed_from_u64(0x5EC);
        let mut current: Vec<PairId> = Vec::new();
        let mut history: Vec<Vec<PairId>> = Vec::new();
        let mut kinds = [0usize; 5];
        for step in 0..300 {
            let mut random_pair = |rng: &mut StdRng| {
                space.ensure_pair(rng.random_range(0..N), rng.random_range(0..N))
            };
            let kind = rng.random_range(0..5usize);
            kinds[kind] += 1;
            let mut next = current.clone();
            match kind {
                // Exploration adds.
                0 => next.extend((0..rng.random_range(1..6)).map(|_| random_pair(&mut rng))),
                // Rejection removes.
                1 => {
                    for _ in 0..rng.random_range(1..6) {
                        if !next.is_empty() {
                            next.swap_remove(rng.random_range(0..next.len()));
                        }
                    }
                }
                // Everything rejected.
                2 => next.clear(),
                // Rollback to an earlier episode's set.
                3 => {
                    if let Some(old) = history.choose(&mut rng) {
                        next = old.clone();
                    }
                }
                // Rollback-sized swap: half out, as many new in.
                _ => {
                    next.shuffle(&mut rng);
                    let half = next.len() / 2;
                    next.truncate(half);
                    next.extend((0..half.max(1)).map(|_| random_pair(&mut rng)));
                }
            }
            let candidates = CandidateSet::from_iter(next.iter().copied());
            let (before, oracle_before) =
                (source.engine().links().generation(), oracle.generation());
            source.sync_links(&candidates, &space);
            string_merge_sync(&mut oracle, &candidates, &space, &left, &right);

            // The merge issues only the minimal adds and removes, so an
            // equal generation delta rules out redundant mutations.
            assert_eq!(
                source.engine().links().generation() - before,
                oracle.generation() - oracle_before,
                "step {step}: as many effective mutations as the string merge"
            );
            let mut want: Vec<Link> = candidates
                .iter()
                .map(|id| {
                    let (lt, rt) = space.pair_terms(id);
                    Link::new(left.resolve(lt), right.resolve(rt))
                })
                .collect();
            want.sort_unstable();
            let have: Vec<Link> = source.engine().links().iter().cloned().collect();
            assert_eq!(have, want, "step {step}: links equal the candidates");
            assert!(
                have.iter().eq(oracle.iter()),
                "step {step}: same links as the string merge"
            );
            for i in 0..N {
                for iri in [format!("http://l/{i}"), format!("http://r/{i}")] {
                    assert_eq!(
                        source.engine().links().equivalents(&iri),
                        oracle.equivalents(&iri),
                        "step {step}: insertion order of {iri}"
                    );
                }
            }
            history.push(next.clone());
            current = next;
        }
        assert!(
            kinds.iter().all(|&k| k > 20),
            "every churn kind ran: {kinds:?}"
        );
    }

    #[test]
    fn new_takes_over_links_already_in_the_engine() {
        let (left, right) = datasets();
        let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
        let bridge = FeedbackBridge::new(&left, space.left_index(), &right, space.right_index());
        let mut engine = FederatedEngine::new();
        engine
            .links_mut()
            .add(Link::new("http://l/0", "http://r/1"));
        let mut source =
            QueryFeedback::new(engine, left, right, Vec::new(), bridge, HashSet::new());
        assert!(source.engine().links().is_empty());
        source.sync_links(&CandidateSet::new(), &space);
        assert!(source.engine().links().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "mutated outside QueryFeedback")]
    fn foreign_link_mutation_trips_the_sync_check() {
        let (mut source, space, _) = build_source(false);
        source
            .engine_mut()
            .links_mut()
            .add(Link::new("http://l/0", "http://r/1"));
        source.sync_links(&CandidateSet::new(), &space);
    }

    #[test]
    fn workload_skips_entities_without_attributes() {
        let (left, right) = datasets();
        let links = vec![
            ("http://l/0".to_string(), "http://r/0".to_string()),
            ("http://ghost/x".to_string(), "http://r/1".to_string()),
        ];
        let queries = workload_from_links(&left, &right, &links, 10);
        assert_eq!(queries.len(), 1, "ghost entity contributes no query");
    }

    #[test]
    fn workload_respects_cap() {
        let (left, right) = datasets();
        let links = truth_links();
        assert_eq!(workload_from_links(&left, &right, &links, 2).len(), 2);
    }

    #[test]
    fn link_requiring_workload_answers_only_across_the_closure() {
        let (left, right) = datasets();
        let links = truth_links();
        let queries = workload_requiring_links(&right, &links, 10);
        assert_eq!(queries.len(), 3);
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(left)));
        engine.add_endpoint(Box::new(DatasetEndpoint::new(right)));
        // No links: the constant left IRI never reaches the right source.
        assert!(engine.execute(&queries[0]).unwrap().is_empty());
        engine
            .links_mut()
            .add(Link::new("http://l/0", "http://r/0"));
        let answers = engine.execute(&queries[0]).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(!answers[0].links_used.is_empty(), "answer rides the link");
    }
}
