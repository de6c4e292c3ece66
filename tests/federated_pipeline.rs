//! Integration across the query stack: federated SPARQL with sameAs
//! provenance, the feedback bridge, and the agent — Fig. 1's architecture.

use alex::core::{
    Agent, AlexConfig, Feedback, FeedbackBridge, FeedbackItem, LinkSpace, SourceId, SpaceConfig,
    StepOutcome,
};
use alex::rdf::Dataset;
use alex::sparql::{parse, DatasetEndpoint, FederatedEngine, Link, SameAsLinks};

fn knowledge_bases() -> (Dataset, Dataset) {
    let mut left = Dataset::new("KB-A");
    for (i, (name, fact)) in [
        ("Ada Lovelace", "first programmer"),
        ("Alan Turing", "computability"),
        ("Grace Hopper", "compilers"),
    ]
    .iter()
    .enumerate()
    {
        let iri = format!("http://a/person/{i}");
        left.add_str(&iri, "http://a/ont/label", name);
        left.add_str(&iri, "http://a/ont/knownFor", fact);
    }
    let mut right = Dataset::new("KB-B");
    for (i, name) in ["Lovelace, Ada", "Turing, Alan", "Hopper, Grace"]
        .iter()
        .enumerate()
    {
        let iri = format!("http://b/p/{i}");
        right.add_str(&iri, "http://b/prop/name", name);
        right.add_str(
            &format!("http://b/article/{i}"),
            "http://b/prop/headline",
            &format!("Story {i}"),
        );
        right.add_iri(
            &format!("http://b/article/{i}"),
            "http://b/prop/about",
            &iri,
        );
    }
    (left, right)
}

fn federated_query(links: SameAsLinks, left: &Dataset, right: &Dataset) -> FederatedEngine {
    let mut engine = FederatedEngine::new();
    engine.add_endpoint(Box::new(DatasetEndpoint::new(left.clone())));
    engine.add_endpoint(Box::new(DatasetEndpoint::new(right.clone())));
    engine.set_links(links);
    engine
}

/// A user's judgment of a link, through the agent's one entry point.
fn judge(agent: &mut Agent, pair: (u32, u32), feedback: Feedback) -> StepOutcome {
    let state = agent
        .space()
        .id_of(pair.0, pair.1)
        .expect("judged link is in the space");
    agent.process_attributed(FeedbackItem {
        state,
        feedback,
        source: SourceId::ANONYMOUS,
    })
}

#[test]
fn provenance_flows_from_answers_to_agent_feedback() {
    let (left, right) = knowledge_bases();
    let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
    let bridge = FeedbackBridge::new(&left, space.left_index(), &right, space.right_index());

    // One correct link, one wrong link.
    let good = Link::new("http://a/person/0", "http://b/p/0");
    let bad = Link::new("http://a/person/1", "http://b/p/2"); // Turing ↔ Hopper!
    let good_id = bridge.link_to_pair(&good).expect("resolvable");
    let bad_id = bridge.link_to_pair(&bad).expect("resolvable");
    let mut agent = Agent::new(space, &[good_id, bad_id], AlexConfig::default());

    let mut engine = federated_query(
        SameAsLinks::from_pairs(vec![
            (good.left.clone(), good.right.clone()),
            (bad.left.clone(), bad.right.clone()),
        ]),
        &left,
        &right,
    );
    let query = parse(
        "SELECT ?article ?who WHERE { \
           ?who <http://a/ont/knownFor> \"computability\" . \
           ?article <http://b/prop/about> ?who }",
    )
    .expect("parses");
    let answers = engine.execute(&query).expect("evaluates");
    assert_eq!(answers.len(), 1, "the bad link produces one wrong answer");
    assert_eq!(answers[0].links_used.len(), 1);
    assert_eq!(answers[0].links_used[0], bad);

    // The user rejects it; the bridge routes the rejection to the agent.
    let items = bridge.feedback_for_answer(&answers[0], false);
    assert_eq!(items, Some(vec![(bad_id, Feedback::Negative)]));
    for (pair, fb) in items.unwrap_or_default() {
        judge(&mut agent, pair, fb);
    }
    assert!(
        !agent.candidate_pairs().contains(&bad_id),
        "rejected link must leave the candidate set"
    );
    assert!(agent.candidate_pairs().contains(&good_id));

    // Re-run the query over the agent's updated links: no more wrong answer.
    engine.set_links(SameAsLinks::from_pairs(agent.candidates().iter().map(
        |id| {
            let (l, r) = agent.space().pair_terms(id);
            (left.resolve(l).to_string(), right.resolve(r).to_string())
        },
    )));
    assert!(engine.execute(&query).expect("evaluates").is_empty());
}

#[test]
fn positive_answer_feedback_discovers_sibling_links() {
    let (left, right) = knowledge_bases();
    let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
    let bridge = FeedbackBridge::new(&left, space.left_index(), &right, space.right_index());
    let good = Link::new("http://a/person/0", "http://b/p/0");
    let good_id = bridge.link_to_pair(&good).expect("resolvable");
    let mut agent = Agent::new(space, &[good_id], AlexConfig::default());

    // Approvals trigger exploration; within a few draws the (label, name)
    // feature at 1.0 finds Turing and Hopper.
    let mut added = 0;
    for _ in 0..8 {
        added += judge(&mut agent, good_id, Feedback::Positive).added;
    }
    assert!(added >= 2, "exploration should discover the sibling links");
    let pairs = agent.candidate_pairs();
    let resolve = |l: alex::rdf::Term| left.resolve(l).to_string();
    let names: Vec<String> = pairs
        .iter()
        .map(|&(l, _)| resolve(agent.space().left_index().term(l)))
        .collect();
    assert!(names.iter().any(|n| n.ends_with("person/1")));
    assert!(names.iter().any(|n| n.ends_with("person/2")));
}
