//! The paper's motivating scenario, end to end (§1, Fig. 1):
//!
//! > "Find all New York Times articles about the NBA's MVP of 2013."
//!
//! The answer needs DBpedia (who the MVP is) *and* the NYTimes data set
//! (articles about people), joined through an `owl:sameAs` link. The user
//! approves or rejects each answer; ALEX interprets that as feedback on the
//! links that produced it, removes wrong links, and explores for new ones —
//! which immediately improves the next query.
//!
//! ```sh
//! cargo run --release --example federated_feedback
//! ```

use alex::core::{
    Agent, AlexConfig, Feedback, FeedbackBridge, FeedbackItem, LinkSpace, SourceId, SpaceConfig,
};
use alex::rdf::Dataset;
use alex::sparql::{parse, DatasetEndpoint, FederatedEngine, Link, QueryAnswer, SameAsLinks};

fn main() {
    // --- Two tiny knowledge bases -------------------------------------
    let mut dbpedia = Dataset::new("DBpedia");
    for (iri, label, award) in [
        (
            "http://db/LeBron_James",
            "LeBron James",
            Some("NBA MVP 2013"),
        ),
        (
            "http://db/Kevin_Durant",
            "Kevin Durant",
            Some("NBA MVP 2014"),
        ),
        ("http://db/Tim_Duncan", "Tim Duncan", None),
    ] {
        dbpedia.add_str(iri, "http://db/ontology/label", label);
        if let Some(a) = award {
            dbpedia.add_str(iri, "http://db/ontology/award", a);
        }
    }

    let mut nyt = Dataset::new("NYTimes");
    nyt.add_str(
        "http://nyt/per/lebron-james",
        "http://nyt/property/name",
        "James, LeBron",
    );
    nyt.add_str(
        "http://nyt/per/kevin-durant",
        "http://nyt/property/name",
        "Durant, Kevin",
    );
    nyt.add_str(
        "http://nyt/per/tim-duncan",
        "http://nyt/property/name",
        "Duncan, Tim",
    );
    for (article, about, headline) in [
        (
            "http://nyt/a/1",
            "http://nyt/per/lebron-james",
            "James Carries Heat to Title",
        ),
        (
            "http://nyt/a/2",
            "http://nyt/per/lebron-james",
            "MVP Again: James Repeats",
        ),
        (
            "http://nyt/a/3",
            "http://nyt/per/kevin-durant",
            "Durant's Scoring Clinic",
        ),
        (
            "http://nyt/a/4",
            "http://nyt/per/tim-duncan",
            "Duncan, Quiet Giant",
        ),
    ] {
        nyt.add_iri(article, "http://nyt/property/about", about);
        nyt.add_str(article, "http://nyt/property/headline", headline);
    }

    // --- ALEX agent over the pair's link space -------------------------
    let space = LinkSpace::build(&dbpedia, &nyt, &SpaceConfig::default());
    let bridge = FeedbackBridge::new(&dbpedia, space.left_index(), &nyt, space.right_index());
    // The automatic linker made one good link and one WRONG link
    // (LeBron ↔ lebron-james is missing; Durant got mislinked to Duncan).
    let initial_links = [
        Link::new("http://db/Kevin_Durant", "http://nyt/per/tim-duncan"), // wrong!
        Link::new("http://db/Tim_Duncan", "http://nyt/per/tim-duncan"),
    ];
    let initial_ids: Vec<(u32, u32)> = initial_links
        .iter()
        .filter_map(|l| bridge.link_to_pair(l))
        .collect();
    let mut agent = Agent::new(
        space,
        &initial_ids,
        AlexConfig {
            episode_size: 4,
            ..AlexConfig::default()
        },
    );

    // --- The federated engine answers over the agent's candidate links --
    let mut engine = FederatedEngine::new();
    engine.add_endpoint(Box::new(DatasetEndpoint::new(dbpedia.clone())));
    engine.add_endpoint(Box::new(DatasetEndpoint::new(nyt.clone())));
    let sync_links = |engine: &mut FederatedEngine, agent: &Agent| {
        engine.set_links(SameAsLinks::from_pairs(agent.candidates().iter().map(
            |id| {
                let (l, r) = agent.space().pair_terms(id);
                (dbpedia.resolve(l).to_string(), nyt.resolve(r).to_string())
            },
        )));
    };
    // A user's verdict on an answer becomes one judgment per link it used,
    // each sent through the agent's one entry point for feedback.
    let judge = |agent: &mut Agent, answer: &QueryAnswer, approved: bool| {
        let mut added = 0;
        for (pair, feedback) in bridge
            .feedback_for_answer(answer, approved)
            .unwrap_or_default()
        {
            assert_eq!(feedback == Feedback::Positive, approved);
            let state = agent
                .space()
                .id_of(pair.0, pair.1)
                .expect("judged link is in the space");
            let item = FeedbackItem {
                state,
                feedback,
                source: SourceId::ANONYMOUS,
            };
            added += agent.process_attributed(item).added;
        }
        added
    };

    let query = parse(
        "SELECT ?article ?headline WHERE { \
           ?who <http://db/ontology/award> \"NBA MVP 2014\" . \
           ?article <http://nyt/property/about> ?who . \
           ?article <http://nyt/property/headline> ?headline }",
    )
    .expect("valid query");

    // --- Round 1: the wrong link produces wrong answers ----------------
    sync_links(&mut engine, &agent);
    let answers = engine.execute(&query).expect("query evaluates");
    println!("Round 1 — articles about the NBA MVP of 2014:");
    for a in &answers {
        println!(
            "  {}   (via {} link(s))",
            a.bindings["headline"].lexical(),
            a.links_used.len()
        );
    }
    assert_eq!(answers.len(), 1);
    assert!(answers[0].bindings["headline"].lexical().contains("Duncan"));

    // The user rejects the Duncan article — it is not about Durant. ALEX
    // removes the offending link.
    println!("\nUser: ✗ that article is about Tim Duncan, not the 2014 MVP!");
    judge(&mut agent, &answers[0], false);

    // The user separately confirms a correct link's answer (Tim Duncan's
    // own article), giving ALEX a state to explore around. Exploration over
    // the (label, name) feature discovers Durant↔durant and James↔james.
    let duncan_query = parse(
        "SELECT ?article WHERE { \
           ?who <http://db/ontology/label> \"Tim Duncan\" . \
           ?article <http://nyt/property/about> ?who }",
    )
    .expect("valid query");
    sync_links(&mut engine, &agent);
    let duncan_answers = engine.execute(&duncan_query).expect("query evaluates");
    assert!(!duncan_answers.is_empty());
    println!("User: ✓ the Duncan article for the Duncan query is right.");
    // Approve a few times: the ε-greedy policy needs a couple of draws to
    // hit the name feature on a fresh state.
    let discovered: usize = (0..4)
        .map(|_| judge(&mut agent, &duncan_answers[0], true))
        .sum();
    println!("ALEX explored and added {discovered} new candidate link(s).");
    agent.end_episode();

    // --- Round 2: the discovered link answers the original query -------
    sync_links(&mut engine, &agent);
    let answers = engine.execute(&query).expect("query evaluates");
    println!("\nRound 2 — articles about the NBA MVP of 2014:");
    for a in &answers {
        println!("  {}", a.bindings["headline"].lexical());
    }
    assert_eq!(answers.len(), 1, "exactly Durant's article");
    assert!(answers[0].bindings["headline"].lexical().contains("Durant"));
    println!("\nThe wrong answer is gone and the right one appeared — ALEX at work.");
}
