//! The full Fig. 1 loop at system scale: federated queries produce answers
//! with link provenance; `QueryFeedback` judges *answers* against the
//! ground truth; the bridge converts answer judgments into link feedback;
//! ALEX improves the links; more queries become answerable.
//!
//! This is the deployment mode the paper describes — no oracle touches
//! links directly; all feedback flows through query answers.

mod harness;

use alex::core::AlexConfig;
use alex::datagen::{sample_initial_links, Domain, InitialLinksSpec};
use alex::fault::FaultPlan;
use alex::sparql::SameAsLinks;

#[test]
fn answer_level_feedback_improves_links_and_query_coverage() {
    let pair = harness::synthetic_pair(77, [60, 60, 30], vec![Domain::Place, Domain::Drug]);
    let endpoints =
        || harness::faulty_engine([&pair.left, &pair.right].map(|ds| (ds, FaultPlan::default())));
    // A fixed query workload, one query per ground-truth link.
    let workload = harness::queries(&pair, 50);
    assert!(workload.len() >= 40, "workload too small");

    // One engine over a link set counts the answerable queries.
    let mut probe = endpoints();
    let mut answered = |links: Vec<(String, String)>| -> usize {
        probe.set_links(SameAsLinks::from_pairs(links));
        workload
            .iter()
            .filter(|q| !probe.execute(q).expect("evaluates").is_empty())
            .count()
    };

    // Start from a weak candidate set: 30% recall, 85% precision, the
    // links `query_loop` samples from seed 9.
    let spec = InitialLinksSpec {
        precision: 0.85,
        recall: 0.30,
        seed: 9,
    };
    let initial = sample_initial_links(&pair, spec).into_iter().map(|(l, r)| {
        (
            pair.left.resolve(l).to_string(),
            pair.right.resolve(r).to_string(),
        )
    });
    let initial_answered = answered(initial.collect());
    assert!(
        initial_answered < workload.len() * 3 / 5,
        "with 30% recall most queries must be unanswerable ({initial_answered}/{})",
        workload.len()
    );

    // Episodes of answer judgments: the workload runs over the agent's
    // links, every answer is judged by whether all its links are correct,
    // and the judgments flow back through the bridge.
    let cfg = AlexConfig {
        episode_size: 40,
        ..AlexConfig::default()
    };
    let (report, agent, _) = harness::query_loop(&pair, endpoints(), 9, 50, cfg);

    let final_links = agent.candidates().iter().map(|id| {
        let (l, r) = agent.space().pair_terms(id);
        (
            pair.left.resolve(l).to_string(),
            pair.right.resolve(r).to_string(),
        )
    });
    let final_answered = answered(final_links.collect());
    let (initial_quality, final_quality) = (report.initial_quality, report.final_quality());
    assert!(
        final_quality.recall > initial_quality.recall + 0.2,
        "recall should improve substantially: {initial_quality:?} -> {final_quality:?}"
    );
    assert!(
        final_answered > initial_answered,
        "more queries must become answerable: {initial_answered} -> {final_answered}"
    );
    assert!(
        final_answered >= workload.len() * 7 / 10,
        "most of the workload should be answerable in the end ({final_answered}/{})",
        workload.len()
    );
}
