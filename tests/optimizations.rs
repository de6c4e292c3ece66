//! Integration tests for the §6 optimizations at system scale: blacklist,
//! rollback, partitioning, and the incorrect-feedback robustness claim.

use std::collections::HashSet;

use alex::core::{
    driver, run_partitioned, Agent, AlexConfig, LinkSpace, OracleFeedback, PartitionedConfig,
    SpaceConfig,
};
use alex::datagen::{
    generate_pair, sample_initial_links, Domain, Flavor, InitialLinksSpec, PairConfig, SideConfig,
};

fn pair(seed: u64) -> alex::datagen::GeneratedPair {
    generate_pair(&PairConfig {
        seed,
        left: SideConfig {
            name: "L".into(),
            ns: "http://l.example.org/".into(),
            flavor: Flavor::Left,
            noise: 0.1,
            drop_prob: 0.15,
            sparse: false,
        },
        right: SideConfig {
            name: "R".into(),
            ns: "http://r.example.org/".into(),
            flavor: Flavor::Right,
            noise: 0.12,
            drop_prob: 0.15,
            sparse: false,
        },
        shared: 100,
        left_only: 150,
        right_only: 50,
        confusable_frac: 0.3,
        domains: vec![Domain::Person, Domain::Organization],
        left_extra_domains: vec![Domain::Place, Domain::Language],
    })
}

/// Returns (final F, mean F over episodes, mean negative-feedback fraction).
fn run_with(cfg: AlexConfig, seed: u64) -> (f64, f64, f64) {
    let pair = pair(17);
    let space = LinkSpace::build(&pair.left, &pair.right, &SpaceConfig::default());
    let truth: HashSet<(u32, u32)> = pair
        .ground_truth
        .iter()
        .filter_map(|&(l, r)| Some((space.left_index().id(l)?, space.right_index().id(r)?)))
        .collect();
    let initial: Vec<(u32, u32)> = truth.iter().copied().take(30).collect();
    let mut agent = Agent::new(space, &initial, cfg);
    let mut oracle = OracleFeedback::new(truth.clone(), seed);
    let report = driver::run(&mut agent, &mut oracle, &truth);
    let n = report.episodes.len().max(1) as f64;
    let avg_negative = report
        .episodes
        .iter()
        .map(|e| e.negative_feedback_frac)
        .sum::<f64>()
        / n;
    let mean_f = report
        .episodes
        .iter()
        .map(|e| e.quality.f_measure)
        .sum::<f64>()
        / n;
    (report.final_quality().f_measure, mean_f, avg_negative)
}

#[test]
fn blacklist_reduces_negative_feedback() {
    let base = AlexConfig {
        episode_size: 100,
        max_episodes: 20,
        ..AlexConfig::default()
    };
    let (f_with, _, neg_with) = run_with(base.clone(), 8);
    let (f_without, _, neg_without) = run_with(
        AlexConfig {
            use_blacklist: false,
            ..base
        },
        8,
    );
    // Paper Fig. 6: similar F-measure, significantly less negative feedback
    // with the blacklist.
    assert!(
        neg_with <= neg_without + 0.01,
        "blacklist should not increase negative feedback: {neg_with:.3} vs {neg_without:.3}"
    );
    assert!(f_with > 0.8 && f_without > 0.5, "{f_with} {f_without}");
}

#[test]
fn rollback_outperforms_no_rollback() {
    let base = AlexConfig {
        episode_size: 100,
        max_episodes: 20,
        ..AlexConfig::default()
    };
    let (f_with, mean_with, _) = run_with(base.clone(), 9);
    let (f_without, mean_without, _) = run_with(
        AlexConfig {
            use_rollback: false,
            ..base
        },
        9,
    );
    // Paper Fig. 7: without rollback, recovery from bad explorations is
    // slow. On a workload small enough that both eventually converge, the
    // signature is the *transient*: the mean F over the run (area under the
    // curve) must not be better without rollback, and the final F must be
    // comparable.
    assert!(
        mean_with >= mean_without - 0.02,
        "rollback transient should not be worse: mean {mean_with:.3} vs {mean_without:.3}"
    );
    assert!(
        f_with >= f_without - 0.05,
        "rollback final quality regressed: {f_with:.3} vs {f_without:.3}"
    );
}

#[test]
fn partitioned_and_single_runs_agree_on_quality() {
    let pair = pair(23);
    let initial = sample_initial_links(&pair, InitialLinksSpec::high_p_low_r(2));
    let base = AlexConfig {
        episode_size: 150,
        max_episodes: 25,
        ..AlexConfig::default()
    };
    let single = run_partitioned(
        &pair.left,
        &pair.right,
        &initial,
        &pair.ground_truth,
        &PartitionedConfig {
            partitions: 1,
            alex: base.clone(),
            ..PartitionedConfig::default()
        },
    );
    let multi = run_partitioned(
        &pair.left,
        &pair.right,
        &initial,
        &pair.ground_truth,
        &PartitionedConfig {
            partitions: 4,
            alex: base,
            ..PartitionedConfig::default()
        },
    );
    // §6.2: partitioning enables parallelism "without sacrificing the
    // quality of candidate links".
    let f1 = single.report.final_quality().f_measure;
    let f4 = multi.report.final_quality().f_measure;
    assert!(
        (f1 - f4).abs() < 0.25,
        "partitioning changed quality too much: {f1:.3} vs {f4:.3}"
    );
    assert!(f4 > 0.7, "partitioned quality too low: {f4:.3}");
}

#[test]
fn ten_percent_incorrect_feedback_degrades_gracefully() {
    let pair = pair(31);
    let initial = sample_initial_links(&pair, InitialLinksSpec::high_p_low_r(3));
    let base = AlexConfig {
        episode_size: 150,
        max_episodes: 25,
        ..AlexConfig::default()
    };
    let clean = run_partitioned(
        &pair.left,
        &pair.right,
        &initial,
        &pair.ground_truth,
        &PartitionedConfig {
            partitions: 2,
            alex: base.clone(),
            feedback_error_rate: 0.0,
            ..PartitionedConfig::default()
        },
    );
    let noisy = run_partitioned(
        &pair.left,
        &pair.right,
        &initial,
        &pair.ground_truth,
        &PartitionedConfig {
            partitions: 2,
            alex: base,
            feedback_error_rate: 0.10,
            ..PartitionedConfig::default()
        },
    );
    // Paper Appendix C: the degradation is graceful, not a collapse. Note
    // the scale caveat: at our data size each link is judged ~20x more
    // often than at the paper's scale, so false judgments accumulate
    // faster; the claim tested here is bounded degradation plus survival
    // of the run (no empty candidate set / NoFeedback death spiral).
    let qc = clean.report.final_quality();
    let qn = noisy.report.final_quality();
    assert!(
        qn.recall > qc.recall - 0.35,
        "recall degraded too much under 10% incorrect feedback: {qc:?} vs {qn:?}"
    );
    assert!(qn.f_measure > 0.6, "noisy run collapsed: {qn:?}");
    assert!(
        !noisy.report.episodes.is_empty()
            && noisy
                .report
                .episodes
                .last()
                .map(|e| e.candidates)
                .unwrap_or(0)
                > 0,
        "candidate set must survive noisy feedback"
    );
}
