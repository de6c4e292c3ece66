//! The paper's "specific domains" setting (§7.2.2): a single user improving
//! the NBA-players links interactively with 10-feedback-item episodes.
//!
//! ```sh
//! cargo run --release --example nba_domain
//! ```

use alex::core::{run_partitioned, AlexConfig, PartitionedConfig, SpaceConfig};
use alex::datagen::{
    generate_pair, sample_initial_links, score_links, DatasetKind, InitialLinksSpec, PairSpec,
};

fn main() {
    // DBpedia (NBA) vs NYTimes, at the paper's own scale (93 GT links).
    let spec = PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes);
    let pair = generate_pair(&spec.config(4242));
    println!(
        "{}: {} triples, {} entities | {}: {} triples, {} entities | GT: {}",
        pair.left.name(),
        pair.left.len(),
        pair.left.entities().count(),
        pair.right.name(),
        pair.right.len(),
        pair.right.entities().count(),
        pair.gt_len()
    );

    // Start from roughly half the links (as PARIS would leave it).
    let initial = sample_initial_links(
        &pair,
        InitialLinksSpec {
            precision: 0.92,
            recall: 0.55,
            seed: 1,
        },
    );
    let (p, r, f) = score_links(&pair, &initial);
    println!(
        "initial links: {} (P {:.2}, R {:.2}, F {:.2})",
        initial.len(),
        p,
        r,
        f
    );

    let cfg = PartitionedConfig {
        partitions: 1,
        alex: AlexConfig {
            episode_size: 10, // interactive: one user, ten judgments at a time
            max_episodes: 20,
            ..AlexConfig::default()
        },
        space: SpaceConfig::default(),
        feedback_error_rate: 0.0,
    };
    let started = std::time::Instant::now();
    let run = run_partitioned(&pair.left, &pair.right, &initial, &pair.ground_truth, &cfg).report;

    println!("\nepisode  precision  recall  f-measure  candidates");
    let q0 = run.initial_quality;
    println!(
        "{:>7}  {:>9.3}  {:>6.3}  {:>9.3}",
        0, q0.precision, q0.recall, q0.f_measure
    );
    for e in &run.episodes {
        println!(
            "{:>7}  {:>9.3}  {:>6.3}  {:>9.3}  {:>10}",
            e.episode, e.quality.precision, e.quality.recall, e.quality.f_measure, e.candidates
        );
    }
    println!(
        "\n{:?} after {} episodes ({} feedback items) in {:.2?} — \
         interactive-speed improvement, as in the paper's Fig. 4(c)",
        run.stop,
        run.episodes.len(),
        run.episodes.len() * 10,
        started.elapsed()
    );
}
