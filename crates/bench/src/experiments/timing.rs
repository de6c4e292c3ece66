//! §7.3 "Execution Time": batch mode runs minutes-scale per episode on the
//! paper's hardware (97 minutes total for DBpedia–NYTimes, ~7 min/episode,
//! 64 min average across partitions); the specific-domain setting runs in
//! seconds (~4 s total, ~1.3 s/episode). The absolute numbers differ on our
//! scaled data; the *gap* between batch and interactive mode is the shape
//! to reproduce.

use std::fmt::Write as _;

use alex_datagen::{DatasetKind, InitialLinksSpec, PairSpec};

use crate::harness::{ExperimentRun, Workload, BASE_SEED};

/// Run the two timing workloads (batch fig2a-like, interactive fig4c-like).
pub fn runs() -> (ExperimentRun, ExperimentRun) {
    let batch = Workload::batch(
        PairSpec::of(DatasetKind::DBpedia, DatasetKind::NYTimes),
        InitialLinksSpec::high_p_low_r(BASE_SEED + 17),
    )
    .run();
    let interactive = Workload::specific_domain(
        PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes),
        InitialLinksSpec {
            precision: 0.92,
            recall: 0.54,
            seed: BASE_SEED + 18,
        },
    )
    .run();
    (batch, interactive)
}

/// Format the timing report.
pub fn report(batch: &ExperimentRun, interactive: &ExperimentRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Execution time (§7.3)");
    let _ = writeln!(out);
    let per_episode = |r: &ExperimentRun| {
        if r.run.episodes.is_empty() {
            std::time::Duration::ZERO
        } else {
            r.run
                .episodes
                .iter()
                .map(|e| e.duration)
                .sum::<std::time::Duration>()
                / r.run.episodes.len() as u32
        }
    };
    let _ = writeln!(
        out,
        "batch mode ({}, episode size 1000, 27 partitions):",
        batch.label
    );
    let _ = writeln!(
        out,
        "  total wall time          : {:.2?}",
        batch.run.total_duration
    );
    let _ = writeln!(
        out,
        "  slowest partition        : {:.2?}",
        batch.run.slowest_partition()
    );
    let _ = writeln!(
        out,
        "  mean partition           : {:.2?}",
        batch.run.mean_partition()
    );
    let _ = writeln!(
        out,
        "  mean episode (aggregate) : {:.2?}",
        per_episode(batch)
    );
    let _ = writeln!(
        out,
        "  episodes                 : {}",
        batch.run.episodes.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "specific domain ({}, episode size 10, 1 partition):",
        interactive.label
    );
    let _ = writeln!(
        out,
        "  total wall time          : {:.2?}",
        interactive.run.total_duration
    );
    let _ = writeln!(
        out,
        "  mean episode             : {:.2?}",
        per_episode(interactive)
    );
    let _ = writeln!(
        out,
        "  episodes                 : {}",
        interactive.run.episodes.len()
    );
    let _ = writeln!(out);
    let ratio = batch.run.total_duration.as_secs_f64()
        / interactive.run.total_duration.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "batch/interactive total-time ratio: {ratio:.0}x  (paper: 97 min vs 4 s ≈ 1455x on full-scale data)"
    );
    out
}
