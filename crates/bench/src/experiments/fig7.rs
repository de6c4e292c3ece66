//! Figure 7: effect of rollback (§6.3, §7.3).
//!
//! (a) overall quality *without* rollback: precision collapses after the
//! first episode and, within the 100-episode cap, never truly recovers;
//! (b) a partition that manages to converge without rollback (slowly) —
//! compared with its rollback-enabled run, which converges much faster;
//! (c) a partition that cannot recover without rollback.

use std::fmt::Write as _;

use alex_core::PartitionTrace;
use alex_datagen::{DatasetKind, InitialLinksSpec, PairSpec};

use crate::harness::{text_table, ExperimentRun, Workload, BASE_SEED};

/// Run both arms: without rollback (100-episode cap) and with (default).
pub fn runs() -> (ExperimentRun, ExperimentRun) {
    let spec = || PairSpec::of(DatasetKind::DBpedia, DatasetKind::NYTimes);
    let regime = InitialLinksSpec::high_p_low_r(BASE_SEED + 12);
    let without = Workload::batch(spec(), regime)
        .with_rollback(false)
        .with_max_episodes(100)
        .run();
    let with = Workload::batch(spec(), regime).with_max_episodes(100).run();
    (without, with)
}

/// Episode at which a partition's local change fraction first stays below
/// 5%, if any — its (relaxed) convergence point.
fn partition_convergence(trace: &PartitionTrace) -> Option<usize> {
    trace
        .episodes
        .iter()
        .find(|e| e.change_frac < 0.05)
        .map(|e| e.episode)
}

/// Format the Fig. 7 report.
pub fn report(without: &ExperimentRun, with: &ExperimentRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Figure 7: effect of rollback (DBpedia - NYTimes)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(a) overall quality WITHOUT rollback (cap 100 episodes)"
    );
    let _ = writeln!(out, "{}", without.quality_table());
    let _ = writeln!(out, "{}", without.convergence_summary());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "    with rollback (same workload): final F = {:.3} after {} episodes",
        with.run.final_quality().f_measure,
        with.run.episodes.len()
    );
    let _ = writeln!(out);

    // Per-partition views: a partition that converges without rollback and
    // one that does not (the paper's (b) and (c)).
    let converging: Vec<(usize, usize)> = without
        .run
        .partitions
        .iter()
        .filter_map(|t| partition_convergence(t).map(|e| (t.partition, e)))
        .collect();
    let stuck: Vec<usize> = without
        .run
        .partitions
        .iter()
        .filter(|t| partition_convergence(t).is_none() && !t.episodes.is_empty())
        .map(|t| t.partition)
        .collect();

    let _ = writeln!(
        out,
        "(b) partitions that converge without rollback: {} of {}",
        converging.len(),
        without.run.partitions.len()
    );
    if let Some(&(pidx, when)) = converging.iter().max_by_key(|&&(_, e)| e) {
        let with_when = with
            .run
            .partitions
            .iter()
            .find(|t| t.partition == pidx)
            .and_then(partition_convergence);
        let _ = writeln!(
            out,
            "    example: partition {pidx} converges at episode {when} without rollback, \
             at episode {} with rollback",
            with_when
                .map(|e| e.to_string())
                .unwrap_or_else(|| ">cap".into())
        );
        let trace = without
            .run
            .partitions
            .iter()
            .find(|t| t.partition == pidx)
            .expect("partition exists");
        let mut rows = Vec::new();
        for e in trace.episodes.iter().take(45) {
            rows.push(vec![
                e.episode.to_string(),
                format!("{:.3}", e.quality.precision),
                format!("{:.3}", e.quality.recall),
                format!("{:.3}", e.quality.f_measure),
            ]);
        }
        let _ = writeln!(
            out,
            "{}",
            text_table(&["episode", "precision", "recall", "f-measure"], &rows)
        );
    }

    let _ = writeln!(
        out,
        "(c) partitions that do NOT recover without rollback: {} of {}",
        stuck.len(),
        without.run.partitions.len()
    );
    if let Some(&pidx) = stuck.first() {
        let trace = without
            .run
            .partitions
            .iter()
            .find(|t| t.partition == pidx)
            .expect("partition exists");
        let last = trace.episodes.last().expect("non-empty");
        let _ = writeln!(
            out,
            "    example: partition {pidx} ends at episode {} with precision {:.3} \
             (change still {:.0}% per episode)",
            last.episode,
            last.quality.precision,
            last.change_frac * 100.0
        );
    }
    out
}
