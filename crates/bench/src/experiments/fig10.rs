//! Figure 10 (Appendix D): sensitivity to the step size.
//!
//! Step sizes 0.01 / 0.05 (default) / 0.1. Paper shapes: F-measure does not
//! vary much (slightly better with bigger steps); recall improves with a
//! wider search area; the percentage of negative feedback grows with the
//! step size (≈20% / <30% / ≈35% in episode 1); execution time grows
//! substantially at 0.1.

use std::fmt::Write as _;

use alex_datagen::{DatasetKind, InitialLinksSpec, PairSpec};

use crate::harness::{text_table, ExperimentRun, Workload, BASE_SEED};

/// The step sizes compared.
pub const STEPS: [f64; 3] = [0.01, 0.05, 0.1];

/// Run the three arms.
pub fn runs() -> Vec<(f64, ExperimentRun)> {
    STEPS
        .iter()
        .map(|&step| {
            let run = Workload::batch(
                PairSpec::of(DatasetKind::DBpedia, DatasetKind::NYTimes),
                InitialLinksSpec::high_p_low_r(BASE_SEED + 15),
            )
            .with_step_size(step)
            .run();
            (step, run)
        })
        .collect()
}

/// Format the Fig. 10 report.
pub fn report(arms: &[(f64, ExperimentRun)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Figure 10 (Appendix D): step-size sensitivity (DBpedia - NYTimes)"
    );
    let _ = writeln!(out);

    let headers: Vec<String> = std::iter::once("episode".to_string())
        .chain(arms.iter().map(|(s, _)| format!("F @ step {s}")))
        .chain(arms.iter().map(|(s, _)| format!("R @ step {s}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let max_eps = arms
        .iter()
        .map(|(_, r)| r.run.episodes.len())
        .max()
        .unwrap_or(0);
    let mut rows = Vec::new();
    for e in 0..max_eps {
        let mut row = vec![(e + 1).to_string()];
        for (_, r) in arms {
            row.push(
                r.f_series()
                    .get(e)
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        for (_, r) in arms {
            row.push(
                r.recall_series()
                    .get(e)
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    let _ = writeln!(
        out,
        "(a, b) F-measure and recall per episode\n{}",
        text_table(&header_refs, &rows)
    );

    let _ = writeln!(out, "(c) negative feedback per episode (first 10)");
    let mut rows = Vec::new();
    for e in 0..10 {
        let mut row = vec![(e + 1).to_string()];
        for (_, r) in arms {
            row.push(
                r.negative_pct_series()
                    .get(e)
                    .map(|v| format!("{v:.1}%"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    let neg_headers: Vec<String> = std::iter::once("episode".to_string())
        .chain(arms.iter().map(|(s, _)| format!("step {s}")))
        .collect();
    let neg_refs: Vec<&str> = neg_headers.iter().map(String::as_str).collect();
    let _ = writeln!(out, "{}", text_table(&neg_refs, &rows));

    let _ = writeln!(out, "execution time (slowest partition, total):");
    for (s, r) in arms {
        let _ = writeln!(
            out,
            "  step {s}: slowest partition {:.2?}, episodes {}",
            r.run.slowest_partition(),
            r.run.episodes.len()
        );
    }
    out
}
