//! Shared experiment harness: workload construction, run wrappers, and
//! plain-text table/series formatting.

use std::fmt::Write as _;

use alex_core::{
    run_partitioned, AlexConfig, PartitionedConfig, PartitionedRun, Quality, SpaceConfig,
};
use alex_datagen::{
    generate_pair, sample_initial_links, score_links, GeneratedPair, InitialLinksSpec, PairSpec,
};
use alex_telemetry::span;

/// The paper runs 27 partitions; we default to the same number (threads are
/// cheap — partitions are compute-bound and independent).
pub const PAPER_PARTITIONS: usize = 27;

/// Deterministic base seed for all experiments.
pub const BASE_SEED: u64 = 20160501;

/// A fully specified experiment workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The data-set pair.
    pub spec: PairSpec,
    /// Initial candidate regime (precision/recall of the starting links).
    pub regime: InitialLinksSpec,
    /// ALEX configuration.
    pub alex: AlexConfig,
    /// Number of partitions.
    pub partitions: usize,
    /// Oracle error rate (Appendix C).
    pub error_rate: f64,
}

impl Workload {
    /// A batch-mode workload with the paper's defaults. Batch figures are
    /// capped at 40 episodes (the paper's batch runs converge by ~25; our
    /// synthetic feature geometry is noisier, see EXPERIMENTS.md).
    pub fn batch(spec: PairSpec, regime: InitialLinksSpec) -> Workload {
        Workload {
            spec,
            regime,
            alex: AlexConfig {
                seed: BASE_SEED,
                max_episodes: 40,
                ..AlexConfig::default()
            },
            partitions: PAPER_PARTITIONS,
            error_rate: 0.0,
        }
    }

    /// Override the step size (Fig. 10).
    pub fn with_step_size(mut self, step: f64) -> Self {
        self.alex.step_size = step;
        self
    }

    /// Override the episode size (Fig. 11).
    pub fn with_episode_size(mut self, size: usize) -> Self {
        self.alex.episode_size = size;
        self
    }

    /// Override the episode cap.
    pub fn with_max_episodes(mut self, n: usize) -> Self {
        self.alex.max_episodes = n;
        self
    }

    /// Toggle the blacklist optimization (Fig. 6).
    pub fn with_blacklist(mut self, enabled: bool) -> Self {
        self.alex.use_blacklist = enabled;
        self
    }

    /// Toggle the rollback optimization (Fig. 7).
    pub fn with_rollback(mut self, enabled: bool) -> Self {
        self.alex.use_rollback = enabled;
        self
    }

    /// Set the oracle error rate (Fig. 9 uses 0.10).
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// A specific-domain workload: episode size 10, single partition
    /// (§7.2.2 — small data, interactive latency).
    pub fn specific_domain(spec: PairSpec, regime: InitialLinksSpec) -> Workload {
        Workload {
            spec,
            regime,
            alex: AlexConfig {
                episode_size: 10,
                seed: BASE_SEED,
                ..AlexConfig::default()
            },
            partitions: 1,
            error_rate: 0.0,
        }
    }

    /// Execute: generate the pair, sample the initial links, run ALEX.
    pub fn run(&self) -> ExperimentRun {
        let _workload = span("workload");
        let (pair, initial) = {
            let _s = span("generate");
            let pair = generate_pair(&self.spec.config(BASE_SEED));
            let initial = sample_initial_links(&pair, self.regime);
            (pair, initial)
        };
        let (p0, r0, f0) = score_links(&pair, &initial);
        let cfg = PartitionedConfig {
            partitions: self.partitions,
            alex: self.alex.clone(),
            space: SpaceConfig::default(),
            feedback_error_rate: self.error_rate,
        };
        let run = run_partitioned(&pair.left, &pair.right, &initial, &pair.ground_truth, &cfg);
        ExperimentRun {
            label: self.spec.label(),
            sampled_initial_quality: Quality {
                precision: p0,
                recall: r0,
                f_measure: f0,
            },
            initial_links: initial.len(),
            ground_truth: pair.gt_len(),
            run,
            pair,
        }
    }
}

/// The result of one experiment workload.
pub struct ExperimentRun {
    /// Pair label, e.g. "DBpedia - NYTimes".
    pub label: String,
    /// Quality of the sampled initial links (term-level, before id mapping).
    pub sampled_initial_quality: Quality,
    /// Number of initial candidate links.
    pub initial_links: usize,
    /// Ground-truth size.
    pub ground_truth: usize,
    /// The partitioned run.
    pub run: PartitionedRun,
    /// The generated pair (for follow-up analyses).
    pub pair: GeneratedPair,
}

impl ExperimentRun {
    /// Number of ground-truth links discovered that were not in the initial
    /// set (the paper reports "new links discovered" per experiment).
    pub fn new_correct_links(&self) -> usize {
        let initial_correct =
            (self.sampled_initial_quality.recall * self.ground_truth as f64).round() as usize;
        let final_correct = self
            .run
            .episodes
            .last()
            .map(|e| e.correct)
            .unwrap_or(initial_correct);
        final_correct.saturating_sub(initial_correct)
    }

    /// Render the per-episode quality series as a text table, episode 0
    /// being the initial candidate set.
    pub fn quality_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "episode  precision  recall  f-measure  candidates  change"
        );
        let q0 = self.run.initial_quality;
        let _ = writeln!(
            out,
            "{:>7}  {:>9.3}  {:>6.3}  {:>9.3}  {:>10}  {:>6}",
            0, q0.precision, q0.recall, q0.f_measure, self.initial_links, "-"
        );
        for ep in &self.run.episodes {
            let _ = writeln!(
                out,
                "{:>7}  {:>9.3}  {:>6.3}  {:>9.3}  {:>10}  {:>5.1}%",
                ep.episode,
                ep.quality.precision,
                ep.quality.recall,
                ep.quality.f_measure,
                ep.candidates,
                ep.change_frac * 100.0
            );
        }
        out
    }

    /// Per-episode F-measure series (episode 1..).
    pub fn f_series(&self) -> Vec<f64> {
        self.run
            .episodes
            .iter()
            .map(|e| e.quality.f_measure)
            .collect()
    }

    /// Per-episode recall series.
    pub fn recall_series(&self) -> Vec<f64> {
        self.run.episodes.iter().map(|e| e.quality.recall).collect()
    }

    /// Per-episode precision series.
    pub fn precision_series(&self) -> Vec<f64> {
        self.run
            .episodes
            .iter()
            .map(|e| e.quality.precision)
            .collect()
    }

    /// Per-episode negative-feedback percentage series.
    pub fn negative_pct_series(&self) -> Vec<f64> {
        self.run
            .episodes
            .iter()
            .map(|e| e.negative_feedback_frac * 100.0)
            .collect()
    }

    /// One-line convergence summary.
    pub fn convergence_summary(&self) -> String {
        format!(
            "converged: {:?} after {} episodes (relaxed <5% at episode {}); \
             new correct links discovered: {}; ground truth: {}",
            self.run.stop,
            self.run.episodes.len(),
            self.run
                .relaxed_converged_at
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".to_string()),
            self.new_correct_links(),
            self.ground_truth
        )
    }
}

/// Render a simple aligned text table.
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:<w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_alignment() {
        let t = text_table(
            &["name", "n"],
            &[
                vec!["alpha".to_string(), "1".to_string()],
                vec!["b".to_string(), "100".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }
}
