//! Equal-size partitioning: the setup of a batch-mode run (§6.2).
//!
//! The larger (left) data set is split round-robin — "the i-th entity is in
//! partition i mod n" — and feature sets are generated between each
//! partition and the whole smaller data set, all from one shared
//! preparation of both sides ([`PreparedSides`]). Each partition gets its
//! own agent and feedback source; the shared episode loop
//! ([`driver::run_partitions`]) then splits every episode's feedback budget
//! across them and aggregates their metrics over the union of their
//! candidate sets.

use std::collections::HashSet;
use std::time::Duration;

use alex_guard::Supervisor;
use alex_rdf::{Dataset, Term};
use alex_telemetry::span;

use crate::agent::Agent;
use crate::config::AlexConfig;
use crate::driver::{self, Durability, Partition, PartitionTrace, RunReport, StopReason};
use crate::feedback::{FeedbackSource, OracleFeedback};
use crate::metrics::{EpisodeReport, Quality};
use crate::space::{LinkSpace, PreparedSides, SpaceConfig};

/// Configuration for a partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedConfig {
    /// Number of equal-size partitions (the paper uses 27).
    pub partitions: usize,
    /// Agent configuration. `episode_size` is the *global* per-episode
    /// feedback budget, split across partitions.
    pub alex: AlexConfig,
    /// Space construction configuration (its `partition` field is set per
    /// partition internally).
    pub space: SpaceConfig,
    /// Oracle error rate (Appendix C uses 0.10).
    pub feedback_error_rate: f64,
}

impl Default for PartitionedConfig {
    fn default() -> Self {
        PartitionedConfig {
            partitions: 4,
            alex: AlexConfig::default(),
            space: SpaceConfig::default(),
            feedback_error_rate: 0.0,
        }
    }
}

/// The result of a partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// Aggregate quality of the initial candidate set.
    pub initial_quality: Quality,
    /// Aggregated per-episode reports (union of partitions).
    pub episodes: Vec<EpisodeReport>,
    /// Per-partition traces.
    pub per_partition: Vec<PartitionTrace>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// First episode at which the aggregate change dropped below the
    /// relaxed threshold.
    pub relaxed_converged_at: Option<usize>,
    /// The union of the partitions' final candidate links, as
    /// `(left term, right term)` pairs — the improved link set a caller
    /// exports.
    pub final_links: Vec<(Term, Term)>,
    /// Wall-clock duration of the slowest partition (the paper's reported
    /// "execution time", §7.3).
    pub slowest_partition: Duration,
    /// Mean of the partitions' processing times.
    pub mean_partition: Duration,
    /// Total wall-clock duration of the whole run.
    pub total_duration: Duration,
}

impl PartitionedRun {
    /// Final aggregate quality.
    pub fn final_quality(&self) -> Quality {
        self.episodes
            .last()
            .map(|e| e.quality)
            .unwrap_or(self.initial_quality)
    }
}

/// Run ALEX over `cfg.partitions` equal-size partitions, partition i judged
/// by an oracle seeded `cfg.alex.seed + 1000 + i`.
///
/// `initial` and `truth` are `(left term, right term)` pairs (as produced by
/// a linker and the ground truth respectively).
pub fn run_partitioned(
    left: &Dataset,
    right: &Dataset,
    initial: &[(Term, Term)],
    truth: &[(Term, Term)],
    cfg: &PartitionedConfig,
) -> PartitionedRun {
    let oracle = |i: usize, truth: &HashSet<(u32, u32)>| -> Box<dyn FeedbackSource> {
        Box::new(OracleFeedback::with_error_rate(
            truth.clone(),
            cfg.feedback_error_rate,
            cfg.alex.seed.wrapping_add(1000 + i as u64),
        ))
    };
    let (report, agents) =
        match run_partitioned_with(left, right, initial, truth, cfg, oracle, None, None) {
            Ok(run) => run,
            // Without durability there is no I/O and no recovery: nothing in
            // the loop can fail.
            Err(e) => unreachable!("non-durable run cannot fail: {e}"),
        };
    let durations = report.partitions.iter().map(|p| p.total_duration);
    PartitionedRun {
        slowest_partition: durations.clone().max().unwrap_or(Duration::ZERO),
        mean_partition: durations.sum::<Duration>() / report.partitions.len().max(1) as u32,
        initial_quality: report.initial_quality,
        episodes: report.episodes,
        per_partition: report.partitions,
        stop: report.stop,
        relaxed_converged_at: report.relaxed_converged_at,
        final_links: final_links(&agents),
        total_duration: report.total_duration,
    }
}

/// Build the partitions of a run and drive them through
/// [`driver::run_partitions`]: one [`PreparedSides`], partition i's space
/// keeping the left entities with `id % n == i`, its agent starting from
/// its slice of `initial` with seed `cfg.alex.seed + i`, and its feedback
/// source made by `source(i, truth ids)`. Durability and supervision apply
/// to the run as a whole.
///
/// Returns the report, whose `total_duration` includes the space builds,
/// and the partition agents.
#[allow(clippy::too_many_arguments)]
pub fn run_partitioned_with(
    left: &Dataset,
    right: &Dataset,
    initial: &[(Term, Term)],
    truth: &[(Term, Term)],
    cfg: &PartitionedConfig,
    mut source: impl FnMut(usize, &HashSet<(u32, u32)>) -> Box<dyn FeedbackSource>,
    durability: Option<Durability<'_>>,
    supervisor: Option<&mut Supervisor>,
) -> Result<(RunReport, Vec<Agent>), String> {
    assert!(cfg.partitions > 0, "at least one partition");
    let run_span = span("improve_partitioned");
    let n = cfg.partitions;

    // One preparation for every partition: the spaces share its indexes
    // and prepared values, and each keeps its `id % n` slice of the blocked
    // candidates. Partitions build one after another, each spread over the
    // `space_build` pool.
    let spaces: Vec<LinkSpace> = {
        let _s = span("build_spaces");
        let sides = PreparedSides::new(left, right, &cfg.space.blocking);
        (0..n)
            .map(|i| {
                let space_cfg = SpaceConfig {
                    partition: Some((i, n)),
                    ..cfg.space.clone()
                };
                LinkSpace::from_prepared(&sides, &space_cfg)
            })
            .collect()
    };

    // Global id mapping (identical in every partition's space).
    let (left_index, right_index) = (spaces[0].left_index(), spaces[0].right_index());
    let to_ids = |pairs: &[(Term, Term)]| -> Vec<(u32, u32)> {
        pairs
            .iter()
            .filter_map(|&(l, r)| Some((left_index.id(l)?, right_index.id(r)?)))
            .collect()
    };
    let initial_ids = to_ids(initial);
    let truth_ids: HashSet<(u32, u32)> = to_ids(truth).into_iter().collect();

    let mut agents: Vec<Agent> = spaces
        .into_iter()
        .enumerate()
        .map(|(i, space)| {
            let local_initial: Vec<(u32, u32)> = initial_ids
                .iter()
                .copied()
                .filter(|&(l, _)| l as usize % n == i)
                .collect();
            let alex_cfg = AlexConfig {
                seed: cfg.alex.seed.wrapping_add(i as u64),
                ..cfg.alex.clone()
            };
            Agent::new(space, &local_initial, alex_cfg)
        })
        .collect();
    let mut sources: Vec<Box<dyn FeedbackSource>> = (0..n).map(|i| source(i, &truth_ids)).collect();
    let parts = agents
        .iter_mut()
        .zip(&mut sources)
        .map(|(agent, source)| Partition {
            agent,
            source: source.as_mut(),
        })
        .collect();
    let mut report = driver::run_partitions(parts, &truth_ids, durability, supervisor)?;
    report.total_duration = run_span.elapsed();
    Ok((report, agents))
}

/// The union of the agents' candidate links as `(left term, right term)`
/// pairs, sorted.
pub fn final_links(agents: &[Agent]) -> Vec<(Term, Term)> {
    let mut links: Vec<(Term, Term)> = agents
        .iter()
        .flat_map(|a| a.candidates().iter().map(|id| a.space().pair_terms(id)))
        .collect();
    links.sort();
    links.dedup();
    links
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn datasets() -> (Dataset, Dataset, Vec<(Term, Term)>) {
        let mut left = Dataset::new("L");
        let mut right = Dataset::new("R");
        let names = [
            "Alpha Aardvark",
            "Beta Bison",
            "Gamma Gazelle",
            "Delta Dingo",
            "Epsilon Eagle",
            "Zeta Zebra",
            "Eta Egret",
            "Theta Tapir",
            "Iota Ibis",
            "Kappa Koala",
            "Lambda Lemur",
            "Mu Marmot",
        ];
        for (i, name) in names.iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            left.add_str(&format!("http://l/{i}"), "http://l/type", "animal");
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
            right.add_str(&format!("http://r/{i}"), "http://r/class", "animal");
        }
        let li = left.entity_index();
        let ri = right.entity_index();
        let mut truth = Vec::new();
        for i in 0..names.len() {
            let lt = left
                .interner()
                .get(&format!("http://l/{i}"))
                .map(Term::Iri)
                .unwrap();
            let rt = right
                .interner()
                .get(&format!("http://r/{i}"))
                .map(Term::Iri)
                .unwrap();
            assert!(li.id(lt).is_some() && ri.id(rt).is_some());
            truth.push((lt, rt));
        }
        (left, right, truth)
    }

    #[test]
    fn partitioned_run_improves_quality() {
        let (left, right, truth) = datasets();
        let initial: Vec<(Term, Term)> = truth.iter().copied().take(3).collect();
        let cfg = PartitionedConfig {
            partitions: 3,
            alex: AlexConfig {
                episode_size: 60,
                max_episodes: 25,
                ..AlexConfig::default()
            },
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg);
        assert!(run.initial_quality.recall < 0.5);
        assert!(
            run.final_quality().recall > run.initial_quality.recall,
            "{:?} -> {:?}",
            run.initial_quality,
            run.final_quality()
        );
        assert_eq!(run.per_partition.len(), 3);
    }

    #[test]
    fn single_partition_equals_plain_structure() {
        let (left, right, truth) = datasets();
        let initial: Vec<(Term, Term)> = truth.iter().copied().take(4).collect();
        let cfg = PartitionedConfig {
            partitions: 1,
            alex: AlexConfig {
                episode_size: 40,
                max_episodes: 10,
                ..AlexConfig::default()
            },
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg);
        assert_eq!(run.per_partition.len(), 1);
        assert!((run.initial_quality.precision - 1.0).abs() < 1e-12);
    }

    #[test]
    fn durations_are_tracked() {
        let (left, right, truth) = datasets();
        let initial: Vec<(Term, Term)> = truth.clone();
        let cfg = PartitionedConfig {
            partitions: 2,
            alex: AlexConfig {
                episode_size: 20,
                max_episodes: 3,
                ..AlexConfig::default()
            },
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg);
        assert!(run.slowest_partition >= run.mean_partition);
        assert!(run.total_duration >= run.slowest_partition);
    }

    #[test]
    fn empty_initial_links_stop_without_feedback() {
        let (left, right, truth) = datasets();
        let cfg = PartitionedConfig {
            partitions: 2,
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &[], &truth, &cfg);
        assert_eq!(run.stop, StopReason::NoFeedback);
    }
}
