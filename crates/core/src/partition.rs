//! Equal-size partitioning: the setup of a batch-mode run (§6.2).
//!
//! The larger (left) data set is split round-robin — "the i-th entity is in
//! partition i mod n" — and feature sets are generated between each
//! partition and the whole smaller data set, all from one shared
//! preparation of both sides ([`PreparedSides`]) and one table of value-pair
//! scores ([`LinkSpace::partitions`]). Each partition gets its
//! own agent and feedback source; the shared episode loop
//! ([`driver::run_partitions`]) then splits every episode's feedback budget
//! across them and aggregates their metrics over the union of their
//! candidate sets.

use std::collections::HashSet;

use alex_datagen::{assign_roles, AdversaryProfile};
use alex_guard::Supervisor;
use alex_rdf::{Dataset, Term};
use alex_telemetry::span;

use crate::adversary::AdversarialPopulation;
use crate::agent::Agent;
use crate::config::AlexConfig;
use crate::driver::{self, Durability, Partition, RunReport};
use crate::feedback::{FeedbackSource, OracleFeedback};
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
            partitions: Judges::Oracle.default_partitions(),
            alex: AlexConfig::default(),
            space: SpaceConfig::default(),
            feedback_error_rate: 0.0,
        }
    }
}

/// Who judges each partition's links (Appendix C). The judges alone set
/// the feedback seeds and the default partition count; durability,
/// budgets, the trust gate and telemetry only observe a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Judges {
    /// One seeded, optionally noisy oracle per partition, partition i's
    /// seeded `seed + 1000 + i` (its agent's is `seed + i`); 4 partitions.
    Oracle,
    /// One [`AdversarialPopulation`] per partition, partition i's seeded
    /// `seed + i`; 1 partition.
    Population {
        /// Attributed sources in each population.
        sources: usize,
        /// The seeded adversary mix among them, if any.
        profile: Option<AdversaryProfile>,
    },
}

impl Judges {
    /// A population when there is more than one source or any adversary;
    /// the plain oracle otherwise (attribution matters only past one source).
    pub fn new(sources: usize, profile: Option<AdversaryProfile>) -> Judges {
        match sources > 1 || profile.is_some() {
            true => Judges::Population { sources, profile },
            false => Judges::Oracle,
        }
    }

    /// The partition count of a run that names none.
    pub fn default_partitions(&self) -> usize {
        match self {
            Judges::Oracle => 4,
            Judges::Population { .. } => 1,
        }
    }

    /// Partition i's feedback source over `truth`, with
    /// `cfg.feedback_error_rate` noise, seeded from `cfg.alex.seed`.
    pub fn source(
        &self,
        i: usize,
        truth: &HashSet<(u32, u32)>,
        cfg: &PartitionedConfig,
    ) -> Box<dyn FeedbackSource> {
        let (truth, error_rate) = (truth.clone(), cfg.feedback_error_rate);
        let seed = cfg.alex.seed.wrapping_add(i as u64);
        match *self {
            Judges::Oracle => {
                let seed = seed.wrapping_add(1000);
                Box::new(OracleFeedback::with_error_rate(truth, error_rate, seed))
            }
            Judges::Population { sources, profile } => {
                let roles = assign_roles(profile.as_ref(), sources, seed);
                Box::new(AdversarialPopulation::new(truth, roles, error_rate, seed))
            }
        }
    }
}

/// The result of a partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// The run's report; its `total_duration` includes the space builds.
    pub report: RunReport,
    /// The union of the partitions' final candidate links, as
    /// `(left term, right term)` pairs — the improved link set a caller
    /// exports.
    pub final_links: Vec<(Term, Term)>,
}

/// Run ALEX over `cfg.partitions` equal-size partitions, each judged by
/// its [`Judges::Oracle`] source.
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
    let oracle =
        |i, _: &LinkSpace, truth: &HashSet<(u32, u32)>| Judges::Oracle.source(i, truth, cfg);
    match run_partitioned_with(left, right, initial, truth, cfg, oracle, None, None) {
        Ok((report, agents)) => PartitionedRun {
            report,
            final_links: final_links(&agents),
        },
        // Without durability there is no I/O and no recovery: nothing in
        // the loop can fail.
        Err(e) => unreachable!("non-durable run cannot fail: {e}"),
    }
}

/// Build the partitions of a run and drive them through
/// [`driver::run_partitions`]: one [`PreparedSides`] and
/// [`LinkSpace::partitions`], partition i's space keeping the left entities
/// with `id % n == i`, its agent starting from its slice of `initial` with
/// seed `cfg.alex.seed + i`, and its feedback source made by
/// `source(i, partition i's space, truth ids)` (with oracle feedback,
/// [`Judges::source`]). Durability and supervision apply to the run as a
/// whole and change neither seeds nor sources. This is the one place a run
/// is built: the CLI's improve, in either feedback mode, and
/// [`run_partitioned`] come through here.
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
    mut source: impl FnMut(usize, &LinkSpace, &HashSet<(u32, u32)>) -> Box<dyn FeedbackSource>,
    durability: Option<Durability<'_>>,
    supervisor: Option<&mut Supervisor>,
) -> Result<(RunReport, Vec<Agent>), String> {
    assert!(cfg.partitions > 0, "at least one partition");
    let run_span = span("improve_partitioned");
    let n = cfg.partitions;

    // One preparation and one value-pair score table for every partition:
    // the spaces share its indexes and prepared values, and each keeps its
    // `id % n` slice of the blocked candidates. Partitions assemble one
    // after another, each spread over the `space_build` pool.
    let spaces: Vec<LinkSpace> = {
        let _s = span("build_spaces");
        let sides = PreparedSides::new(left, right, &cfg.space.blocking);
        LinkSpace::partitions(&sides, &cfg.space, n)
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
    let mut sources: Vec<Box<dyn FeedbackSource>> = agents
        .iter()
        .enumerate()
        .map(|(i, agent)| source(i, agent.space(), &truth_ids))
        .collect();
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

    /// The twelve animals and their diagonal ground truth as terms.
    fn datasets() -> (Dataset, Dataset, Vec<(Term, Term)>) {
        let (left, right) = crate::fixtures::animals(12);
        let iri = |ds: &Dataset, side: &str, i: usize| {
            Term::Iri(ds.interner().get(&format!("http://{side}/{i}")).unwrap())
        };
        let truth = (0..12)
            .map(|i| (iri(&left, "l", i), iri(&right, "r", i)))
            .collect();
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
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg).report;
        assert!(run.initial_quality.recall < 0.5);
        assert!(
            run.final_quality().recall > run.initial_quality.recall,
            "{:?} -> {:?}",
            run.initial_quality,
            run.final_quality()
        );
        assert_eq!(run.partitions.len(), 3);
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
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg).report;
        assert_eq!(run.partitions.len(), 1);
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
        let run = run_partitioned(&left, &right, &initial, &truth, &cfg).report;
        assert!(run.slowest_partition() >= run.mean_partition());
        assert!(run.total_duration >= run.slowest_partition());
    }

    #[test]
    fn empty_initial_links_stop_without_feedback() {
        let (left, right, truth) = datasets();
        let cfg = PartitionedConfig {
            partitions: 2,
            ..PartitionedConfig::default()
        };
        let run = run_partitioned(&left, &right, &[], &truth, &cfg);
        assert_eq!(run.report.stop, crate::driver::StopReason::NoFeedback);
    }
}
