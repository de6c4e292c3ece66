//! # alex-core — ALEX: Automatic Link Exploration in Linked Data
//!
//! The paper's contribution: improving `owl:sameAs` link quality between two
//! RDF data sets from user feedback on federated-query answers, using
//! first-visit Monte-Carlo reinforcement learning with an ε-greedy policy
//! (El-Roby & Aboulnaga).
//!
//! ## The model (§3–§4)
//!
//! * **State** — a link between two entities, represented by its *feature
//!   set*: for each attribute of the larger-arity entity, the best-matching
//!   attribute of the other and their similarity score ([`space::LinkSpace`],
//!   [`simmatrix`]).
//! * **Action** — choosing one feature to *explore around*: every pair in
//!   the (θ-filtered) link space whose score for that feature falls within
//!   ±step of the state's score becomes a candidate link.
//! * **Reward** — user feedback: positive on approval, negative on
//!   rejection; returns credited to the generating state-action chain by
//!   first-visit Monte Carlo ([`value_fn::ActionValue`]).
//! * **Policy** — stochastic ε-greedy, improved episode-by-episode
//!   ([`policy::Policy`], Algorithm 1).
//!
//! ## Optimizations (§6)
//!
//! θ-filtering of the link space, equal-size partitioning with a parallel
//! driver ([`partition`]), the [`blacklist::Blacklist`], and
//! [`provenance`]-based rollback.
//!
//! ## One run surface
//!
//! Every run — batch or interactive, oracle or query-answer feedback,
//! durable, trust-gated or supervised — is built by
//! [`partition::run_partitioned_with`], driven by the one episode loop
//! [`driver::run_partitions`], and described by one [`RunReport`].
//! With oracle feedback, the run's [`Judges`] alone decide each partition's
//! source, its seed and the default partition count; durability, budgets,
//! the trust gate and telemetry only observe. [`run_partitioned`] is that
//! builder with [`Judges::Oracle`]; [`driver::run`] and
//! [`driver::run_durable`] are single-partition spellings of the loop for
//! the e2e benchmark harness, tests and examples.
//!
//! ## Quick start
//!
//! ```
//! use alex_core::{run_partitioned, AlexConfig, PartitionedConfig};
//! use alex_rdf::{Dataset, Term};
//!
//! let mut left = Dataset::new("L");
//! let mut right = Dataset::new("R");
//! for (i, name) in ["Alpha Aardvark", "Beta Bison", "Gamma Gazelle"].iter().enumerate() {
//!     left.add_str(&format!("http://l/{i}"), "http://l/label", name);
//!     right.add_str(&format!("http://r/{i}"), "http://r/name", name);
//! }
//! let iri = |ds: &Dataset, side: &str, i: usize| {
//!     Term::Iri(ds.interner().get(&format!("http://{side}/{i}")).expect("interned"))
//! };
//! let truth: Vec<(Term, Term)> = (0..3).map(|i| (iri(&left, "l", i), iri(&right, "r", i))).collect();
//!
//! // Start from one known link; ALEX discovers the rest from feedback.
//! let cfg = PartitionedConfig {
//!     partitions: 1,
//!     alex: AlexConfig { episode_size: 20, ..AlexConfig::default() },
//!     ..PartitionedConfig::default()
//! };
//! let run = run_partitioned(&left, &right, &truth[..1], &truth, &cfg);
//! assert!(run.report.final_quality().recall >= run.report.initial_quality.recall);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod adversary;
pub mod agent;
pub mod blacklist;
pub mod bridge;
pub mod candidates;
pub mod config;
pub mod driver;
pub mod feature;
pub mod feedback;
pub mod metrics;
mod pairmap;
pub mod partition;
pub mod persist;
pub mod policy;
pub mod provenance;
pub mod query_feedback;
pub mod simmatrix;
pub mod space;
pub mod trust_gate;
pub mod value_fn;

/// The interned attribute values every scorer reads, from `alex-linking`.
pub use alex_linking::values;

pub use adversary::AdversarialPopulation;
pub use agent::{Agent, EpisodeSummary, StepOutcome};
pub use blacklist::Blacklist;
pub use bridge::FeedbackBridge;
pub use candidates::CandidateSet;
pub use config::AlexConfig;
pub use driver::{
    run, run_durable, run_partitions, Durability, Partition, PartitionTrace, RunReport, StopReason,
};
pub use feature::{FeatureCatalog, FeatureId, FeaturePair, FeatureSet};
pub use feedback::{Feedback, FeedbackItem, FeedbackSource, OracleFeedback};
pub use metrics::{EpisodeReport, Quality};
pub use partition::{
    final_links, run_partitioned, run_partitioned_with, Judges, PartitionedConfig, PartitionedRun,
};
pub use persist::{AgentState, EpisodeRecord, PartitionRecord, PartitionSnapshot, RunSnapshot};
pub use policy::Policy;
pub use provenance::{Provenance, StateAction};
pub use query_feedback::{workload_from_links, QueryFeedback};
pub use space::{LinkSpace, PairId, PreparedSides, SpaceConfig};
pub use trust_gate::{AdmissionRecord, TrustGate};
pub use value_fn::ActionValue;

pub use alex_trust::{SourceId, TrustConfig};

#[cfg(test)]
pub(crate) mod fixtures {
    use alex_rdf::Dataset;

    /// The first `n` (at most 12) animals: left `http://l/{i}` and right
    /// `http://r/{i}` share an exact-match name and a non-distinctive type
    /// attribute, so the ground truth is the diagonal.
    pub(crate) fn animals(n: usize) -> (Dataset, Dataset) {
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
        let (mut left, mut right) = (Dataset::new("L"), Dataset::new("R"));
        for (i, name) in names[..n].iter().enumerate() {
            left.add_str(&format!("http://l/{i}"), "http://l/label", name);
            left.add_str(&format!("http://l/{i}"), "http://l/type", "animal");
            right.add_str(&format!("http://r/{i}"), "http://r/name", name);
            right.add_str(&format!("http://r/{i}"), "http://r/class", "animal");
        }
        (left, right)
    }
}
