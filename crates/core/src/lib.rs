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
//! ## Quick start
//!
//! ```
//! use alex_core::{Agent, AlexConfig, LinkSpace, OracleFeedback, SpaceConfig, driver};
//! use alex_rdf::Dataset;
//! use std::collections::HashSet;
//!
//! let mut left = Dataset::new("L");
//! let mut right = Dataset::new("R");
//! for (i, name) in ["Alpha Aardvark", "Beta Bison", "Gamma Gazelle"].iter().enumerate() {
//!     left.add_str(&format!("http://l/{i}"), "http://l/label", name);
//!     right.add_str(&format!("http://r/{i}"), "http://r/name", name);
//! }
//! let space = LinkSpace::build(&left, &right, &SpaceConfig::default());
//! let truth: HashSet<(u32, u32)> = (0..3).map(|i| (i, i)).collect();
//!
//! // Start from one known link; ALEX discovers the rest from feedback.
//! let mut agent = Agent::new(space, &[(0, 0)], AlexConfig { episode_size: 20, ..AlexConfig::default() });
//! let mut oracle = OracleFeedback::new(truth.clone(), 7);
//! let report = driver::run(&mut agent, &mut oracle, &truth);
//! assert!(report.final_quality().recall >= report.initial_quality.recall);
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
pub mod partition;
pub mod persist;
pub mod policy;
pub mod provenance;
pub mod query_feedback;
pub mod simmatrix;
pub mod space;
pub mod trust_gate;
pub mod users;
pub mod value_fn;
pub mod values;

pub use adversary::AdversarialPopulation;
pub use agent::{Agent, EpisodeSummary, StepOutcome};
pub use blacklist::Blacklist;
pub use bridge::FeedbackBridge;
pub use candidates::CandidateSet;
pub use config::AlexConfig;
pub use driver::{
    run, run_durable, run_durable_supervised, run_partitions, run_supervised, Durability,
    Partition, PartitionTrace, RunReport, StopReason,
};
pub use feature::{FeatureCatalog, FeatureId, FeaturePair, FeatureSet};
pub use feedback::{Feedback, FeedbackItem, FeedbackSource, OracleFeedback};
pub use metrics::{EpisodeReport, Quality};
pub use partition::{
    final_links, run_partitioned, run_partitioned_with, PartitionedConfig, PartitionedRun,
};
pub use persist::{
    AgentState, EpisodeRecord, EpisodeStats, PartitionRecord, PartitionSnapshot, RunSnapshot,
};
pub use policy::Policy;
pub use provenance::{Provenance, StateAction};
pub use query_feedback::{workload_from_links, workload_requiring_links, QueryFeedback};
pub use space::{LinkSpace, PairId, PreparedSides, SpaceConfig};
pub use trust_gate::{AdmissionRecord, TrustGate};
pub use users::{UserPopulation, UserProfile};
pub use value_fn::ActionValue;

pub use alex_trust::{SourceId, TrustConfig};
