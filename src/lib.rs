//! # alex — Automatic Link Exploration in Linked Data
//!
//! A comprehensive Rust reproduction of *ALEX: Automatic Link Exploration in
//! Linked Data* (El-Roby & Aboulnaga): a system that improves the quality of
//! `owl:sameAs` links between RDF data sets using feedback users provide on
//! the answers to federated queries, driven by first-visit Monte-Carlo
//! reinforcement learning with an ε-greedy policy.
//!
//! This facade re-exports the full stack:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`rdf`] (`alex-rdf`) | RDF terms, indexed triple store, N-Triples I/O |
//! | [`sim`] (`alex-sim`) | Typed similarity functions |
//! | [`sparql`] (`alex-sparql`) | SPARQL subset + federation with link provenance |
//! | [`linking`] (`alex-linking`) | PARIS-like automatic linker + baseline |
//! | [`core`] (`alex-core`) | ALEX itself: the RL link-exploration agent |
//! | [`datagen`] (`alex-datagen`) | Deterministic synthetic LOD analogues |
//! | [`telemetry`] (`alex-telemetry`) | Spans, metrics registry, structured event log |
//! | [`parallel`] (`alex-parallel`) | Deterministic scoped worker pool (order-preserving reduction) |
//! | [`store`] (`alex-store`) | Crash-safe durable state: episode journal + checksummed snapshots |
//! | [`cache`] (`alex-cache`) | Sharded LRU answer cache, one entry per endpoint probe |
//! | [`guard`] (`alex-guard`) | Run supervision: wall-clock/RSS budgets, breach policy, degraded episodes |
//! | [`fault`] (`alex-fault`) | One seeded fault plan and content-keyed draw for every fault injector |
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the experiment harness that regenerates every table and figure of the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use alex_cache as cache;
pub use alex_core as core;
pub use alex_datagen as datagen;
pub use alex_fault as fault;
pub use alex_guard as guard;
pub use alex_linking as linking;
pub use alex_parallel as parallel;
pub use alex_rdf as rdf;
pub use alex_sim as sim;
pub use alex_sparql as sparql;
pub use alex_store as store;
pub use alex_telemetry as telemetry;

pub use alex_core::{
    Agent, AlexConfig, Feedback, FeedbackBridge, LinkSpace, OracleFeedback, PairId, Quality,
    SpaceConfig,
};
pub use alex_linking::Paris;
pub use alex_rdf::Dataset;
pub use alex_sparql::{parse, DatasetEndpoint, FederatedEngine, SameAsLinks};
