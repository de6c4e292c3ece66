//! # alex-datagen — deterministic synthetic linked data
//!
//! The paper evaluates on real LOD dumps (DBpedia, OpenCyc, NYTimes,
//! Drugbank, Lexvo, Semantic Web Dogfood, and NBA subsets — Table 1). This
//! crate generates scaled synthetic analogues with the two properties ALEX's
//! dynamics actually depend on (see `DESIGN.md` §3):
//!
//! 1. **Feature-score geometry** — true pairs cluster in narrow per-feature
//!    similarity bands (corrupted names stay > 0.75 similar) while the bulk
//!    of distractor pairs falls below the θ filter, *and* every domain has a
//!    non-distinctive `type` feature that scores 1.0 for all same-domain
//!    pairs (the paper's `rdf:type` trap, §4.2).
//! 2. **Controllable starting regimes** — [`sample_initial_links`] pins the
//!    initial candidate set's precision/recall to the paper's reported
//!    per-pair values.
//!
//! Everything is seeded: the same configuration always yields byte-identical
//! data sets, so every figure is replayable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod corrupt;
pub mod federation;
pub mod generator;
pub mod identity;
pub mod initial_links;
pub mod names;
pub mod profile;
pub mod schema;

pub use adversary::{assign_roles, AdversaryKind, AdversaryProfile, SourceRole};
pub use federation::{federation_scenario, FederationConfig, FederationScenario, HopQuery};
pub use generator::{generate_pair, GeneratedPair, PairConfig, SideConfig};
pub use identity::{CanonValue, Domain, FieldKey, Identity};
pub use initial_links::{sample_initial_links, score_links, InitialLinksSpec};
pub use profile::{all_pairs, DatasetKind, PairSpec};
pub use schema::{Flavor, SideSchema};
