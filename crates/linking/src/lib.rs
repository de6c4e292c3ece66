//! # alex-linking — automatic linking substrate
//!
//! ALEX starts from candidate links "obtained using any automatic linking
//! algorithm" (§1); the paper uses PARIS \[21\]. This crate provides:
//!
//! * [`blocking`] — token blocking for sub-quadratic candidate generation;
//! * [`Paris`] — a simplified but faithful PARIS re-implementation:
//!   functionality-weighted noisy-or evidence with iterative relation
//!   alignment and holistic IRI-object propagation;
//! * [`LabelBaseline`] — a naive best-label-similarity linker, the strawman
//!   PARIS is compared against;
//! * [`LinkSet`] / [`LinkerOutput`] — scored links plus the entity indexes
//!   that give the dense ids meaning;
//! * [`values`] and [`scores`] — every entity's interned, prepared
//!   attribute values and the θ-sparse value-pair score table that PARIS,
//!   the baseline and ALEX's link space all read their similarities from.
//!
//! ```
//! use alex_rdf::Dataset;
//! use alex_linking::Paris;
//!
//! let mut left = Dataset::new("L");
//! let mut right = Dataset::new("R");
//! for (i, name) in ["LeBron James", "Michael Jordan", "Tim Duncan"].iter().enumerate() {
//!     left.add_str(&format!("http://l/{i}"), "http://l/label", name);
//!     right.add_str(&format!("http://r/{i}"), "http://r/name", name);
//! }
//! let out = Paris::new().link(&left, &right);
//! assert_eq!(out.links.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod blocking;
pub mod candidates;
pub mod paris;
pub mod scores;
pub mod values;

pub use baseline::LabelBaseline;
pub use blocking::{candidate_pairs, BlockingConfig};
pub use candidates::{LinkSet, LinkerOutput, ScoredLink};
pub use paris::{AlignmentConfig, Functionality, Paris, ParisConfig};
