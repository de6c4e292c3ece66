//! FedX-style federated query processing with sameAs provenance, hardened
//! against unreliable sources (fault injection, retries, circuit breakers,
//! and partial-answer degradation).
//!
//! Panicking call sites are banned throughout this module tree (enforced
//! below via `clippy::unwrap_used` / `clippy::expect_used`): an endpoint
//! failure must degrade or surface as a typed error, never crash the loop.

#[deny(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod cache;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod catalog;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod endpoint;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod executor;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod fault;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod links;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod resilience;

pub use cache::CacheStats;
pub use catalog::Catalog;
pub use endpoint::{DatasetEndpoint, Endpoint, Probe, Rows};
pub use executor::{FederatedEngine, FederatedResult, QueryAnswer};
pub use fault::{FaultProfile, FaultyEndpoint};
pub use links::{Link, SameAsLinks};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, Completeness, Deadline, EndpointError,
    ResilienceConfig, RetryPolicy,
};
