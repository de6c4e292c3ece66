//! # alex-sparql — SPARQL subset engine with federation and link provenance
//!
//! ALEX sits behind a federated query system (Fig. 1): users query multiple
//! linked data sets, and feedback on an *answer* is interpreted as feedback
//! on the *links* that produced it. That requires a query layer which (a)
//! evaluates across data sets, (b) bridges entities through `owl:sameAs`
//! links, and (c) reports, per answer, exactly which links were used. This
//! crate provides all three:
//!
//! * [`parse`] — a hand-written parser for the SPARQL subset (`PREFIX`,
//!   `SELECT [DISTINCT]`, BGPs, `FILTER`, `LIMIT`);
//! * [`FederatedEngine`] — FedX-style source selection, variable-counting
//!   join ordering, and bound joins over [`Endpoint`]s;
//! * [`SameAsLinks`] — the mutable link index ALEX edits;
//! * [`QueryAnswer`] — bindings plus the [`Link`]s used (provenance).
//!
//! ```
//! use alex_rdf::Dataset;
//! use alex_sparql::{parse, DatasetEndpoint, FederatedEngine, SameAsLinks};
//!
//! let mut db = Dataset::new("DBpedia");
//! db.add_str("http://db/LeBron", "http://db/award", "NBA MVP 2013");
//! let mut nyt = Dataset::new("NYTimes");
//! nyt.add_iri("http://nyt/a1", "http://nyt/about", "http://nyt/lebron");
//!
//! let mut engine = FederatedEngine::new();
//! engine.add_endpoint(Box::new(DatasetEndpoint::new(db)));
//! engine.add_endpoint(Box::new(DatasetEndpoint::new(nyt)));
//! engine.set_links(SameAsLinks::from_pairs(vec![("http://db/LeBron", "http://nyt/lebron")]));
//!
//! let q = parse("SELECT ?article WHERE { \
//!     ?who <http://db/award> \"NBA MVP 2013\" . \
//!     ?article <http://nyt/about> ?who }").unwrap();
//! let answers = engine.execute(&q).unwrap();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].links_used.len(), 1); // provenance for feedback
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod expr;
pub mod federation;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ast::{
    CmpOp, Expr, Operand, OrderKey, Query, QueryKind, Selection, TermPattern, TriplePattern,
    WhereElement,
};
pub use error::{Result, SparqlError};
pub use expr::{eval_expr, Bindings};
pub use federation::{
    rewrite_sameas, BreakerConfig, BreakerState, Catalog, CatalogParseError, Completeness,
    Coverage, DatasetEndpoint, Deadline, Endpoint, EndpointError, FaultProfile, FaultyEndpoint,
    FederatedEngine, FederatedResult, Link, Probe, QueryAnswer, ResilienceConfig, RetryPolicy,
    RewrittenQuery, Rows, SameAsLinks,
};
pub use parser::parse;
pub use value::Value;
