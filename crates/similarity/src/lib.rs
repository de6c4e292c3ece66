//! # alex-sim — typed similarity functions
//!
//! Feature values in ALEX are similarity scores in [0, 1] between the values
//! of two attributes (§4.1). This crate provides:
//!
//! * string measures — normalized Levenshtein, Jaro / Jaro-Winkler, token
//!   Jaccard, Monge-Elkan — over a shared normalization pipeline;
//! * numeric, date, year, and boolean measures;
//! * [`TypedValue`] classification of RDF terms (by datatype, or by sniffing
//!   untyped literals);
//! * the combined, type-dispatched entry points [`value_similarity`] and
//!   [`term_similarity`] used to build similarity matrices.
//!
//! Every measure is symmetric, returns 1.0 on equal inputs, and stays within
//! [0, 1] (property-tested in `tests/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combined;
pub mod date;
pub mod numeric;
pub mod prepared;
pub mod string;
pub mod value;

pub use combined::{term_similarity, value_similarity};
pub use date::{date_similarity, date_year_similarity, year_similarity};
pub use numeric::{boolean_similarity, relative_numeric, scaled_numeric};
pub use prepared::{
    jaccard_ids, prepared_similarity, prepared_similarity_with, PreparedText, PreparedValue,
    TokenInterner,
};
pub use string::{
    jaccard_tokens, jaro, jaro_winkler, levenshtein, levenshtein_dp, levenshtein_similarity,
    monge_elkan_by, monge_elkan_jw, myers_levenshtein, normalize, string_similarity,
    token_similarity, TokenPattern, TokenSignature, SLICE_MAX,
};
pub use value::{iri_local_name, sniff, typed_value, Date, TypedValue};
