//! # alex-store — crash-safe durable state
//!
//! ALEX's value is *accumulated*: the Monte-Carlo value function, the
//! blacklist, and the evolving `owl:sameAs` candidate set are built up over
//! hundreds of feedback episodes. This crate makes that state survive
//! crashes with two complementary on-disk structures:
//!
//! * an **append-only episode journal** ([`Journal`]) of length-prefixed,
//!   CRC-32-checksummed records — one per committed episode — that is
//!   cheap to write on the hot path, and
//! * periodic **full snapshots** ([`snapshot`]) in a versioned binary
//!   format, written with the classic write-to-temp → fsync → atomic-rename
//!   dance so a crash can never destroy the previous good snapshot.
//!
//! Recovery ([`DirectStore::open`]) loads the newest *valid* snapshot and
//! replays the journal records past it, **truncating** the journal at the
//! first torn or corrupt record instead of failing — a half-written tail is
//! the expected outcome of a crash, not an error. What the payload bytes
//! *mean* is the caller's business: this crate moves opaque payloads
//! durably and detects corruption; `alex-core` owns the domain encoding.
//!
//! Robustness is proven, not assumed: [`fault::FaultyStore`] mirrors the
//! federation layer's `FaultyEndpoint` and injects the seeded torn writes,
//! bit-flips, dropped fsyncs, and crash-between-rename of an
//! `alex_fault::FaultPlan` into every write path so tests can drive
//! recovery over every failure mode.
//!
//! The crate is pure std (its one dependency, `alex-fault`, is too),
//! `forbid(unsafe_code)`, and —
//! like the federation fault path — bans panicking call sites: a disk
//! problem must surface as a typed [`StoreError`], never a crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
pub mod crc;
pub mod fault;
pub mod journal;
pub mod snapshot;
mod store;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use fault::FaultyStore;
pub use journal::{Journal, JournalScan};
pub use store::{DirectStore, Recovery, Store, StoreError};
