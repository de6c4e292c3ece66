//! The durable state-directory abstraction: journal + snapshots behind one
//! [`Store`] trait, plus torn-tail-tolerant [`Recovery`].
//!
//! A state directory holds exactly two kinds of files:
//!
//! ```text
//! <dir>/journal.log            append-only episode records (see journal.rs)
//! <dir>/snap-<seq>.bin         full-state snapshots (see snapshot.rs)
//! ```
//!
//! Each journal record carries a `u64` episode sequence number ahead of the
//! caller's opaque payload, so recovery can drop records already covered by
//! the newest snapshot. That makes the snapshot → journal-reset ordering
//! crash-safe without any coordination: if the process dies after the
//! snapshot rename but before the journal truncation, the stale records are
//! filtered by sequence number on the next open.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::codec::{ByteReader, ByteWriter};
use crate::journal::Journal;
use crate::snapshot;

/// Journal file name inside a state directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// How many snapshot generations to keep (newest + one fallback).
const KEEP_SNAPSHOTS: usize = 2;

/// A durability failure surfaced to the caller — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io {
        /// The operation that failed (e.g. "fsync journal").
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error, stringified.
        message: String,
    },
    /// Data on disk failed validation (bad magic, CRC, length, version).
    Corrupt {
        /// What was found corrupt.
        what: String,
    },
    /// A simulated crash from [`crate::FaultyStore`]. Tests treat this as
    /// process death: drop the store and re-open the directory.
    InjectedCrash {
        /// The operation during which the crash was injected.
        op: &'static str,
    },
}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: &Path, err: &std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.to_path_buf(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "store i/o failure: {op} ({}): {message}", path.display())
            }
            StoreError::Corrupt { what } => write!(f, "store corruption: {what}"),
            StoreError::InjectedCrash { op } => {
                write!(f, "injected crash during {op} (fault plan)")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// The write side of durable state: one record per committed episode plus
/// periodic full snapshots. Implemented by [`DirectStore`] (production) and
/// [`crate::FaultyStore`] (seeded fault injection for tests).
pub trait Store {
    /// Durably append the record for episode `seq`. When this returns
    /// `Ok`, the episode survives a crash.
    fn append_episode(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError>;

    /// Durably write a full snapshot at sequence `seq` and retire the
    /// journal records it covers.
    fn write_snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError>;

    /// The state directory this store writes to.
    fn dir(&self) -> &Path;
}

/// Everything recovered from a state directory on open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Newest valid snapshot, as `(seq, payload)`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Valid journal records newer than the snapshot, in append order, as
    /// `(seq, payload)`.
    pub journal_tail: Vec<(u64, Vec<u8>)>,
    /// Torn/corrupt journal records dropped (the file was truncated at the
    /// first bad one).
    pub truncated_records: u64,
    /// Snapshot files present but invalid and skipped over.
    pub skipped_snapshots: u64,
}

impl Recovery {
    /// True when the directory held no usable prior state.
    pub fn is_fresh(&self) -> bool {
        self.snapshot.is_none() && self.journal_tail.is_empty()
    }

    /// The highest episode sequence number recovered, if any.
    pub fn last_seq(&self) -> Option<u64> {
        let tail_max = self.journal_tail.iter().map(|(seq, _)| *seq).max();
        match (self.snapshot.as_ref().map(|(seq, _)| *seq), tail_max) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0).max(b.unwrap_or(0))),
        }
    }

    /// Whether anything abnormal (truncation, skipped snapshots) was
    /// repaired during recovery.
    pub fn repaired(&self) -> bool {
        self.truncated_records > 0 || self.skipped_snapshots > 0
    }
}

/// Encode the store-level episode record: `[u64 seq][payload]`.
pub(crate) fn encode_episode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(seq);
    let mut buf = w.finish();
    buf.extend_from_slice(payload);
    buf
}

/// The production [`Store`]: the state directory's open journal handle
/// and its snapshot files.
#[derive(Debug)]
pub struct DirectStore {
    dir: PathBuf,
    journal: Journal,
}

impl DirectStore {
    /// Open (creating if absent) a state directory, recovering any prior
    /// state: load the newest valid snapshot, scan + truncate the journal,
    /// and return the journal records past the snapshot.
    pub fn open(dir: &Path) -> Result<(DirectStore, Recovery), StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create state dir", dir, &e))?;

        let (snap, skipped_snapshots) = snapshot::load_latest(dir)?;
        let (journal, scan) = Journal::open(&dir.join(JOURNAL_FILE))?;

        let snap_seq = snap.as_ref().map(|s| s.seq);
        let mut truncated = scan.truncated_records;
        let mut tail = Vec::new();
        for record in scan.records {
            let mut r = ByteReader::new(&record);
            match r.u64("episode seq") {
                Ok(seq) => {
                    // Records at or below the snapshot seq are redundant:
                    // the snapshot already contains their effects.
                    if snap_seq.is_none_or(|s| seq > s) {
                        tail.push((seq, record[r.position()..].to_vec()));
                    }
                }
                // CRC passed but the record is too short for its header:
                // format drift or a stray write. Drop it like a torn one.
                Err(_) => truncated += 1,
            }
        }

        Ok((
            DirectStore {
                dir: dir.to_path_buf(),
                journal,
            },
            Recovery {
                snapshot: snap.map(|s| (s.seq, s.payload)),
                journal_tail: tail,
                truncated_records: truncated,
                skipped_snapshots,
            },
        ))
    }

    /// Write a snapshot crash-safely, then retire the journal records it
    /// covers and prune old snapshot generations. Ordering is the crash-
    /// consistency invariant: the snapshot is durable *before* the journal
    /// reset, so a crash between the two merely leaves redundant records.
    /// With `crash_between_rename` the rename never happens and the write
    /// reports an injected crash.
    pub(crate) fn write_snapshot_inner(
        &mut self,
        seq: u64,
        payload: &[u8],
        crash_between_rename: bool,
    ) -> Result<(), StoreError> {
        snapshot::write(&self.dir, seq, payload, crash_between_rename)?;
        if crash_between_rename {
            return Err(StoreError::InjectedCrash {
                op: "snapshot rename",
            });
        }
        self.journal.reset()?;
        snapshot::prune(&self.dir, KEEP_SNAPSHOTS)?;
        Ok(())
    }

    pub(crate) fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }
}

impl Store for DirectStore {
    fn append_episode(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.journal.append(&encode_episode(seq, payload))
    }

    fn write_snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.write_snapshot_inner(seq, payload, false)
    }

    fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alex-store-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_dir_then_episodes_then_reopen() {
        let dir = tmpdir("fresh");
        {
            let (mut store, recovery) = DirectStore::open(&dir).unwrap();
            assert!(recovery.is_fresh());
            store.append_episode(1, b"ep1").unwrap();
            store.append_episode(2, b"ep2").unwrap();
        }
        let (_, recovery) = DirectStore::open(&dir).unwrap();
        assert!(!recovery.is_fresh());
        assert!(recovery.snapshot.is_none());
        assert_eq!(
            recovery.journal_tail,
            vec![(1, b"ep1".to_vec()), (2, b"ep2".to_vec())]
        );
        assert_eq!(recovery.last_seq(), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_retires_journal_records() {
        let dir = tmpdir("retire");
        {
            let (mut store, _) = DirectStore::open(&dir).unwrap();
            store.append_episode(1, b"ep1").unwrap();
            store.append_episode(2, b"ep2").unwrap();
            store.write_snapshot(2, b"full state at 2").unwrap();
            store.append_episode(3, b"ep3").unwrap();
        }
        let (_, recovery) = DirectStore::open(&dir).unwrap();
        assert_eq!(recovery.snapshot, Some((2, b"full state at 2".to_vec())));
        assert_eq!(recovery.journal_tail, vec![(3, b"ep3".to_vec())]);
        assert_eq!(recovery.last_seq(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_journal_records_below_snapshot_are_filtered() {
        // Simulate a crash after the snapshot rename but before the journal
        // reset: write records, snapshot via the raw snapshot module (so the
        // journal is NOT reset), and confirm recovery filters by seq.
        let dir = tmpdir("stale");
        {
            let (mut store, _) = DirectStore::open(&dir).unwrap();
            store.append_episode(1, b"ep1").unwrap();
            store.append_episode(2, b"ep2").unwrap();
        }
        snapshot::write(&dir, 2, b"state at 2", false).unwrap();
        let (_, recovery) = DirectStore::open(&dir).unwrap();
        assert_eq!(recovery.snapshot, Some((2, b"state at 2".to_vec())));
        assert!(
            recovery.journal_tail.is_empty(),
            "{:?}",
            recovery.journal_tail
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tail_is_counted_and_dropped() {
        let dir = tmpdir("torn");
        {
            let (mut store, _) = DirectStore::open(&dir).unwrap();
            store.append_episode(1, b"ep1").unwrap();
            store.append_episode(2, b"ep2").unwrap();
        }
        let journal = dir.join(JOURNAL_FILE);
        let len = std::fs::metadata(&journal).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);

        let (_, recovery) = DirectStore::open(&dir).unwrap();
        assert_eq!(recovery.journal_tail, vec![(1, b"ep1".to_vec())]);
        assert_eq!(recovery.truncated_records, 1);
        assert!(recovery.repaired());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let err = StoreError::Io {
            op: "fsync journal",
            path: PathBuf::from("/x/journal.log"),
            message: "disk on fire".to_string(),
        };
        let s = err.to_string();
        assert!(s.contains("fsync journal") && s.contains("journal.log"));
        let c = StoreError::Corrupt {
            what: "snapshot checksum mismatch".to_string(),
        }
        .to_string();
        assert!(c.contains("checksum"));
        let i = StoreError::InjectedCrash { op: "append" }.to_string();
        assert!(i.contains("injected"));
    }
}
