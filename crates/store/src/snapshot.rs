//! Versioned, checksummed full-state snapshots with atomic replacement.
//!
//! ## On-disk format
//!
//! ```text
//! [8  bytes magic  "ALEXSNAP"]
//! [u32 version (LE)]
//! [u64 sequence number (LE)]
//! [u32 crc32(payload) (LE)]
//! [u64 payload length (LE)]
//! [payload]
//! ```
//!
//! A snapshot `snap-<seq>.bin` is written via the classic crash-safe dance:
//! write the header and then the payload (two writes, no framed copy) to
//! `snap-<seq>.bin.tmp`, `fsync` the file, atomically
//! `rename` it into place, then `fsync` the directory so the rename itself
//! is durable. A crash at any point leaves either the old set of snapshots
//! intact (tmp file ignored on recovery) or the new snapshot fully
//! in place — never a half-visible one.
//!
//! Recovery scans the directory for `snap-*.bin`, validates magic, version,
//! and CRC, and returns the *newest valid* snapshot — a corrupt
//! highest-sequence file (e.g. from a bit-flip) silently falls back to the
//! previous good one.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::store::StoreError;

/// File magic: identifies an ALEX snapshot regardless of extension.
pub const MAGIC: &[u8; 8] = b"ALEXSNAP";

/// Current snapshot format version. Bump on incompatible layout changes;
/// recovery rejects (skips) versions it does not understand.
pub const VERSION: u32 = 1;

/// Fixed header size preceding the payload.
const HEADER: usize = 8 + 4 + 8 + 4 + 8;

/// A successfully decoded snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic sequence number (episode count at capture time).
    pub seq: u64,
    /// Opaque application payload.
    pub payload: Vec<u8>,
}

/// The fixed header that precedes `payload` on disk.
fn header(seq: u64, payload: &[u8]) -> [u8; HEADER] {
    let mut out = [0u8; HEADER];
    out[0..8].copy_from_slice(MAGIC);
    out[8..12].copy_from_slice(&VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&seq.to_le_bytes());
    out[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
    out[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out
}

/// Decode and validate snapshot file bytes (magic, version, CRC, length).
/// The payload keeps the file's buffer: the header is shifted out in place
/// rather than the payload copied.
pub fn decode(mut bytes: Vec<u8>) -> Result<Snapshot, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt {
        what: what.to_string(),
    };
    if bytes.len() < HEADER {
        return Err(corrupt("snapshot shorter than header"));
    }
    if &bytes[0..8] != MAGIC {
        return Err(corrupt("snapshot magic mismatch"));
    }
    let mut u32_raw = [0u8; 4];
    let mut u64_raw = [0u8; 8];
    u32_raw.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(u32_raw);
    if version != VERSION {
        return Err(corrupt("unsupported snapshot version"));
    }
    u64_raw.copy_from_slice(&bytes[12..20]);
    let seq = u64::from_le_bytes(u64_raw);
    u32_raw.copy_from_slice(&bytes[20..24]);
    let crc = u32::from_le_bytes(u32_raw);
    u64_raw.copy_from_slice(&bytes[24..32]);
    let len = u64::from_le_bytes(u64_raw);
    if len != (bytes.len() - HEADER) as u64 {
        return Err(corrupt("snapshot payload length mismatch"));
    }
    if crc32(&bytes[HEADER..]) != crc {
        return Err(corrupt("snapshot checksum mismatch"));
    }
    bytes.drain(..HEADER);
    Ok(Snapshot {
        seq,
        payload: bytes,
    })
}

/// File name for snapshot `seq` (zero-padded so lexical order == numeric).
pub fn file_name(seq: u64) -> String {
    format!("snap-{seq:020}.bin")
}

/// Parse a snapshot file name back into its sequence number.
pub fn parse_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    rest.parse().ok()
}

/// Write snapshot `seq` into `dir` crash-safely:
/// temp file → fsync → atomic rename → directory fsync.
///
/// `crash_between_rename` is the fault-injection hook: when true, the temp
/// file is fsynced but the rename is skipped, simulating a crash at the
/// most dangerous instant. Production callers pass `false`.
pub fn write(
    dir: &Path,
    seq: u64,
    payload: &[u8],
    crash_between_rename: bool,
) -> Result<PathBuf, StoreError> {
    let final_path = dir.join(file_name(seq));
    let tmp_path = dir.join(format!("{}.tmp", file_name(seq)));

    let mut tmp = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp_path)
        .map_err(|e| StoreError::io("create snapshot temp", &tmp_path, &e))?;
    // Header and payload go out as two writes: framing them into one buffer
    // would copy the whole payload.
    tmp.write_all(&header(seq, payload))
        .and_then(|()| tmp.write_all(payload))
        .map_err(|e| StoreError::io("write snapshot temp", &tmp_path, &e))?;
    tmp.sync_all()
        .map_err(|e| StoreError::io("fsync snapshot temp", &tmp_path, &e))?;
    drop(tmp);

    if crash_between_rename {
        // Simulated crash: durable temp file, no visible snapshot.
        return Ok(final_path);
    }

    fs::rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::io("rename snapshot into place", &final_path, &e))?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// fsync a directory so a completed rename survives power loss.
pub fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let d = File::open(dir).map_err(|e| StoreError::io("open dir for fsync", dir, &e))?;
    d.sync_all()
        .map_err(|e| StoreError::io("fsync dir", dir, &e))
}

/// Scan `dir` for the newest valid snapshot.
///
/// Returns the snapshot (if any) plus the number of snapshot files that
/// were present but invalid (corrupt/torn/unsupported) and skipped.
/// Leftover `.tmp` files are removed: they are by definition from an
/// interrupted write.
pub fn load_latest(dir: &Path) -> Result<(Option<Snapshot>, u64), StoreError> {
    let mut names: Vec<String> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read state dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read state dir entry", dir, &e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("snap-") && name.ends_with(".tmp") {
            // Interrupted write; never valid, always safe to discard.
            let _ = fs::remove_file(entry.path());
            continue;
        }
        if parse_file_name(&name).is_some() {
            names.push(name);
        }
    }
    // Zero-padded names: lexical descending == newest first.
    names.sort_unstable_by(|a, b| b.cmp(a));

    let mut skipped = 0u64;
    for name in &names {
        let Ok(bytes) = fs::read(dir.join(name)) else {
            skipped += 1;
            continue;
        };
        match decode(bytes) {
            Ok(snap) => return Ok((Some(snap), skipped)),
            Err(_) => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// Remove snapshots older than `keep_newest` valid generations, returning
/// how many files were deleted. Journal-tail replay only ever needs the
/// newest snapshot; one extra generation is kept as insurance against a
/// corrupt newest file.
pub fn prune(dir: &Path, keep_newest: usize) -> Result<u64, StoreError> {
    let mut names: Vec<String> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read state dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read state dir entry", dir, &e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if parse_file_name(&name).is_some() {
            names.push(name);
        }
    }
    names.sort_unstable_by(|a, b| b.cmp(a));
    let mut removed = 0u64;
    for name in names.iter().skip(keep_newest) {
        if fs::remove_file(dir.join(name)).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alex-store-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_latest_round_trips() {
        let dir = tmpdir("roundtrip");
        write(&dir, 3, b"state at 3", false).unwrap();
        write(&dir, 7, b"state at 7", false).unwrap();
        let (snap, skipped) = load_latest(&dir).unwrap();
        let snap = snap.unwrap();
        assert_eq!(snap.seq, 7);
        assert_eq!(snap.payload, b"state at 7");
        assert_eq!(skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn written_file_is_header_then_payload() {
        let dir = tmpdir("layout");
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let path = write(&dir, 4, &payload, false).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..HEADER], &header(4, &payload));
        assert_eq!(&bytes[HEADER..], payload.as_slice());
        assert_eq!(&bytes[20..24], &crc32(&payload).to_le_bytes());
        let snap = decode(bytes).unwrap();
        assert_eq!((snap.seq, snap.payload), (4, payload));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmpdir("fallback");
        write(&dir, 1, b"old good state", false).unwrap();
        let newest = write(&dir, 2, b"new state", false).unwrap();
        // Flip a payload bit in the newest snapshot.
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();

        let (snap, skipped) = load_latest(&dir).unwrap();
        let snap = snap.unwrap();
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.payload, b"old good state");
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rename_leaves_old_state_visible() {
        let dir = tmpdir("crash-rename");
        write(&dir, 5, b"committed", false).unwrap();
        write(&dir, 6, b"never renamed", true).unwrap(); // simulated crash
        let (snap, skipped) = load_latest(&dir).unwrap();
        assert_eq!(snap.unwrap().seq, 5);
        assert_eq!(skipped, 0);
        // The tmp file was cleaned up by recovery.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "tmp files should be removed: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmpdir("none");
        let (snap, skipped) = load_latest(&dir).unwrap();
        assert!(snap.is_none());
        assert_eq!(skipped, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_and_bad_magic_are_skipped() {
        let dir = tmpdir("badfiles");
        write(&dir, 9, b"good", false).unwrap();
        std::fs::write(dir.join(file_name(10)), b"ALEX").unwrap(); // too short
        std::fs::write(
            dir.join(file_name(11)),
            [header(11, b"x").as_slice(), b"x"]
                .concat()
                .iter()
                .map(|b| b ^ 0xFF)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let (snap, skipped) = load_latest(&dir).unwrap();
        assert_eq!(snap.unwrap().seq, 9);
        assert_eq!(skipped, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest_generations() {
        let dir = tmpdir("prune");
        for seq in 1..=5 {
            write(&dir, seq, b"s", false).unwrap();
        }
        let removed = prune(&dir, 2).unwrap();
        assert_eq!(removed, 3);
        let (snap, _) = load_latest(&dir).unwrap();
        assert_eq!(snap.unwrap().seq, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_name_order_matches_numeric_order() {
        assert!(file_name(2) < file_name(10));
        assert_eq!(parse_file_name(&file_name(123)), Some(123));
        assert_eq!(parse_file_name("snap-xyz.bin"), None);
        assert_eq!(parse_file_name("other.bin"), None);
    }
}
