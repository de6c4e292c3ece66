//! Deterministic fault injection for the durability layer.
//!
//! [`FaultyStore`] wraps a state directory and injects the store faults of
//! a [`FaultPlan`] into every write path, mirroring the federation layer's
//! `FaultyEndpoint`. Each fault is drawn from the plan's seed and the
//! write's sequence number (episode or snapshot), so a given write meets
//! the same fate on every run, whatever was written before it. Four
//! failure modes cover the crash model the recovery path must survive:
//!
//! * **torn write** — only a prefix of a journal record reaches disk
//!   before the "crash" (surfaced as [`StoreError::InjectedCrash`]);
//! * **bit flip** — a record lands complete but with one bit corrupted
//!   (silent at write time; recovery's CRC must catch it);
//! * **dropped fsync** — the write skips its fsync (data survives an
//!   ordinary process crash but not power loss; exercises the path);
//! * **crash between rename** — a snapshot temp file is durable but the
//!   atomic rename never happens, so the previous snapshot must win.

use std::path::Path;

use alex_fault::{Fault, FaultPlan};

use crate::journal::Journal;
use crate::store::{encode_episode, DirectStore, Recovery, Store, StoreError};

/// A [`Store`] decorator injecting deterministic storage faults.
#[derive(Debug)]
pub struct FaultyStore {
    state: DirectStore,
    plan: FaultPlan,
    injected_crashes: u64,
    injected_corruptions: u64,
}

impl FaultyStore {
    /// Open a state directory (with normal recovery) behind the fault
    /// plan. Recovery itself is never fault-injected: the model is a
    /// crashing *writer*, and the reader's job is to repair what it left.
    pub fn open(dir: &Path, plan: FaultPlan) -> Result<(FaultyStore, Recovery), StoreError> {
        let (state, recovery) = DirectStore::open(dir)?;
        let store = FaultyStore {
            state,
            plan,
            injected_crashes: 0,
            injected_corruptions: 0,
        };
        Ok((store, recovery))
    }

    /// Simulated crashes injected so far.
    pub fn injected_crashes(&self) -> u64 {
        self.injected_crashes
    }

    /// Silent corruptions (bit flips) injected so far.
    pub fn injected_corruptions(&self) -> u64 {
        self.injected_corruptions
    }
}

impl Store for FaultyStore {
    fn append_episode(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let record = encode_episode(seq, payload);
        let mut framed = Journal::frame(&record);
        let journal = self.state.journal_mut();
        if self.plan.fires(Fault::TornWrite, seq) {
            // Crash mid-write: a strict prefix of the framed record lands.
            let cut = 1 + self.plan.position(Fault::TornWrite, seq, framed.len() - 1);
            self.injected_crashes += 1;
            journal.append_raw(&framed[..cut], true)?;
            return Err(StoreError::InjectedCrash {
                op: "journal append",
            });
        }
        if self.plan.fires(Fault::BitFlip, seq) {
            // Silent corruption: the full record lands, one bit wrong.
            let bit = self.plan.position(Fault::BitFlip, seq, framed.len() * 8);
            framed[bit / 8] ^= 1 << (bit % 8);
            self.injected_corruptions += 1;
        }
        journal.append_raw(&framed, !self.plan.fires(Fault::DroppedFsync, seq))
    }

    fn write_snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        if self.plan.fires(Fault::CrashBetweenRename, seq) {
            self.injected_crashes += 1;
            return self.state.write_snapshot_inner(seq, payload, true);
        }
        self.state.write_snapshot(seq, payload)
    }

    fn dir(&self) -> &Path {
        self.state.dir()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alex-store-fault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Open `dir` behind `plan`, let `write` run, then recover it cleanly.
    fn recover_after(tag: &str, plan: FaultPlan, write: impl FnOnce(&mut FaultyStore)) -> Recovery {
        let dir = tmpdir(tag);
        {
            let (mut store, _) = DirectStore::open(&dir).unwrap();
            store.write_snapshot(1, b"good old state").unwrap();
        }
        let (mut store, _) = FaultyStore::open(&dir, plan).unwrap();
        write(&mut store);
        drop(store);
        let (_, recovery) = DirectStore::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        recovery
    }

    #[test]
    fn each_fault_kind_is_caught_or_harmless_on_recovery() {
        let plan = |f: fn(&mut FaultPlan)| {
            let mut plan = FaultPlan::default();
            f(&mut plan);
            plan
        };
        // A torn append surfaces as a crash; recovery drops the record.
        let torn = recover_after("torn", plan(|p| p.torn_write_rate = 1.0), |store| {
            let err = store.append_episode(2, b"doomed").unwrap_err();
            assert!(matches!(err, StoreError::InjectedCrash { .. }));
            assert_eq!(store.injected_crashes(), 1);
        });
        assert!(torn.journal_tail.is_empty());
        assert_eq!(torn.truncated_records, 1);

        // A bit flip is silent at write time; recovery's CRC catches it.
        let flip = recover_after("flip", plan(|p| p.bit_flip_rate = 1.0), |store| {
            store.append_episode(2, b"quietly broken").unwrap();
            assert_eq!(store.injected_corruptions(), 1);
        });
        assert!(flip.journal_tail.is_empty());
        assert_eq!(flip.truncated_records, 1);

        // A crash between rename keeps the previous snapshot.
        let rename = recover_after(
            "rename",
            plan(|p| p.crash_between_rename_rate = 1.0),
            |store| {
                let err = store.write_snapshot(2, b"never lands").unwrap_err();
                assert!(matches!(err, StoreError::InjectedCrash { .. }));
            },
        );
        assert_eq!(rename.snapshot, Some((1, b"good old state".to_vec())));

        // Process-crash model: the page cache survives a dropped fsync, so
        // the record reads back; the injection exercises the no-fsync path.
        let fsync = recover_after("fsync", plan(|p| p.dropped_fsync_rate = 1.0), |store| {
            store.append_episode(2, b"unsynced").unwrap();
        });
        assert_eq!(fsync.journal_tail, vec![(2, b"unsynced".to_vec())]);
    }

    #[test]
    fn a_write_meets_the_same_fate_whatever_was_written_before() {
        let plan = FaultPlan {
            seed: 3,
            bit_flip_rate: 0.5,
            ..FaultPlan::default()
        };
        // Every episode of 1..=16, then only the even ones: each even
        // episode's record must be corrupted (or not) both times.
        let fates = |step: usize| {
            let dir = tmpdir(&format!("fate-{step}"));
            let (mut store, _) = FaultyStore::open(&dir, plan.clone()).unwrap();
            let mut fates = Vec::new();
            for seq in (step as u64..=16).step_by(step) {
                let before = store.injected_corruptions();
                store.append_episode(seq, b"payload").unwrap();
                fates.push((seq, store.injected_corruptions() > before));
            }
            std::fs::remove_dir_all(&dir).unwrap();
            fates.retain(|&(seq, _)| seq % 2 == 0);
            fates
        };
        let all = fates(1);
        assert_eq!(all, fates(2));
        assert!(all.iter().any(|f| f.1) && all.iter().any(|f| !f.1));
    }

    #[test]
    fn writer_survives_many_seeded_faults_and_state_always_recovers() {
        // Chaos loop: for several seeds, drive a writer through mixed
        // faults; after every simulated crash re-open and keep going.
        // Invariant: recovery always returns a valid prefix of the
        // successfully-committed episodes, in order.
        let mut crashes = 0;
        for seed in 0..8u64 {
            let dir = tmpdir(&format!("chaos-{seed}"));
            let plan = FaultPlan {
                seed,
                torn_write_rate: 0.2,
                bit_flip_rate: 0.2,
                dropped_fsync_rate: 0.2,
                crash_between_rename_rate: 0.3,
                ..FaultPlan::default()
            };
            // "Reboot": reopen the directory like a new process; recovered
            // seqs must be in order.
            let reboot = || {
                let (store, recovery) = FaultyStore::open(&dir, plan.clone()).unwrap();
                let seqs: Vec<u64> = recovery
                    .snapshot
                    .iter()
                    .map(|(s, _)| *s)
                    .chain(recovery.journal_tail.iter().map(|(s, _)| *s))
                    .collect();
                assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: out-of-order recovery {seqs:?}"
                );
                store
            };
            let mut committed: Vec<u64> = Vec::new();
            let mut store = reboot();
            for ep in 1..=40u64 {
                let payload = format!("episode-{ep}");
                match store.append_episode(ep, payload.as_bytes()) {
                    Ok(()) => committed.push(ep),
                    Err(StoreError::InjectedCrash { .. }) => {
                        crashes += 1;
                        store = reboot();
                        // Retry after the reboot: the draw is keyed on the
                        // seq, so a torn seq tears again and stays
                        // uncommitted, and the writer reboots once more.
                        match store.append_episode(ep, payload.as_bytes()) {
                            Ok(()) => committed.push(ep),
                            Err(StoreError::InjectedCrash { .. }) => store = reboot(),
                            Err(other) => panic!("seed {seed}: unexpected error {other}"),
                        }
                    }
                    Err(other) => panic!("seed {seed}: unexpected error {other}"),
                }
                if ep % 10 == 0 {
                    let snap_payload = format!("state-through-{ep}");
                    match store.write_snapshot(ep, snap_payload.as_bytes()) {
                        Ok(()) => {}
                        Err(StoreError::InjectedCrash { .. }) => {
                            crashes += 1;
                            store = reboot();
                        }
                        Err(other) => panic!("seed {seed}: unexpected error {other}"),
                    }
                }
            }
            // Final recovery: every surviving record corresponds to a
            // committed episode (bit-flipped ones may be dropped, which is
            // exactly the CRC doing its job).
            drop(store);
            let (_, recovery) = DirectStore::open(&dir).unwrap();
            for (seq, _) in &recovery.journal_tail {
                assert!(committed.contains(seq), "seed {seed}: ghost episode {seq}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(crashes >= 8, "only {crashes} injected crashes");
    }
}
