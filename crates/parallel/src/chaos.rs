//! Seeded chaos injection for pool chunks.
//!
//! The supervisor layer (`alex-guard`) has to be provable, not just
//! plausible: the composed-chaos suite needs a way to make *any* chunk of
//! *any* dispatch panic, stall, or spike its allocations, deterministically,
//! so the quarantine-retry path and the budget probes can be exercised on
//! demand. This module is that switchboard.
//!
//! A [`ChaosProfile`] is installed process-wide ([`install`]); every pool
//! dispatch then reserves a contiguous block of *global chunk ids*
//! ([`reserve`]) — dispatches are issued sequentially from the driving
//! thread, so the id assigned to "chunk `c` of the `k`-th dispatch" is the
//! same at every thread count and on every run. Injection decisions are
//! pure functions of `(seed, chunk id)` (a splitmix64 finalizer, no shared
//! RNG), so a chaos run is exactly reproducible.
//!
//! Injection fires at chunk *entry*, before the job closure runs. An
//! injected panic therefore never leaves a half-executed job behind: the
//! quarantine retry runs the closure exactly once, which is the heart of
//! the byte-identity argument even for closures with interior state
//! (endpoint call counters).
//!
//! Profile grammar (modelled on `FaultProfile::parse` in the federation
//! layer): comma-separated `key=value` pairs —
//! `seed=7,panic-at-chunk=3+17,panic-rate=0.01,slow-rate=0.05,slow-ms=2,alloc-rate=0.01,alloc-mb=8`.
//! `panic-at-chunk` takes `+`-separated global chunk ids and may be
//! repeated; the rates are per-chunk probabilities in `[0, 1]`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::lock_unpoisoned;

/// A seeded chunk-level fault plan: which chunks panic, stall, or spike.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Seed mixed into every per-chunk draw.
    pub seed: u64,
    /// Global chunk ids that panic unconditionally (`panic-at-chunk`).
    pub panic_at: Vec<u64>,
    /// Per-chunk probability of an injected panic (`panic-rate`).
    pub panic_rate: f64,
    /// Per-chunk probability of an injected stall (`slow-rate`).
    pub slow_rate: f64,
    /// Stall duration for slow chunks (`slow-ms`).
    pub slow: Duration,
    /// Per-chunk probability of an allocation spike (`alloc-rate`).
    pub alloc_rate: f64,
    /// Size of the transient allocation for spiking chunks (`alloc-mb`).
    pub alloc_mb: usize,
}

impl Default for ChaosProfile {
    fn default() -> ChaosProfile {
        ChaosProfile {
            seed: 0,
            panic_at: Vec::new(),
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow: Duration::from_millis(1),
            alloc_rate: 0.0,
            alloc_mb: 8,
        }
    }
}

impl ChaosProfile {
    /// Parse the `--chaos-profile` grammar. Empty input is an error; a
    /// profile with no panic/slow/alloc terms is valid (it injects
    /// nothing) so flags like `seed=1` alone can be smoke-tested.
    pub fn parse(spec: &str) -> Result<ChaosProfile, String> {
        let mut profile = ChaosProfile::default();
        if spec.trim().is_empty() {
            return Err("chaos profile: empty spec".into());
        }
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos profile: expected key=value, got {part:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => profile.seed = parse_num(key, value)?,
                "panic-at-chunk" => {
                    for id in value.split('+') {
                        profile
                            .panic_at
                            .push(parse_num("panic-at-chunk", id.trim())?);
                    }
                }
                "panic-rate" => profile.panic_rate = parse_rate(key, value)?,
                "slow-rate" => profile.slow_rate = parse_rate(key, value)?,
                "slow-ms" => profile.slow = Duration::from_millis(parse_num(key, value)?),
                "alloc-rate" => profile.alloc_rate = parse_rate(key, value)?,
                "alloc-mb" => profile.alloc_mb = parse_num::<usize>(key, value)?,
                other => return Err(format!("chaos profile: unknown key {other:?}")),
            }
        }
        profile.panic_at.sort_unstable();
        profile.panic_at.dedup();
        Ok(profile)
    }

    /// Whether chunk `id` panics under this profile.
    pub fn panics_at(&self, id: u64) -> bool {
        self.panic_at.binary_search(&id).is_ok()
            || draw(self.seed, id, SALT_PANIC) < self.panic_rate
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("chaos profile: bad number for {key}: {value:?}"))
}

fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = parse_num(key, value)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "chaos profile: {key} must be in [0, 1], got {value}"
        ));
    }
    Ok(rate)
}

/// Fast-path gate: one relaxed load when chaos is not installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Next global chunk id to hand out; reset by [`install`].
static NEXT_CHUNK: AtomicU64 = AtomicU64::new(0);
/// The installed profile. Locked once per *dispatch* (cloned into the
/// dispatch), never per chunk.
static PROFILE: Mutex<Option<ChaosProfile>> = Mutex::new(None);

/// Install a chaos profile process-wide and reset the global chunk-id
/// counter, so chunk ids are reproducible from this point.
pub fn install(profile: ChaosProfile) {
    let mut slot = lock_unpoisoned(&PROFILE);
    NEXT_CHUNK.store(0, Ordering::SeqCst);
    *slot = Some(profile);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove any installed profile; pools go back to zero-cost dispatch.
pub fn clear() {
    let mut slot = lock_unpoisoned(&PROFILE);
    ENABLED.store(false, Ordering::SeqCst);
    *slot = None;
}

/// Whether a chaos profile is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reserve `n_chunks` consecutive global chunk ids for one dispatch.
/// Returns the base id plus a copy of the profile, or `None` when chaos
/// is off. Called by the pool once per dispatch, on the dispatching
/// thread, so id assignment is deterministic.
pub(crate) fn reserve(n_chunks: usize) -> Option<(u64, ChaosProfile)> {
    if !enabled() {
        return None;
    }
    let profile = lock_unpoisoned(&PROFILE).clone()?;
    let base = NEXT_CHUNK.fetch_add(n_chunks as u64, Ordering::SeqCst);
    Some((base, profile))
}

const SALT_PANIC: u64 = 1;
const SALT_SLOW: u64 = 2;
const SALT_ALLOC: u64 = 3;

/// Fire the profile's injections for global chunk `id`. Stalls and spikes
/// happen first (they model a misbehaving-but-correct job); the panic, if
/// drawn, fires last and *before the job closure runs* — see the module
/// docs for why that ordering is what makes quarantine retry exact.
pub(crate) fn inject(profile: &ChaosProfile, id: u64) {
    if profile.slow_rate > 0.0 && draw(profile.seed, id, SALT_SLOW) < profile.slow_rate {
        std::thread::sleep(profile.slow);
    }
    if profile.alloc_rate > 0.0 && draw(profile.seed, id, SALT_ALLOC) < profile.alloc_rate {
        // A transient spike the RSS watermark probe can see: touch every
        // page so the allocation is actually resident, then drop it.
        let mut spike = vec![0u8; profile.alloc_mb * 1024 * 1024];
        for page in spike.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&spike);
    }
    if profile.panics_at(id) {
        panic!("chaos: injected panic at chunk {id}");
    }
}

/// Uniform draw in `[0, 1)` from `(seed, id, salt)` — a splitmix64
/// finalizer over the mixed key, so every chunk's fate is independent and
/// reproducible without shared RNG state.
fn draw(seed: u64, id: u64, salt: u64) -> f64 {
    let mut x =
        seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD134_2543_DE82_EF95);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let p = ChaosProfile::parse(
            "seed=7, panic-at-chunk=17+3, panic-rate=0.01, slow-rate=0.5, slow-ms=2, \
             alloc-rate=0.25, alloc-mb=16",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.panic_at, vec![3, 17]);
        assert_eq!(p.panic_rate, 0.01);
        assert_eq!(p.slow_rate, 0.5);
        assert_eq!(p.slow, Duration::from_millis(2));
        assert_eq!(p.alloc_rate, 0.25);
        assert_eq!(p.alloc_mb, 16);
    }

    #[test]
    fn parse_repeated_panic_at_accumulates_and_dedups() {
        let p = ChaosProfile::parse("panic-at-chunk=5,panic-at-chunk=2+5").unwrap();
        assert_eq!(p.panic_at, vec![2, 5]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ChaosProfile::parse("").is_err());
        assert!(ChaosProfile::parse("panic-rate=1.5").is_err());
        assert!(ChaosProfile::parse("slow-rate=-0.1").is_err());
        assert!(ChaosProfile::parse("panic-at-chunk=x").is_err());
        assert!(ChaosProfile::parse("bogus=1").is_err());
        assert!(ChaosProfile::parse("noequals").is_err());
        assert!(ChaosProfile::parse("seed=3").is_ok());
    }

    #[test]
    fn draws_are_deterministic_and_roughly_uniform() {
        let hits = (0..10_000u64)
            .filter(|&id| draw(42, id, SALT_PANIC) < 0.1)
            .count();
        assert_eq!(
            hits,
            (0..10_000u64)
                .filter(|&id| draw(42, id, SALT_PANIC) < 0.1)
                .count()
        );
        assert!((500..2000).contains(&hits), "rate 0.1 over 10k drew {hits}");
    }

    #[test]
    fn panics_at_honours_explicit_ids_and_rate() {
        let p = ChaosProfile::parse("panic-at-chunk=9").unwrap();
        assert!(p.panics_at(9));
        assert!(!p.panics_at(10));
        let p = ChaosProfile::parse("seed=1,panic-rate=1").unwrap();
        assert!(p.panics_at(0) && p.panics_at(12345));
    }
}
