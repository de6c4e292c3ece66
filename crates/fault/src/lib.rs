//! # alex-fault — one seeded fault plan for every injector
//!
//! Federated endpoints (`alex_sparql::FaultyEndpoint`), pool chunks
//! (`alex_parallel::chaos`) and the durable store
//! (`alex_store::FaultyStore`) all read one [`FaultPlan`], parsed by one
//! `key=value` grammar ([`FaultPlan::parse`]), and decide every fault with
//! one pure [`draw`] over the plan's seed, a [`key`] naming the event by
//! its content (a probe's endpoint, pattern and send count; a chunk's
//! global id; a write's sequence number) and the fault's salt ([`Fault`]).
//! A fault never moves onto another event because something unrelated
//! happened first, and one seed splits cleanly across the domains.
//! An empty spec is an error; `seed=N` alone is the explicit no-op.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use std::time::Duration;

/// The injector a spec key belongs to; [`FaultPlan::parse_for`] rejects
/// the keys of the other domains. `seed` belongs to all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Federated endpoints (`alex_sparql::FaultyEndpoint`).
    Federation,
    /// Pool chunks (`alex_parallel::chaos`).
    Pool,
    /// The durable store (`alex_store::FaultyStore`).
    Store,
}

/// One drawn fault kind; its discriminant is the salt of its draw. The
/// pool's salts 1–3 predate this crate, so chunk fates are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A chunk panics at entry.
    Panic = 1,
    /// A chunk stalls for `slow`.
    Slow = 2,
    /// A chunk spikes `alloc_mb` of resident memory.
    Alloc = 3,
    /// A probe fails transiently.
    Transient = 4,
    /// A probe's reply is cut short.
    Truncate = 5,
    /// A journal append lands only a prefix of its record.
    TornWrite = 6,
    /// A journal append lands with one bit flipped.
    BitFlip = 7,
    /// A journal append skips its fsync.
    DroppedFsync = 8,
    /// A snapshot's temp file never gets renamed into place.
    CrashBetweenRename = 9,
}

/// A seeded fault plan: every rate, window and size the three injectors
/// read, each after its spec key. [`Default`] injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// `seed`: the seed of every draw.
    pub seed: u64,
    /// `transient`: probability that one send of a probe fails.
    pub transient_rate: f64,
    /// `truncate`: probability that one send of a probe is cut short.
    pub truncate_rate: f64,
    /// `latency-ms`: latency added to every endpoint request.
    pub latency: Duration,
    /// `outage=start..end`: the half-open window of call indices during
    /// which an endpoint is hard-down (`start..` means forever).
    pub outage: Option<(u64, u64)>,
    /// `panic-at-chunk`: global chunk ids that panic (`+`-separated,
    /// repeatable; sorted and deduplicated).
    pub panic_at: Vec<u64>,
    /// `panic-rate`: per-chunk probability of a panic.
    pub panic_rate: f64,
    /// `slow-rate`: per-chunk probability of a stall.
    pub slow_rate: f64,
    /// `slow-ms`: a stall's length (default 1 ms).
    pub slow: Duration,
    /// `alloc-rate`: per-chunk probability of an allocation spike.
    pub alloc_rate: f64,
    /// `alloc-mb`: a spike's size (default 8 MB).
    pub alloc_mb: usize,
    /// `torn-write`: probability that a journal append lands only a
    /// prefix of its record, a simulated crash.
    pub torn_write_rate: f64,
    /// `bit-flip`: probability that a journal append lands with one bit
    /// flipped, a silent corruption.
    pub bit_flip_rate: f64,
    /// `dropped-fsync`: probability that a journal append skips its fsync.
    pub dropped_fsync_rate: f64,
    /// `crash-between-rename`: probability that a snapshot write crashes
    /// after its temp file is durable but before the rename.
    pub crash_between_rename_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            truncate_rate: 0.0,
            latency: Duration::ZERO,
            outage: None,
            panic_at: Vec::new(),
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow: Duration::from_millis(1),
            alloc_rate: 0.0,
            alloc_mb: 8,
            torn_write_rate: 0.0,
            bit_flip_rate: 0.0,
            dropped_fsync_rate: 0.0,
            crash_between_rename_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// Parse a spec holding the keys of any domain.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse_keys(spec, None)
    }

    /// Parse a spec that may hold only `seed` and the keys of `domain`.
    pub fn parse_for(spec: &str, domain: Domain) -> Result<FaultPlan, String> {
        FaultPlan::parse_keys(spec, Some(domain))
    }

    fn parse_keys(spec: &str, only: Option<Domain>) -> Result<FaultPlan, String> {
        if spec.trim().is_empty() {
            return Err("fault plan: empty spec (seed=N injects nothing)".into());
        }
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            plan.entry(part, only)
                .map_err(|e| format!("fault plan: {e}"))?;
        }
        plan.panic_at.sort_unstable();
        plan.panic_at.dedup();
        Ok(plan)
    }

    /// Apply one `key=value` entry if `only` (all domains when `None`)
    /// reads its key.
    fn entry(&mut self, part: &str, only: Option<Domain>) -> Result<(), String> {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
        let (key, value) = (key.trim(), value.trim());
        match (only, KEYS.iter().find(|k| k.0 == key)) {
            (_, None) if key != "seed" => Err(format!("unknown key {key:?}")),
            (Some(want), Some(&(_, got))) if want != got => {
                Err(format!("{key} is a {got:?} key, not a {want:?} one"))
            }
            _ => self
                .set(key, value)
                .map_err(|want| format!("{key} wants {want}, got {value:?}")),
        }
    }

    /// Set the known `key` from `value`, or say what the value should be.
    fn set(&mut self, key: &str, value: &str) -> Result<(), &'static str> {
        let num = || value.parse::<u64>().map_err(|_| "an unsigned integer");
        let ms = || num().map(Duration::from_millis);
        let rate = || {
            let rate = value.parse().ok().filter(|r| (0.0..=1.0).contains(r));
            rate.ok_or("a rate in [0, 1]")
        };
        match key {
            "seed" => self.seed = num()?,
            "transient" => self.transient_rate = rate()?,
            "truncate" => self.truncate_rate = rate()?,
            "latency-ms" => self.latency = ms()?,
            "outage" => self.outage = Some(window(value)?),
            "panic-at-chunk" => self.panic_at.extend(chunk_ids(value)?),
            "panic-rate" => self.panic_rate = rate()?,
            "slow-rate" => self.slow_rate = rate()?,
            "slow-ms" => self.slow = ms()?,
            "alloc-rate" => self.alloc_rate = rate()?,
            "alloc-mb" => self.alloc_mb = value.parse().map_err(|_| "an unsigned integer")?,
            "torn-write" => self.torn_write_rate = rate()?,
            "bit-flip" => self.bit_flip_rate = rate()?,
            "dropped-fsync" => self.dropped_fsync_rate = rate()?,
            "crash-between-rename" => self.crash_between_rename_rate = rate()?,
            _ => return Err("a known key"),
        }
        Ok(())
    }

    /// The plan's probability of `fault`.
    pub fn rate(&self, fault: Fault) -> f64 {
        match fault {
            Fault::Panic => self.panic_rate,
            Fault::Slow => self.slow_rate,
            Fault::Alloc => self.alloc_rate,
            Fault::Transient => self.transient_rate,
            Fault::Truncate => self.truncate_rate,
            Fault::TornWrite => self.torn_write_rate,
            Fault::BitFlip => self.bit_flip_rate,
            Fault::DroppedFsync => self.dropped_fsync_rate,
            Fault::CrashBetweenRename => self.crash_between_rename_rate,
        }
    }

    /// Whether `fault` strikes the event named `key`. A zero rate never
    /// fires (and costs no draw).
    pub fn fires(&self, fault: Fault, key: u64) -> bool {
        let rate = self.rate(fault);
        rate > 0.0 && draw(self.seed, key, fault as u64) < rate
    }

    /// Where in `[0, n)` a fault that struck `key` lands (a torn record's
    /// cut, a flipped bit); independent of whether it struck.
    pub fn position(&self, fault: Fault, key: u64, n: usize) -> usize {
        let at = draw(self.seed, key, !(fault as u64)) * n as f64;
        (at as usize).min(n.saturating_sub(1))
    }
}

/// Every key but `seed`, with the domain that reads it.
const KEYS: [(&str, Domain); 14] = [
    ("transient", Domain::Federation),
    ("truncate", Domain::Federation),
    ("latency-ms", Domain::Federation),
    ("outage", Domain::Federation),
    ("panic-at-chunk", Domain::Pool),
    ("panic-rate", Domain::Pool),
    ("slow-rate", Domain::Pool),
    ("slow-ms", Domain::Pool),
    ("alloc-rate", Domain::Pool),
    ("alloc-mb", Domain::Pool),
    ("torn-write", Domain::Store),
    ("bit-flip", Domain::Store),
    ("dropped-fsync", Domain::Store),
    ("crash-between-rename", Domain::Store),
];

/// `start..end` (or `start..` for forever), with `end > start`.
fn window(value: &str) -> Result<(u64, u64), &'static str> {
    const WANT: &str = "a call window start..end with end > start";
    let (start, end) = value.split_once("..").ok_or(WANT)?;
    let start: u64 = start.trim().parse().map_err(|_| WANT)?;
    let end = match end.trim() {
        "" => u64::MAX,
        end => end.parse().map_err(|_| WANT)?,
    };
    if end > start {
        Ok((start, end))
    } else {
        Err(WANT)
    }
}

fn chunk_ids(value: &str) -> Result<Vec<u64>, &'static str> {
    value
        .split('+')
        .map(|id| id.trim().parse().map_err(|_| "+-separated chunk ids"))
        .collect()
}

/// The content key of one event: FNV-1a over length-prefixed parts, so
/// `["ab", "c"]` and `["a", "bc"]` differ.
pub fn key(parts: &[&[u8]]) -> u64 {
    let fold = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
    parts.iter().fold(0xCBF2_9CE4_8422_2325, |h, part| {
        let h = (part.len() as u64).to_le_bytes().iter().fold(h, fold);
        part.iter().fold(h, fold)
    })
}

/// Uniform draw in `[0, 1)` from `(seed, key, salt)`: a splitmix64
/// finalizer over the mixed key, so every event's fate is independent and
/// reproducible without shared RNG state.
pub fn draw(seed: u64, key: u64, salt: u64) -> f64 {
    let mut x =
        seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD134_2543_DE82_EF95);
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
    use Domain::*;

    #[test]
    fn one_grammar_parses_every_domain_and_rejects_bad_specs() {
        let full = "seed=7, transient=0.3, truncate=0.1, latency-ms=5, outage=100..200, \
                    panic-at-chunk=17+3, panic-at-chunk=3, panic-rate=0.01, slow-rate=0.5, \
                    slow-ms=2, alloc-rate=0.25, alloc-mb=16, torn-write=0.2, bit-flip=0.3, \
                    dropped-fsync=0.4, crash-between-rename=0.5";
        let want = FaultPlan {
            seed: 7,
            transient_rate: 0.3,
            truncate_rate: 0.1,
            latency: Duration::from_millis(5),
            outage: Some((100, 200)),
            panic_at: vec![3, 17],
            panic_rate: 0.01,
            slow_rate: 0.5,
            slow: Duration::from_millis(2),
            alloc_rate: 0.25,
            alloc_mb: 16,
            torn_write_rate: 0.2,
            bit_flip_rate: 0.3,
            dropped_fsync_rate: 0.4,
            crash_between_rename_rate: 0.5,
        };
        assert_eq!(FaultPlan::parse(full), Ok(want));
        let open = FaultPlan::parse_for("outage=10..", Federation).unwrap();
        assert_eq!(open.outage, Some((10, u64::MAX)));
        let seed_only = FaultPlan::parse_for("seed=3", Pool).unwrap();
        assert_eq!(
            seed_only,
            FaultPlan {
                seed: 3,
                ..FaultPlan::default()
            }
        );

        // (spec, domain the flag reads or `None` for all, error fragment)
        let cases: [(&str, Option<Domain>, &str); 14] = [
            ("", None, "empty spec (seed=N injects nothing)"),
            (" ", Some(Pool), "empty spec"),
            ("seed", None, "expected key=value, got \"seed\""),
            ("bogus=1", Some(Store), "unknown key \"bogus\""),
            (
                "transient=1.5",
                None,
                "transient wants a rate in [0, 1], got \"1.5\"",
            ),
            ("slow-rate=-0.1", None, "slow-rate wants a rate in [0, 1]"),
            ("bit-flip=x", None, "bit-flip wants a rate in [0, 1]"),
            (
                "latency-ms=abc",
                None,
                "latency-ms wants an unsigned integer",
            ),
            (
                "outage=5..2",
                None,
                "outage wants a call window start..end with end > start",
            ),
            (
                "panic-at-chunk=x",
                None,
                "panic-at-chunk wants +-separated chunk ids",
            ),
            (
                "panic-rate=0.1",
                Some(Federation),
                "panic-rate is a Pool key, not a Federation one",
            ),
            (
                "transient=0.1",
                Some(Pool),
                "transient is a Federation key, not a Pool one",
            ),
            (
                "torn-write=0.1",
                Some(Pool),
                "torn-write is a Store key, not a Pool one",
            ),
            (
                "slow-ms=1",
                Some(Store),
                "slow-ms is a Pool key, not a Store one",
            ),
        ];
        for (spec, domain, fragment) in cases {
            let got = match domain {
                Some(domain) => FaultPlan::parse_for(spec, domain),
                None => FaultPlan::parse(spec),
            };
            let err = got.unwrap_err();
            assert!(
                err.starts_with("fault plan: ") && err.contains(fragment),
                "{spec:?}: {err}"
            );
        }
    }

    #[test]
    fn draws_are_deterministic_salted_and_roughly_uniform() {
        let hits = |seed, salt| {
            (0..10_000u64)
                .filter(|&k| draw(seed, k, salt) < 0.1)
                .count()
        };
        assert_eq!(hits(42, 1), hits(42, 1));
        assert!(
            (500..2000).contains(&hits(42, 1)),
            "rate 0.1 drew {}",
            hits(42, 1)
        );
        let fates = |salt| {
            (0..64u64)
                .map(|k| draw(42, k, salt) < 0.5)
                .collect::<Vec<_>>()
        };
        assert_ne!(
            fates(Fault::Transient as u64),
            fates(Fault::Truncate as u64)
        );
        assert_ne!(key(&[b"ab", b"c"]), key(&[b"a", b"bc"]));
        let plan = FaultPlan {
            seed: 1,
            panic_rate: 1.0,
            ..FaultPlan::default()
        };
        assert!(plan.fires(Fault::Panic, 12345) && !plan.fires(Fault::Slow, 12345));
    }
}
