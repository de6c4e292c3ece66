//! The host-speed probe that steadies the end-to-end times.
//!
//! The benchmark's reference host is a 2-vCPU guest whose neighbours slow
//! it by up to 1.6 times for minutes at a stretch; CPU time slows with wall
//! time, so the `alex` processes execute slower rather than wait. A run of
//! `--seconds` lies inside one such stretch, so neither more samples nor
//! medians steady it. The probe is a fixed job of the same kind as the
//! workloads (allocation, sorting, hashing) on `THREADS` threads, written
//! with the standard library alone so that no change to the program moves
//! it. Timed right before and after each sample, it tells how fast the host
//! ran then, and the computing share of a sample's times is scaled by
//! `REFERENCE_S` over the mean of the two probes (`Sample::scale`): they
//! read as seconds on the reference host at rest.
//!
//! On the reference host, over three sets of ten seeds, the largest
//! quartile spread of the per-run `wall_s` medians among the four workloads
//! was 20.4% to 21.5% unscaled and 10.9% to 15.3% scaled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::workloads::THREADS;

/// The probe's time on the reference host while no neighbour was busy.
pub const REFERENCE_S: f64 = 0.014;

/// Chunks of work in one probe, handed to whichever thread is free, as the
/// program's pools hand out theirs: a neighbour that slows one vCPU slows
/// the probe by the share of throughput it takes, not by its own factor.
const CHUNKS: usize = 20;

/// How long each thread runs untimed chunks first. A vCPU that sat idle
/// comes back slow: a probe after 1.5 s of 1 ms sleeps took 1.27 times as
/// long as one after 1.5 s of spinning without a warm-up, and 1.01 times
/// with this one. Probes right after `query_loop` samples still read about
/// 1.5 times slower than after the other workloads' samples, for a reason
/// this warm-up does not remove.
const WARM_UP: Duration = Duration::from_millis(10);

/// Values one chunk sorts; a tenth of them are also hashed.
const VALUES: u64 = 40_000;

/// Time one probe: from the moment every thread has warmed up to the end of
/// the last chunk.
pub fn probe() -> Duration {
    let warmed = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let warming = Instant::now();
                    while warming.elapsed() < WARM_UP {
                        chunk();
                    }
                    warmed.fetch_add(1, Ordering::SeqCst);
                    while warmed.load(Ordering::SeqCst) < THREADS {
                        std::hint::spin_loop();
                    }
                    let start = Instant::now();
                    while next.fetch_add(1, Ordering::Relaxed) < CHUNKS {
                        chunk();
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a probe thread panicked"))
            .collect()
    });
    let start = spans
        .iter()
        .map(|s| s.0)
        .min()
        .expect("the probe has threads");
    let end = spans
        .iter()
        .map(|s| s.1)
        .max()
        .expect("the probe has threads");
    end - start
}

fn chunk() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut values: Vec<u64> = (0..VALUES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for v in values.iter().step_by(10) {
        *counts.entry(format!("k{}", v % 10_000)).or_default() += 1;
    }
    std::hint::black_box((values, counts));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe() > Duration::ZERO);
    }
}
