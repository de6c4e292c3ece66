//! Kernel throughput and the alignment performance gate.
//!
//! Microbenches the bit-parallel Myers Levenshtein against the classic DP,
//! interned Jaccard against the `HashSet` formulation, and the batch
//! scorer against the naive per-call loop. In measure mode (`cargo bench`)
//! it also writes `BENCH_kernels.json` at the repo root and **enforces**
//! the performance gates:
//!
//! * single-thread `paris_align` must be ≥ 3x faster than the PR-7
//!   baseline recorded on this same datagen profile;
//! * at 4 threads, `paris_align` and `space_build` must be ≥ 3x over one
//!   thread — asserted only when `host_cores ≥ 4`, otherwise recorded as
//!   `scaling_gate: "skipped"` with `host_cores` (a 1-core sweep proves
//!   nothing and must say so);
//! * the `paris_functionality` pool's mean chunk time must exceed
//!   dispatch overhead (the chunk-size-floor regression guard).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use alex_core::{LinkSpace, SpaceConfig};
use alex_datagen::{generate_pair, Domain, Flavor, GeneratedPair, PairConfig, SideConfig};
use alex_linking::Paris;
use alex_sim::{
    jaccard_tokens, levenshtein_dp, myers_levenshtein, score_batch, string_similarity,
    PreparedCorpus, PreparedText, TokenInterner,
};

/// `paris_align_us` at one thread from PR-7's `BENCH_parallel.json`,
/// measured on this exact datagen profile (seed 42, 120 shared / 200
/// left-only / 60 right-only, Person+Drug, 0.25 confusable).
const PR7_PARIS_ALIGN_US: f64 = 368_054.0;

/// Estimated per-chunk dispatch overhead (spawn amortization, cursor and
/// slot traffic, reassembly) — the floor a chunk's mean work must clear
/// for parallelism to pay.
const DISPATCH_OVERHEAD_US: f64 = 50.0;

/// The datagen profile shared with `space_build.rs` — the gate compares
/// against PR-7 numbers recorded on this exact profile.
fn pair() -> GeneratedPair {
    generate_pair(&PairConfig {
        seed: 42,
        left: SideConfig {
            name: "L".into(),
            ns: "http://l.example.org/".into(),
            flavor: Flavor::Left,
            noise: 0.1,
            drop_prob: 0.12,
            sparse: false,
        },
        right: SideConfig {
            name: "R".into(),
            ns: "http://r.example.org/".into(),
            flavor: Flavor::Right,
            noise: 0.12,
            drop_prob: 0.12,
            sparse: false,
        },
        shared: 120,
        left_only: 200,
        right_only: 60,
        confusable_frac: 0.25,
        domains: vec![Domain::Person, Domain::Drug],
        left_extra_domains: Domain::ALL.to_vec(),
    })
}

const STRING_PAIRS: &[(&str, &str)] = &[
    ("LeBron James", "James, LeBron"),
    ("Quantum Meridian Systems", "Quantum Meridian Sys."),
    (
        "International Conference on Linked Data 2013",
        "Workshop on Linked Data 2013",
    ),
    // Cross the u64 block boundary: > 64 chars on both sides.
    (
        "A very long entity label that easily exceeds the sixty-four character single block limit",
        "Another very long entity label that also exceeds the sixty-four character block limit",
    ),
    ("Silverford", "North Silverford"),
];

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.bench_function("levenshtein_myers", |b| {
        b.iter(|| {
            for (x, y) in STRING_PAIRS {
                black_box(myers_levenshtein(black_box(x), black_box(y)));
            }
        })
    });
    g.bench_function("levenshtein_dp", |b| {
        b.iter(|| {
            for (x, y) in STRING_PAIRS {
                black_box(levenshtein_dp(black_box(x), black_box(y)));
            }
        })
    });
    g.bench_function("jaccard_hashset", |b| {
        b.iter(|| {
            for (x, y) in STRING_PAIRS {
                black_box(jaccard_tokens(black_box(x), black_box(y)));
            }
        })
    });
    g.bench_function("jaccard_interned", |b| {
        let mut interner = TokenInterner::new();
        let prepared: Vec<(PreparedText, PreparedText)> = STRING_PAIRS
            .iter()
            .map(|(x, y)| {
                (
                    PreparedText::prepare(x, &mut interner),
                    PreparedText::prepare(y, &mut interner),
                )
            })
            .collect();
        b.iter(|| {
            for (px, py) in &prepared {
                black_box(alex_sim::jaccard_ids(
                    black_box(px.token_ids()),
                    black_box(py.token_ids()),
                ));
            }
        })
    });
    g.bench_function("batch_scorer_100", |b| {
        let mut interner = TokenInterner::new();
        let mut corpus = PreparedCorpus::new();
        for i in 0..100 {
            corpus.push(&format!("Candidate Entity Number {i}"), &mut interner);
        }
        let probe = PreparedText::prepare("Candidate Entity Number 42", &mut interner);
        b.iter(|| {
            let mut out = Vec::with_capacity(100);
            score_batch(&probe, black_box(&corpus), &mut out);
            black_box(out);
        })
    });
    g.finish();
    write_snapshot();
}

/// Mean microseconds per iteration of `f` over a small fixed batch, with
/// one unmeasured warm-up iteration.
fn mean_us(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_micros() as f64 / iters as f64
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn write_snapshot() {
    // Wall-clock gates: only meaningful (and only worth the time) under
    // `cargo bench`, not the smoke pass.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let pair = pair();
    let cfg = SpaceConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Kernel micro-ratios on the mixed pair set (one long pair crosses the
    // u64 block boundary, so the multi-block path is in the mix).
    let myers_ns = mean_ns(2000, || {
        for (x, y) in STRING_PAIRS {
            black_box(myers_levenshtein(black_box(x), black_box(y)));
        }
    });
    let dp_ns = mean_ns(2000, || {
        for (x, y) in STRING_PAIRS {
            black_box(levenshtein_dp(black_box(x), black_box(y)));
        }
    });
    let mut interner = TokenInterner::new();
    let prepared: Vec<(PreparedText, PreparedText)> = STRING_PAIRS
        .iter()
        .map(|(x, y)| {
            (
                PreparedText::prepare(x, &mut interner),
                PreparedText::prepare(y, &mut interner),
            )
        })
        .collect();
    let jaccard_hash_ns = mean_ns(2000, || {
        for (x, y) in STRING_PAIRS {
            black_box(jaccard_tokens(black_box(x), black_box(y)));
        }
    });
    let jaccard_interned_ns = mean_ns(2000, || {
        for (px, py) in &prepared {
            black_box(alex_sim::jaccard_ids(px.token_ids(), py.token_ids()));
        }
    });
    let mut corpus = PreparedCorpus::new();
    let candidates: Vec<String> = (0..100)
        .map(|i| format!("Candidate Entity Number {i}"))
        .collect();
    for cand in &candidates {
        corpus.push(cand, &mut interner);
    }
    let probe = "Candidate Entity Number 42";
    let prepared_probe = PreparedText::prepare(probe, &mut interner);
    let batch_ns = mean_ns(200, || {
        let mut out = Vec::with_capacity(100);
        score_batch(&prepared_probe, &corpus, &mut out);
        black_box(out);
    });
    let naive_ns = mean_ns(200, || {
        for cand in &candidates {
            black_box(string_similarity(probe, cand));
        }
    });

    // Single-thread alignment gate vs the PR-7 recorded baseline.
    alex_parallel::set_threads(1);
    let paris_1t_us = mean_us(3, || {
        black_box(Paris::new().link(&pair.left, &pair.right));
    });
    let space_1t_us = mean_us(5, || {
        black_box(LinkSpace::build(&pair.left, &pair.right, &cfg));
    });
    alex_parallel::set_threads(0);
    let st_speedup = PR7_PARIS_ALIGN_US / paris_1t_us;

    // 4-thread scaling gate — only meaningful with ≥ 4 real cores.
    let (scaling_gate, scaling_row) = if cores >= 4 {
        alex_parallel::set_threads(4);
        let paris_4t_us = mean_us(3, || {
            black_box(Paris::new().link(&pair.left, &pair.right));
        });
        let space_4t_us = mean_us(5, || {
            black_box(LinkSpace::build(&pair.left, &pair.right, &cfg));
        });
        alex_parallel::set_threads(0);
        let paris_scale = paris_1t_us / paris_4t_us;
        let space_scale = space_1t_us / space_4t_us;
        assert!(
            paris_scale >= 3.0,
            "paris_align 4-thread speedup {paris_scale:.2}x below the 3x gate"
        );
        assert!(
            space_scale >= 3.0,
            "space_build 4-thread speedup {space_scale:.2}x below the 3x gate"
        );
        (
            "passed",
            format!(
                ",\n  \"scaling\": {{\"paris_align_4t_us\": {paris_4t_us:.1}, \
                 \"paris_align_4t_speedup\": {paris_scale:.2}, \
                 \"space_build_4t_us\": {space_4t_us:.1}, \
                 \"space_build_4t_speedup\": {space_scale:.2}}}"
            ),
        )
    } else {
        ("skipped", String::new())
    };

    // Chunk-floor gate: the paris_functionality pool's mean chunk time
    // must exceed dispatch overhead (it was 22.5µs — 0.15 efficiency —
    // before the floor).
    alex_telemetry::timeline::enable();
    alex_parallel::set_threads(4);
    black_box(Paris::new().link(&pair.left, &pair.right));
    alex_parallel::set_threads(0);
    let traces = alex_telemetry::timeline::drain();
    alex_telemetry::timeline::disable();
    let attribution = alex_telemetry::attribute(&traces);
    let fun_chunk_us = attribution
        .pools
        .iter()
        .find(|p| p.pool == "paris_functionality")
        .map(|p| p.mean_chunk_us)
        .unwrap_or(0.0);
    assert!(
        fun_chunk_us > DISPATCH_OVERHEAD_US,
        "paris_functionality mean chunk {fun_chunk_us:.1}µs does not clear \
         dispatch overhead {DISPATCH_OVERHEAD_US}µs — chunk floor regressed"
    );

    assert!(
        st_speedup >= 3.0,
        "single-thread paris_align {paris_1t_us:.0}µs is only {st_speedup:.2}x \
         over the PR-7 baseline {PR7_PARIS_ALIGN_US:.0}µs — below the 3x gate"
    );

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"host_cores\": {cores},\n  \
         \"pr7_paris_align_us\": {PR7_PARIS_ALIGN_US:.1},\n  \
         \"paris_align_us\": {paris_1t_us:.1},\n  \
         \"space_build_us\": {space_1t_us:.1},\n  \
         \"single_thread_speedup_vs_pr7\": {st_speedup:.2},\n  \
         \"single_thread_gate\": \"passed\",\n  \
         \"scaling_gate\": \"{scaling_gate}\"{scaling_row},\n  \
         \"paris_functionality_mean_chunk_us\": {fun_chunk_us:.1},\n  \
         \"dispatch_overhead_us\": {DISPATCH_OVERHEAD_US:.1},\n  \
         \"kernels\": {{\n    \"myers_ns_per_sweep\": {myers_ns:.0},\n    \
         \"dp_ns_per_sweep\": {dp_ns:.0},\n    \
         \"myers_vs_dp_speedup\": {:.2},\n    \
         \"jaccard_hashset_ns_per_sweep\": {jaccard_hash_ns:.0},\n    \
         \"jaccard_interned_ns_per_sweep\": {jaccard_interned_ns:.0},\n    \
         \"jaccard_interned_speedup\": {:.2},\n    \
         \"batch_ns_per_100\": {batch_ns:.0},\n    \
         \"naive_ns_per_100\": {naive_ns:.0},\n    \
         \"batch_vs_naive_speedup\": {:.2}\n  }}\n}}\n",
        dp_ns / myers_ns,
        jaccard_hash_ns / jaccard_interned_ns,
        naive_ns / batch_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
