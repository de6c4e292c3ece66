//! Golden digests of partitioned runs: the aggregate report, the
//! per-partition traces and the final links of `run_partitioned`, pinned at
//! one and many partitions so that a change to the episode driver either
//! stays byte-identical or updates a digest on purpose.
//!
//! Each digest is FNV-1a over little-endian `u64`s. An episode contributes
//! its number, P/R/F bits, candidates, correct, added, removed, negative
//! feedback fraction bits, rollbacks, change fraction bits and degraded
//! flag. The report digest starts with the initial P/R/F bits, then the
//! aggregate episodes, the `Debug` bytes of the stop reason and the relaxed
//! convergence episode (`u64::MAX` when none). The partitions digest is
//! each trace's index followed by its episodes. The links digest is the
//! left IRI, a tab, the right IRI and a newline per final link.
//!
//! Every run generates its pair and samples its starting links from
//! `SEED`; the agents keep the default configuration seed.

use alex::core::{
    run_partitioned, AlexConfig, EpisodeReport, PartitionedConfig, PartitionedRun, SpaceConfig,
};
use alex::datagen::{
    generate_pair, sample_initial_links, DatasetKind, GeneratedPair, InitialLinksSpec, PairSpec,
};

const SEED: u64 = 20160501;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn mix(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn episode(&mut self, e: &EpisodeReport) {
        for v in [
            e.episode as u64,
            e.quality.precision.to_bits(),
            e.quality.recall.to_bits(),
            e.quality.f_measure.to_bits(),
            e.candidates as u64,
            e.correct as u64,
            e.added as u64,
            e.removed as u64,
            e.negative_feedback_frac.to_bits(),
            e.rollbacks as u64,
            e.change_frac.to_bits(),
            u64::from(e.degraded),
        ] {
            self.mix(v);
        }
    }
}

fn run(pair: &GeneratedPair, partitions: usize, episode_size: usize) -> PartitionedRun {
    let initial = sample_initial_links(pair, InitialLinksSpec::high_p_low_r(SEED + 17));
    let cfg = PartitionedConfig {
        partitions,
        alex: AlexConfig {
            episode_size,
            max_episodes: 40,
            ..AlexConfig::default()
        },
        space: SpaceConfig::default(),
        feedback_error_rate: 0.1,
    };
    run_partitioned(&pair.left, &pair.right, &initial, &pair.ground_truth, &cfg)
}

/// `(report, partitions, links)` digests of a run, as hex strings.
fn digests(pair: &GeneratedPair, run: &PartitionedRun) -> [String; 3] {
    let mut report = Fnv::new();
    let q = run.initial_quality;
    for v in [q.precision, q.recall, q.f_measure] {
        report.mix(v.to_bits());
    }
    for e in &run.episodes {
        report.episode(e);
    }
    report.bytes(format!("{:?}", run.stop).as_bytes());
    report.mix(run.relaxed_converged_at.map_or(u64::MAX, |e| e as u64));

    let mut partitions = Fnv::new();
    for trace in &run.per_partition {
        partitions.mix(trace.partition as u64);
        for e in &trace.episodes {
            partitions.episode(e);
        }
    }

    let mut links = Fnv::new();
    for &(l, r) in &run.final_links {
        links.bytes(pair.left.resolve(l).as_bytes());
        links.bytes(b"\t");
        links.bytes(pair.right.resolve(r).as_bytes());
        links.bytes(b"\n");
    }
    [report.0, partitions.0, links.0].map(|h| format!("{h:016x}"))
}

fn check(pair: &GeneratedPair, partitions: usize, episode_size: usize, expected: [&str; 3]) {
    let run = run(pair, partitions, episode_size);
    assert_eq!(
        digests(pair, &run),
        expected,
        "k={partitions}, size {episode_size}: (report, partitions, links)"
    );
}

fn pair(left: DatasetKind, right: DatasetKind) -> GeneratedPair {
    generate_pair(&PairSpec::of(left, right).config(SEED))
}

#[test]
fn nba_nytimes_runs_are_golden() {
    let pair = pair(DatasetKind::DBpediaNba, DatasetKind::NYTimes);
    let short = run(&pair, 1, 10);
    assert_eq!(
        (
            short.episodes.len(),
            format!("{:?}", short.stop),
            short.final_links.len()
        ),
        (2, "Converged".to_string(), 109)
    );
    assert_eq!(
        digests(&pair, &short),
        ["deb2f434423463ef", "84993be602dd6328", "0451a37d03bab2de"]
    );
    check(
        &pair,
        1,
        200,
        ["2ec44443ac0e6ad7", "bbfd768f11bd2958", "ae69b515ed231df2"],
    );
    check(
        &pair,
        4,
        200,
        ["8f968b7a0bdbd4fc", "28712aa59ea28464", "0b097ef4ababbe66"],
    );
    check(
        &pair,
        27,
        200,
        ["8ee83295cc6eee18", "413c29b8feaac50f", "12d0fb2d0ba0a699"],
    );
}

#[test]
fn dbpedia_lexvo_runs_are_golden() {
    let pair = pair(DatasetKind::DBpedia, DatasetKind::Lexvo);
    let short = run(&pair, 1, 10);
    assert_eq!(
        (short.episodes.len(), format!("{:?}", short.stop)),
        (40, "MaxEpisodes".to_string())
    );
    assert_eq!(
        digests(&pair, &short),
        ["a4931cd8b96b1fb4", "f83f88884a5450d2", "8eedcf71c9da37cc"]
    );
    check(
        &pair,
        27,
        200,
        ["9741dfe17c20acb0", "6eece187bebbee1b", "283b05b89e6fd8c6"],
    );
}
