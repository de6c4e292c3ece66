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
//!
//! The trust-gated run is pinned separately by the final links, the
//! agent's captured learning state as persistence encodes it, and the
//! admission log, since none of those reach the episode reports. The log
//! digest is the `Debug` text of the records with their footprints as
//! explicit lists (the layout `explicit` mirrors), so it does not depend on
//! how the gate keeps them in memory.

use alex::core::{
    persist, run_partitioned, run_partitioned_with, AdversarialPopulation, AlexConfig,
    EpisodeReport, FeedbackSource, PartitionSnapshot, PartitionedConfig, PartitionedRun,
    RunSnapshot, SpaceConfig, TrustConfig,
};
use alex::datagen::{
    assign_roles, generate_pair, sample_initial_links, AdversaryProfile, DatasetKind,
    GeneratedPair, InitialLinksSpec, PairSpec,
};

const SEED: u64 = 20160501;

/// The admission-log records with every footprint an explicit list: a
/// `(link, attributed)` pair per explored link and the removed links by id,
/// as the snapshot format stores them. Only `Debug` reads the fields.
#[allow(dead_code)]
mod explicit {
    use alex::core::{FeatureId, PairId, SourceId};

    #[derive(Debug)]
    pub struct RollbackUndo {
        pub generator: (PairId, FeatureId),
        pub links: Vec<PairId>,
        pub votes: (u32, u32),
        pub removed: Vec<PairId>,
    }

    #[derive(Debug)]
    pub struct AdmissionRecord {
        pub state: PairId,
        pub positive: bool,
        pub supporters: Vec<SourceId>,
        pub opposers: Vec<SourceId>,
        pub credited: Vec<(PairId, FeatureId)>,
        pub reward: f64,
        pub newly_approved: bool,
        pub endorsed: bool,
        pub prov_target: Option<(PairId, FeatureId)>,
        pub action: Option<FeatureId>,
        pub added: Vec<(PairId, bool)>,
        pub removed_candidate: bool,
        pub was_approved: bool,
        pub blacklist_added: bool,
        pub rollback: Option<RollbackUndo>,
        pub revoked: bool,
    }

    impl From<&alex::core::AdmissionRecord> for AdmissionRecord {
        fn from(r: &alex::core::AdmissionRecord) -> Self {
            AdmissionRecord {
                state: r.state,
                positive: r.positive,
                supporters: r.supporters.clone(),
                opposers: r.opposers.clone(),
                credited: r.credited.clone(),
                reward: r.reward,
                newly_approved: r.newly_approved,
                endorsed: r.endorsed,
                prov_target: r.prov_target,
                action: r.action,
                added: r
                    .added
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| (l, r.attributed.contains(i)))
                    .collect(),
                removed_candidate: r.removed_candidate,
                was_approved: r.was_approved,
                blacklist_added: r.blacklist_added,
                rollback: r.rollback.as_ref().map(|rb| RollbackUndo {
                    generator: rb.generator,
                    links: rb.links.clone(),
                    votes: rb.votes,
                    removed: rb.removed.select(&rb.links).collect(),
                }),
                revoked: r.revoked,
            }
        }
    }
}

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

/// A trust-gated run in the shape of `alex improve --trust --sources 5
/// --adversary-profile flipper:0.2 --error-rate 0.1` (one partition,
/// rollback and blacklist on) over a reduced DBpedia–Lexvo pair.
/// Exploration windows there are wide, so the run churns many links
/// through the candidate set, approvals, blacklist and provenance, and
/// revokes admissions.
#[test]
fn gated_runs_are_golden() {
    let mut spec = PairSpec::of(DatasetKind::DBpedia, DatasetKind::Lexvo);
    spec.shared = 110;
    spec.left_only = 600;
    spec.right_only = 60;
    let pair = generate_pair(&spec.config(SEED));
    let initial = sample_initial_links(&pair, InitialLinksSpec::low_p_low_r(SEED + 3));
    let cfg = PartitionedConfig {
        partitions: 1,
        alex: AlexConfig {
            episode_size: 250,
            max_episodes: 6,
            trust: Some(TrustConfig::default()),
            ..AlexConfig::default()
        },
        space: SpaceConfig::default(),
        feedback_error_rate: 0.1,
    };
    let profile = AdversaryProfile::parse("flipper:0.2").expect("profile");
    let (seed, error_rate) = (cfg.alex.seed, cfg.feedback_error_rate);
    let (report, agents) = run_partitioned_with(
        &pair.left,
        &pair.right,
        &initial,
        &pair.ground_truth,
        &cfg,
        |i, truth| -> Box<dyn FeedbackSource> {
            let seed = seed.wrapping_add(i as u64);
            let roles = assign_roles(Some(&profile), 5, seed);
            Box::new(AdversarialPopulation::new(
                truth.clone(),
                roles,
                error_rate,
                seed,
            ))
        },
        None,
        None,
    )
    .expect("run");
    let agent = &agents[0];
    let gate = agent.trust_gate().expect("trust gate");
    assert_eq!(report.episodes.len(), 6);
    assert!(
        gate.log.iter().any(|r| r.revoked) && gate.log.iter().any(|r| r.rollback.is_some()),
        "the run must exercise revocation and rollback"
    );

    let mut links = Fnv::new();
    for (l, r) in alex::core::final_links(&agents) {
        links.bytes(pair.left.resolve(l).as_bytes());
        links.bytes(b"\t");
        links.bytes(pair.right.resolve(r).as_bytes());
        links.bytes(b"\n");
    }
    let mut state = Fnv::new();
    state.bytes(&persist::encode_snapshot(&RunSnapshot {
        base_fingerprint: agent.base_fingerprint(),
        last_episode: report.episodes.len() as u64,
        completed: true,
        relaxed_converged_at: None,
        episodes: Vec::new(),
        partitions: vec![PartitionSnapshot {
            episodes: Vec::new(),
            agent: agent.capture_state(),
            source_state: Vec::new(),
        }],
    }));
    let mut log = Fnv::new();
    let records: Vec<explicit::AdmissionRecord> = gate.log.iter().map(Into::into).collect();
    log.bytes(format!("{records:?}").as_bytes());

    assert_eq!(
        (
            agent.candidates().len(),
            gate.log.len(),
            [links.0, state.0, log.0].map(|h| format!("{h:016x}"))
        ),
        (
            576,
            396,
            ["75e5daab7dbf60ab", "51e1e4a97cf0e574", "d4c9304b5220529d"].map(String::from)
        ),
        "(candidates, log length, [links, state, log] digests)"
    );
}
