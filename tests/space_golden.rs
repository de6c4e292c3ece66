//! Golden digests of the link space: the pairs, feature ids and score bits
//! a build produces, pinned so that a change to the similarity kernels or
//! to space preparation either stays byte-identical or updates a digest on
//! purpose.
//!
//! A space's digest is FNV-1a over the little-endian bytes of
//! `LinkSpace::fingerprint()`, then, for each `PairId` in order, each
//! `(FeatureId, score.to_bits())` of its feature set as two `u64`s. The
//! partitioned value is FNV-1a over the 27 partition digests in partition
//! order, with the partitions derived from one `PreparedSides` exactly as
//! `run_partitioned` derives them.

use alex::core::{LinkSpace, PreparedSides, SpaceConfig};
use alex::datagen::{generate_pair, DatasetKind, GeneratedPair, PairSpec};

const SEED: u64 = 20160501;
const PARTITIONS: usize = 27;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn space_digest(space: &LinkSpace) -> u64 {
    let mut h = Fnv::new();
    h.mix(space.fingerprint());
    for id in space.pair_ids() {
        for &(f, score) in space.feature_set_of(id) {
            h.mix(u64::from(f.0));
            h.mix(score.to_bits());
        }
    }
    h.0
}

fn pair(left: DatasetKind, right: DatasetKind) -> GeneratedPair {
    generate_pair(&PairSpec::of(left, right).config(SEED))
}

/// `(full space digest, 27-partition digest)` of a generated pair.
fn digests(pair: &GeneratedPair) -> (u64, u64) {
    let cfg = SpaceConfig::default();
    let full = space_digest(&LinkSpace::build(&pair.left, &pair.right, &cfg));
    let sides = PreparedSides::new(&pair.left, &pair.right, &cfg.blocking);
    let mut partitioned = Fnv::new();
    for i in 0..PARTITIONS {
        let part_cfg = SpaceConfig {
            partition: Some((i, PARTITIONS)),
            ..cfg.clone()
        };
        partitioned.mix(space_digest(&LinkSpace::from_prepared(&sides, &part_cfg)));
    }
    (full, partitioned.0)
}

fn check(left: DatasetKind, right: DatasetKind, full: u64, partitioned: u64) {
    let (got_full, got_partitioned) = digests(&pair(left, right));
    assert_eq!(
        (
            format!("{got_full:016x}"),
            format!("{got_partitioned:016x}")
        ),
        (format!("{full:016x}"), format!("{partitioned:016x}")),
        "{left:?}-{right:?}: (full, {PARTITIONS} partitions)"
    );
}

#[test]
fn nba_nytimes_space_is_golden() {
    check(
        DatasetKind::DBpediaNba,
        DatasetKind::NYTimes,
        0x9faa_581c_ef7b_a311,
        0x5406_bacf_bd50_44c8,
    );
}

#[test]
fn opencyc_nytimes_space_is_golden() {
    check(
        DatasetKind::OpenCyc,
        DatasetKind::NYTimes,
        0x65a6_37d6_53e4_9561,
        0x12bb_3163_43ad_c8fb,
    );
}

#[test]
fn dbpedia_lexvo_space_is_golden() {
    check(
        DatasetKind::DBpedia,
        DatasetKind::Lexvo,
        0xed64_ca63_8337_866a,
        0xf5a9_d17a_feb3_17bc,
    );
}
