//! Differential test of the link-space build's value-pair score table.
//!
//! A space reads its similarity matrices from a θ-sparse table that scores
//! each distinct value pair once. The oracle scores every attribute pair of
//! every blocked candidate directly with `prepared_similarity`, in
//! candidate order, and drops the candidates whose feature set is empty.
//! Both must agree on the fingerprint, the pair list and every feature set
//! bit for bit, at θ from 0 (every scored pair kept) to 1 (exact matches
//! only). The shared table of `LinkSpace::partitions` must also give each
//! partition exactly the space `from_prepared` builds for it alone.
//!
//! Besides three generated domains, one hand-generated pair stresses the
//! table's per-value token rows: a token repeated within a value, tokens
//! longer than the 64-byte pattern kernel, and non-ASCII tokens, both of
//! which take the string kernels.

use alex::core::simmatrix::feature_set;
use alex::core::values::SideValues;
use alex::core::{FeatureCatalog, FeatureId, FeatureSet, LinkSpace, PreparedSides, SpaceConfig};
use alex::datagen::{generate_pair, DatasetKind, PairSpec};
use alex::linking::candidate_pairs;
use alex::sim::{prepared_similarity, TokenInterner, SLICE_MAX};
use alex::Dataset;

const SEED: u64 = 4242;

/// Three small generated pairs, NBA-like, media and language domains, and
/// the token edge cases of [`token_edge_pair`].
fn pairs() -> Vec<(Dataset, Dataset)> {
    let mut pairs: Vec<(Dataset, Dataset)> = [
        (DatasetKind::DBpediaNba, DatasetKind::NYTimes, 40, 60, 40),
        (DatasetKind::OpenCyc, DatasetKind::NYTimes, 50, 80, 60),
        (DatasetKind::DBpedia, DatasetKind::Lexvo, 40, 100, 30),
    ]
    .into_iter()
    .map(|(left, right, shared, left_only, right_only)| {
        let spec = PairSpec {
            shared,
            left_only,
            right_only,
            ..PairSpec::of(left, right)
        };
        let pair = generate_pair(&spec.config(SEED));
        (pair.left, pair.right)
    })
    .collect();
    pairs.push(token_edge_pair(SEED));
    pairs
}

/// A pair of 40 entities a side whose values mix short ASCII tokens with
/// a token repeated within one value, ASCII tokens longer than
/// [`SLICE_MAX`] and non-ASCII tokens, drawn by a seeded xorshift. Left
/// entity `i` carries the blocking keys of right entities `i` and `i + 1`,
/// and every fourth place is equal on both sides, so θ = 1 keeps pairs.
fn token_edge_pair(seed: u64) -> (Dataset, Dataset) {
    let mut state = seed | 1;
    let mut pick = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let words = ["alpha", "alhpa", "beta", "gamma", "gamme", "delta", "omega"];
    let long = |i: usize| format!("{}{i}", "longtoken".repeat(SLICE_MAX / 9 + 1));
    let places = [
        "münchen",
        "zürich straße",
        "são paulo",
        "café",
        "東京 tower",
    ];
    let ascii_places = [
        "munchen",
        "zurich strasse",
        "sao paulo",
        "cafe",
        "tokyo tower",
    ];
    let (mut left, mut right) = (Dataset::new("edge-left"), Dataset::new("edge-right"));
    for i in 0..40 {
        let (l, r) = (format!("http://l/{i}"), format!("http://r/{i}"));
        let (a, b) = (words[pick(words.len())], words[pick(words.len())]);
        left.add_str(&l, "http://l/name", &format!("{a} {b} {a} key{i}"));
        left.add_str(&l, "http://l/alias", &format!("{b} key{}", i + 1));
        left.add_str(&l, "http://l/note", &format!("{} {b}", long(pick(3))));
        let place = pick(places.len());
        left.add_str(&l, "http://l/place", places[place]);
        let (c, d) = (words[pick(words.len())], words[pick(words.len())]);
        right.add_str(&r, "http://r/label", &format!("{c} {a} key{i}"));
        right.add_str(&r, "http://r/text", &format!("{d} {}", long(pick(3))));
        let place = if i % 4 == 0 {
            places[place]
        } else {
            [places, ascii_places][pick(2)][pick(places.len())]
        };
        right.add_str(&r, "http://r/place", place);
    }
    (left, right)
}

/// The space as plain data: pairs, catalog definitions and feature sets.
struct Oracle {
    pairs: Vec<(u32, u32)>,
    catalog: FeatureCatalog,
    features: Vec<FeatureSet>,
    theta: f64,
}

impl Oracle {
    fn build((left, right): &(Dataset, Dataset), theta: f64) -> Oracle {
        let (li, ri) = (left.entity_index(), right.entity_index());
        let mut interner = TokenInterner::new();
        let lv = SideValues::build(left, &li, &mut interner);
        let rv = SideValues::build(right, &ri, &mut interner);
        let cfg = SpaceConfig {
            theta,
            ..SpaceConfig::default()
        };
        let mut oracle = Oracle {
            pairs: Vec::new(),
            catalog: FeatureCatalog::new(),
            features: Vec::new(),
            theta,
        };
        for (l, r) in candidate_pairs(left, &li, right, &ri, &cfg.blocking) {
            let sf = feature_set(
                lv.attrs(l),
                rv.attrs(r),
                theta,
                |a, b| prepared_similarity(lv.value(a), rv.value(b)),
                &mut oracle.catalog,
            );
            if !sf.is_empty() {
                oracle.pairs.push((l, r));
                oracle.features.push(sf);
            }
        }
        oracle
    }

    /// `LinkSpace::fingerprint`, recomputed from the oracle's data.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.pairs.len() as u64);
        for &(l, r) in &self.pairs {
            mix(u64::from(l));
            mix(u64::from(r));
        }
        for (f, fp) in self.catalog.iter() {
            mix(u64::from(f.0));
            mix(fp.left.index() as u64);
            mix(fp.right.index() as u64);
        }
        mix(self.theta.to_bits());
        h
    }
}

/// Feature sets with scores as bits, so equality is bitwise.
fn bits(sf: &[(FeatureId, f64)]) -> Vec<(u32, u64)> {
    sf.iter().map(|&(f, s)| (f.0, s.to_bits())).collect()
}

fn assert_same(a: &LinkSpace, b: &LinkSpace, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprint");
    assert_eq!(
        a.blocked_pairs(),
        b.blocked_pairs(),
        "{what}: blocked pairs"
    );
    assert_eq!(a.len(), b.len(), "{what}: pairs");
    for id in a.pair_ids() {
        assert_eq!(a.pair(id), b.pair(id), "{what}: pair {id:?}");
        assert_eq!(
            bits(a.feature_set_of(id)),
            bits(b.feature_set_of(id)),
            "{what}: features of {id:?}"
        );
    }
}

#[test]
fn table_built_spaces_equal_direct_scoring() {
    for (p, pair) in pairs().iter().enumerate() {
        for theta in [0.0, 0.3, 0.55, 1.0] {
            let what = format!("pair {p}, θ {theta}");
            let cfg = SpaceConfig {
                theta,
                ..SpaceConfig::default()
            };
            let space = LinkSpace::build(&pair.0, &pair.1, &cfg);
            let oracle = Oracle::build(pair, theta);
            assert!(!oracle.pairs.is_empty(), "{what}: empty oracle");
            assert_eq!(space.fingerprint(), oracle.fingerprint(), "{what}");
            let got: Vec<(u32, u32)> = space.pair_ids().map(|id| space.pair(id)).collect();
            assert_eq!(got, oracle.pairs, "{what}: pair list");
            for (id, sf) in space.pair_ids().zip(&oracle.features) {
                assert_eq!(bits(space.feature_set_of(id)), bits(sf), "{what}: {id:?}");
            }
        }
    }
}

#[test]
fn shared_table_partitions_equal_standalone_partitions() {
    for (p, pair) in pairs().iter().enumerate() {
        let cfg = SpaceConfig::default();
        let sides = PreparedSides::new(&pair.0, &pair.1, &cfg.blocking);
        for n in [1, 3, 27] {
            let shared = LinkSpace::partitions(&sides, &cfg, n);
            assert_eq!(shared.len(), n);
            for (i, space) in shared.iter().enumerate() {
                let alone = LinkSpace::from_prepared(
                    &sides,
                    &SpaceConfig {
                        partition: Some((i, n)),
                        ..cfg.clone()
                    },
                );
                assert_same(space, &alone, &format!("pair {p}, partition {i} of {n}"));
            }
        }
    }
}
