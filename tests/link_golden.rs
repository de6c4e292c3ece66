//! Golden digests of the two automatic linkers: the term pairs and score
//! bits `Paris::link` and `LabelBaseline::link` return, pinned so that a
//! change to how they score values either stays byte-identical or updates
//! a digest on purpose.
//!
//! A digest is FNV-1a over, for each link in output order, the left IRI's
//! bytes, a 0 byte, the right IRI's bytes, a 0 byte, and the score's
//! `to_bits()` as a little-endian `u64`.

use alex::datagen::{generate_pair, DatasetKind, PairSpec};
use alex::linking::{
    AlignmentConfig, BlockingConfig, LabelBaseline, LinkerOutput, Paris, ParisConfig,
};
use alex::rdf::{vocab, Dataset};

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
}

fn digest(left: &Dataset, right: &Dataset, out: &LinkerOutput) -> String {
    let mut h = Fnv::new();
    for link in out.links.iter() {
        for (ds, id, idx) in [
            (left, link.left, &out.left_index),
            (right, link.right, &out.right_index),
        ] {
            h.bytes(ds.resolve(idx.term(id)).as_bytes());
            h.bytes(&[0]);
        }
        h.bytes(&link.score.to_bits().to_le_bytes());
    }
    format!("{:016x}/{}", h.0, out.links.len())
}

/// Blocking that pairs every two entities sharing any token, so the small
/// hand-built pair exercises every value kind against every other.
fn dense_blocking() -> BlockingConfig {
    BlockingConfig {
        min_token_len: 1,
        max_posting_frac: 1.0,
        min_shared_tokens: 1,
        skip_numeric_tokens: false,
    }
}

/// A lenient PARIS: a low value floor and output threshold and no
/// one-to-one pass, so weak evidence and ties reach the output too.
fn lenient_paris() -> Paris {
    Paris::with_config(ParisConfig {
        blocking: dense_blocking(),
        alignment: AlignmentConfig {
            iterations: 3,
            sim_threshold: 0.2,
            match_threshold: 0.4,
        },
        output_threshold: 0.05,
        one_to_one: false,
    })
}

/// Teams and players on two sides: IRI-valued objects naming indexed
/// entities (and one naming nothing indexed), typed years, integers and
/// decimals, tokens longer than 64 bytes and non-ASCII tokens.
fn hand_built() -> (Dataset, Dataset) {
    let long = "Supercalifragilisticexpialidociousantidisestablishmentarianismfloccinaucinihilipilification";
    assert!(long.len() > 64);
    let mut left = Dataset::new("L");
    let mut right = Dataset::new("R");
    let teams = [
        ("heat", "Miami Heat", "Heat of Miami", 1988),
        ("lakers", "Los Angeles Lakers", "Lakers LA", 1947),
        ("koeln", "Köln Rheinstars", "Koeln Rheinstars", 2019),
        ("osaka", "Ōsaka Evessa", "Osaka Evessa", 2005),
    ];
    for (key, l_name, r_name, founded) in teams {
        let (l, r) = (format!("http://l/team/{key}"), format!("http://r/t/{key}"));
        left.add_str(&l, "http://l/label", l_name);
        left.add_typed(
            &l,
            "http://l/founded",
            &founded.to_string(),
            vocab::XSD_GYEAR,
        );
        right.add_str(&r, "http://r/name", r_name);
        right.add_typed(
            &r,
            "http://r/since",
            &founded.to_string(),
            vocab::XSD_INTEGER,
        );
    }
    let players = [
        ("p1", "LeBron James", "James, LeBron", "heat", 1984, "2.06"),
        (
            "p2",
            "Zoë Müller-Łódź",
            "Zoe Muller Lodz",
            "koeln",
            1990,
            "1.98",
        ),
        ("p3", "Kobe Bryant", "Bryant Kobe", "lakers", 1978, "1.98"),
        ("p4", "Yūta Tabuse", "Yuta Tabuse", "osaka", 1980, "1.73"),
        ("p5", long, &format!("{long} Jr"), "heat", 1999, "2.11"),
        ("p6", "Ann Lee", "Anne Leigh", "lakers", 1984, "1.80"),
    ];
    for (key, l_name, r_name, team, born, height) in players {
        let (l, r) = (
            format!("http://l/player/{key}"),
            format!("http://r/p/{key}"),
        );
        left.add_str(&l, "http://l/label", l_name);
        left.add_iri(&l, "http://l/team", &format!("http://l/team/{team}"));
        left.add_typed(&l, "http://l/born", &born.to_string(), vocab::XSD_GYEAR);
        left.add_typed(&l, "http://l/height", height, vocab::XSD_DECIMAL);
        left.add_iri(&l, "http://l/nation", "http://l/country/Elsewhere");
        right.add_str(&r, "http://r/name", r_name);
        right.add_iri(&r, "http://r/club", &format!("http://r/t/{team}"));
        right.add_str(&r, "http://r/birthYear", &born.to_string());
        right.add_typed(&r, "http://r/heightM", height, vocab::XSD_DOUBLE);
    }
    // A player with no literal name, linked only through its team.
    left.add_iri("http://l/player/p7", "http://l/team", "http://l/team/osaka");
    left.add_str("http://l/player/p7", "http://l/label", "Osaka Reserve");
    right.add_iri("http://r/p/p7", "http://r/club", "http://r/t/osaka");
    right.add_str("http://r/p/p7", "http://r/name", "Reserve of Osaka");
    (left, right)
}

fn nba_nytimes() -> (Dataset, Dataset) {
    let pair =
        generate_pair(&PairSpec::of(DatasetKind::DBpediaNba, DatasetKind::NYTimes).config(SEED));
    (pair.left, pair.right)
}

fn baseline(threshold: f64, blocking: BlockingConfig) -> LabelBaseline {
    LabelBaseline {
        threshold,
        blocking,
    }
}

#[test]
fn paris_links_are_golden() {
    let (left, right) = nba_nytimes();
    let got = digest(&left, &right, &Paris::new().link(&left, &right));
    assert_eq!(got, "3eadcbaeacb38fe2/102", "NBA–NYTimes");
    let (left, right) = hand_built();
    let got = [
        digest(&left, &right, &Paris::new().link(&left, &right)),
        digest(&left, &right, &lenient_paris().link(&left, &right)),
    ];
    assert_eq!(
        got,
        ["ac0251da18a767b9/10", "eae93d03d7376aff/40"],
        "hand-built: (default, lenient)"
    );
}

#[test]
fn baseline_links_are_golden() {
    let (left, right) = nba_nytimes();
    let got = digest(&left, &right, &LabelBaseline::default().link(&left, &right));
    assert_eq!(got, "927d2427a5d03a50/103", "NBA–NYTimes");
    let (left, right) = hand_built();
    let got: Vec<String> = [0.0, 0.8, 1.01]
        .into_iter()
        .map(|t| {
            digest(
                &left,
                &right,
                &baseline(t, dense_blocking()).link(&left, &right),
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            "cebc10725fc498f2/9",
            "cebc10725fc498f2/9",
            "cbf29ce484222325/0"
        ],
        "hand-built at 0, 0.8, 1.01"
    );
}
