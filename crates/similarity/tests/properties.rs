//! Property-based tests for the similarity measures: every measure must be
//! symmetric, bounded to [0, 1], and return 1.0 on identical inputs.

use alex_sim::{
    jaccard_ids, jaccard_tokens, jaro, jaro_slice, jaro_winkler, jaro_winkler_slice, levenshtein,
    levenshtein_dp, levenshtein_similarity, monge_elkan_jw, myers_levenshtein, myers_slice,
    normalize, prepared_similarity, prepared_string_similarity, relative_numeric, scaled_numeric,
    score_batch, string_similarity, token_similarity, trigram_dice, value_similarity, Date,
    PreparedCorpus, PreparedText, PreparedValue, TokenInterner, TypedValue, SLICE_MAX,
};
use proptest::prelude::*;

fn unit(x: f64) -> bool {
    (0.0..=1.0 + 1e-12).contains(&x)
}

proptest! {
    #[test]
    fn levenshtein_triangle_inequality(a in ".{0,12}", b in ".{0,12}", c in ".{0,12}") {
        let ab = levenshtein(&a, &b);
        let bc = levenshtein(&b, &c);
        let ac = levenshtein(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn levenshtein_symmetry_and_identity(a in ".{0,16}", b in ".{0,16}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    #[test]
    fn levenshtein_similarity_bounded(a in ".{0,16}", b in ".{0,16}") {
        prop_assert!(unit(levenshtein_similarity(&a, &b)));
    }

    #[test]
    fn jaro_bounded_symmetric(a in ".{0,16}", b in ".{0,16}") {
        let s1 = jaro(&a, &b);
        let s2 = jaro(&b, &a);
        prop_assert!(unit(s1));
        prop_assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in ".{0,16}", b in ".{0,16}") {
        prop_assert!(jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b));
        prop_assert!(unit(jaro_winkler(&a, &b)));
    }

    #[test]
    fn jaccard_bounded_symmetric(a in "[a-z ]{0,24}", b in "[a-z ]{0,24}") {
        let s1 = jaccard_tokens(&a, &b);
        let s2 = jaccard_tokens(&b, &a);
        prop_assert!(unit(s1));
        prop_assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn trigram_bounded_symmetric_identity(a in ".{0,16}", b in ".{0,16}") {
        let s = trigram_dice(&a, &b);
        prop_assert!(unit(s));
        prop_assert!((s - trigram_dice(&b, &a)).abs() < 1e-12);
        prop_assert!((trigram_dice(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn string_similarity_identity_after_normalization(a in ".{0,20}") {
        // Identical inputs always score 1.0.
        prop_assert!((string_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn string_similarity_bounded_symmetric(a in ".{0,20}", b in ".{0,20}") {
        let s1 = string_similarity(&a, &b);
        prop_assert!(unit(s1));
        prop_assert!((s1 - string_similarity(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn normalize_is_idempotent(a in ".{0,32}") {
        let once = normalize(&a);
        prop_assert_eq!(normalize(&once), once.clone());
    }

    #[test]
    fn relative_numeric_bounded_symmetric(a in -1e9f64..1e9, b in -1e9f64..1e9) {
        let s = relative_numeric(a, b);
        prop_assert!(unit(s));
        prop_assert!((s - relative_numeric(b, a)).abs() < 1e-9);
    }

    #[test]
    fn scaled_numeric_bounded(a in -1e6f64..1e6, b in -1e6f64..1e6, scale in 0.1f64..1e6) {
        prop_assert!(unit(scaled_numeric(a, b, scale)));
    }

    #[test]
    fn value_similarity_symmetric_over_ints(a in -1000i64..1000, b in -1000i64..1000) {
        let va = TypedValue::Integer(a);
        let vb = TypedValue::Integer(b);
        let s1 = value_similarity(&va, &vb);
        prop_assert!(unit(s1));
        prop_assert!((s1 - value_similarity(&vb, &va)).abs() < 1e-12);
    }

    #[test]
    fn value_similarity_text_symmetric(a in "[a-zA-Z0-9 ]{0,16}", b in "[a-zA-Z0-9 ]{0,16}") {
        let va = TypedValue::Text(a);
        let vb = TypedValue::Text(b);
        let s1 = value_similarity(&va, &vb);
        prop_assert!(unit(s1));
        prop_assert!((s1 - value_similarity(&vb, &va)).abs() < 1e-9);
    }

    /// The bit-parallel Myers kernel is exactly the classic DP on short
    /// strings (single u64 block) — including empty strings.
    #[test]
    fn myers_equals_dp_single_block(a in ".{0,24}", b in ".{0,24}") {
        prop_assert_eq!(myers_levenshtein(&a, &b), levenshtein_dp(&a, &b));
    }

    /// …and on long strings that cross the 64-character block boundary,
    /// exercising the multi-block carry chain.
    #[test]
    fn myers_equals_dp_multi_block(a in ".{55,90}", b in ".{55,90}") {
        prop_assert_eq!(myers_levenshtein(&a, &b), levenshtein_dp(&a, &b));
    }

    /// …and with combining diacritics appended/injected, so the kernel's
    /// char-level (not byte-level) handling matches the DP's.
    #[test]
    fn myers_equals_dp_combining_chars(a in ".{0,70}", b in ".{0,70}") {
        // U+0301 combining acute, U+0308 combining diaeresis — standalone
        // combining marks are valid chars the DP treats as units.
        let a = format!("e\u{0301}{a}\u{0308}");
        let b = format!("{b}\u{0301}");
        prop_assert_eq!(myers_levenshtein(&a, &b), levenshtein_dp(&a, &b));
    }

    /// Interned sorted-id Jaccard is bitwise equal to the string-token
    /// `HashSet` formulation when both texts are prepared against one
    /// shared interner.
    #[test]
    fn interned_jaccard_equals_string_jaccard(a in ".{0,60}", b in ".{0,60}") {
        let mut interner = TokenInterner::new();
        let pa = PreparedText::prepare(&a, &mut interner);
        let pb = PreparedText::prepare(&b, &mut interner);
        let fast = jaccard_ids(pa.token_ids(), pb.token_ids());
        let slow = jaccard_tokens(&a, &b);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }

    /// The full prepared string kernel (batch Monge-Elkan + interned
    /// Jaccard) is bitwise equal to `string_similarity`, including on
    /// block-crossing and combining-mark inputs.
    #[test]
    fn prepared_equals_string_similarity(a in ".{0,70}", b in ".{0,70}") {
        let a = format!("{a}\u{0301}");
        let mut interner = TokenInterner::new();
        let pa = PreparedText::prepare(&a, &mut interner);
        let pb = PreparedText::prepare(&b, &mut interner);
        let fast = prepared_string_similarity(&pa, &pb);
        let slow = string_similarity(&a, &b);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }
}

/// The token measure as the string kernels define it: the oracle
/// `token_similarity` must equal bit for bit.
fn token_oracle(a: &str, b: &str) -> f64 {
    (jaro_winkler(a, b) + levenshtein_similarity(a, b)) / 2.0
}

/// Every string over `alphabet` of length at most `max_len`.
fn all_strings(alphabet: &[char], max_len: usize) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut frontier = vec![String::new()];
    for _ in 0..max_len {
        frontier = frontier
            .iter()
            .flat_map(|s| alphabet.iter().map(move |&c| format!("{s}{c}")))
            .collect();
        out.extend(frontier.iter().cloned());
    }
    out
}

/// Jaro is bitwise symmetric and the slice kernel is bitwise `jaro`, over
/// every pair of short strings on small alphabets. Monge-Elkan's single
/// token matrix rests on the symmetry.
#[test]
fn jaro_is_bitwise_symmetric_and_slice_exact_exhaustively() {
    for (alphabet, max_len) in [(&['a', 'b'][..], 6), (&['a', 'b', 'c'][..], 4)] {
        let strings = all_strings(alphabet, max_len);
        for a in &strings {
            for b in &strings {
                let ab = jaro(a, b);
                assert_eq!(ab.to_bits(), jaro(b, a).to_bits(), "{a:?} vs {b:?}");
                assert_eq!(
                    jaro_slice(a.as_bytes(), b.as_bytes()).to_bits(),
                    ab.to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}

/// ASCII tokens at and around the 64-byte limit of the slice kernels, the
/// string-kernel fallback just beyond it, and non-ASCII tokens, which
/// always take the fallback.
#[test]
fn token_similarity_at_the_slice_boundary() {
    let mk = |n: usize, alphabet: &[char], stride: usize| -> String {
        (0..n)
            .map(|i| alphabet[(i * stride + i / 5) % alphabet.len()])
            .collect()
    };
    let ascii = ['a', 'b', 'c', 'd'];
    let wide = ['a', 'é', 'b', '\u{301}', '世'];
    for n in [SLICE_MAX - 1, SLICE_MAX, SLICE_MAX + 1] {
        for m in [0, 1, 7, SLICE_MAX - 1, SLICE_MAX, SLICE_MAX + 1] {
            for (x, y) in [
                (mk(n, &ascii, 1), mk(m, &ascii, 3)),
                (mk(n, &wide, 1), mk(m, &wide, 2)),
                (mk(n, &ascii, 1), mk(m, &wide, 2)),
            ] {
                assert_eq!(
                    token_similarity(&x, &y).to_bits(),
                    token_oracle(&x, &y).to_bits(),
                    "n={n} m={m} {x:?} vs {y:?}"
                );
            }
        }
    }
}

/// One value of every kind, with text that sniffs as each non-text kind.
fn typed_value(kind: u8, word: String, n: i64, f: f64) -> TypedValue {
    let year = 1000 + n.rem_euclid(1101) as i32;
    let date = Date {
        year,
        month: 1 + n.rem_euclid(12) as u8,
        day: 1 + n.rem_euclid(28) as u8,
    };
    match kind {
        0 => TypedValue::Text(word),
        1 => TypedValue::Text(n.to_string()),
        2 => TypedValue::Text(year.to_string()),
        3 => TypedValue::Text(format!(
            "{:04}-{:02}-{:02}",
            date.year, date.month, date.day
        )),
        4 => TypedValue::Text(f.to_string()),
        5 => TypedValue::Text(if n % 2 == 0 { "true" } else { "false" }.to_string()),
        6 => TypedValue::Integer(n),
        7 => TypedValue::Float(f),
        8 => TypedValue::Year(year),
        9 => TypedValue::Date(date),
        10 => TypedValue::Boolean(n % 2 == 0),
        11 => TypedValue::Iri(format!("http://e/ns#{word}")),
        _ => TypedValue::Iri(format!("http://e/{n}")),
    }
}

/// Every ordered pair of value kinds, on fixed payloads that make text
/// sniff as each kind and numbers render close to it.
#[test]
fn prepared_similarity_equals_value_similarity_for_every_kind_pair() {
    let payloads = [
        ("LeBron James", 1984, 1984.0),
        ("1984", 7, 3.25),
        ("true", -44, 0.5),
    ];
    for ka in 0..13 {
        for kb in 0..13 {
            for &(wa, na, fa) in &payloads {
                for &(wb, nb, fb) in &payloads {
                    let va = typed_value(ka, wa.to_string(), na, fa);
                    let vb = typed_value(kb, wb.to_string(), nb, fb);
                    let mut interner = TokenInterner::new();
                    let pa = PreparedValue::prepare(va.clone(), &mut interner);
                    let pb = PreparedValue::prepare(vb.clone(), &mut interner);
                    assert_eq!(
                        prepared_similarity(&pa, &pb).to_bits(),
                        value_similarity(&va, &vb).to_bits(),
                        "{va:?} vs {vb:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Jaro over bytes equals `jaro`, and is bitwise symmetric, on small
    /// alphabets where matches and transpositions are dense.
    #[test]
    fn jaro_slices_equal_jaro(a in "[abc]{0,12}", b in "[abc]{0,12}") {
        let want = jaro(&a, &b);
        prop_assert_eq!(want.to_bits(), jaro(&b, &a).to_bits());
        prop_assert_eq!(jaro_slice(a.as_bytes(), b.as_bytes()).to_bits(), want.to_bits());
        prop_assert_eq!(
            jaro_winkler_slice(a.as_bytes(), b.as_bytes()).to_bits(),
            jaro_winkler(&a, &b).to_bits()
        );
    }

    /// …and Jaro is bitwise symmetric on any text, combining marks
    /// included.
    #[test]
    fn jaro_is_bitwise_symmetric(a in ".{0,24}", b in ".{0,24}") {
        let a = format!("{a}\u{0301}");
        prop_assert_eq!(jaro(&a, &b).to_bits(), jaro(&b, &a).to_bits());
    }

    /// Myers over byte slices equals the DP oracle, up to the 64-byte
    /// limit.
    #[test]
    fn myers_slices_equal_dp(a in "[a-d]{0,64}", b in "[a-d]{0,64}") {
        prop_assert_eq!(myers_slice(a.as_bytes(), a.as_bytes()), 0);
        prop_assert_eq!(myers_slice(a.as_bytes(), b.as_bytes()), levenshtein_dp(&a, &b));
    }

    /// On printable ASCII the byte kernels equal the string kernels
    /// exactly.
    #[test]
    fn ascii_byte_path_equals_string_kernels(a in "[ -~]{0,64}", b in "[ -~]{0,64}") {
        prop_assert_eq!(
            jaro_winkler_slice(a.as_bytes(), b.as_bytes()).to_bits(),
            jaro_winkler(&a, &b).to_bits()
        );
        prop_assert_eq!(myers_slice(a.as_bytes(), b.as_bytes()), levenshtein_dp(&a, &b));
        prop_assert_eq!(token_similarity(&a, &b).to_bits(), token_oracle(&a, &b).to_bits());
    }

    /// The token measure equals its string-kernel definition on any text,
    /// including combining marks and tokens past the slice limit.
    #[test]
    fn token_similarity_equals_string_kernels(a in ".{0,70}", b in "[a-z\u{301}é]{0,70}") {
        let a = format!("e\u{0301}{a}");
        prop_assert_eq!(token_similarity(&a, &b).to_bits(), token_oracle(&a, &b).to_bits());
    }

    /// Scoring the token matrix once gives both Monge-Elkan directions: the
    /// measure is bitwise symmetric.
    #[test]
    fn monge_elkan_is_bitwise_symmetric(a in "[a-c ]{0,30}", b in "[a-c ]{0,30}") {
        prop_assert_eq!(monge_elkan_jw(&a, &b).to_bits(), monge_elkan_jw(&b, &a).to_bits());
    }

    /// Batch scoring equals `string_similarity` for every candidate.
    #[test]
    fn batch_equals_string_similarity(p in ".{0,30}", c1 in ".{0,30}", c2 in "[a-c ]{0,20}") {
        let mut interner = TokenInterner::new();
        let mut corpus = PreparedCorpus::new();
        corpus.push(&c1, &mut interner);
        corpus.push(&c2, &mut interner);
        let probe = PreparedText::prepare(&p, &mut interner);
        let mut scores = Vec::new();
        score_batch(&probe, &corpus, &mut scores);
        prop_assert_eq!(scores[0].to_bits(), string_similarity(&p, &c1).to_bits());
        prop_assert_eq!(scores[1].to_bits(), string_similarity(&p, &c2).to_bits());
    }

    /// `prepared_similarity` equals `value_similarity` for every pair of
    /// value kinds: text sniffing as a number, year, date, float or
    /// boolean, IRIs against numbers, and the native kinds.
    #[test]
    fn prepared_similarity_equals_value_similarity(
        ka in 0u8..13,
        kb in 0u8..13,
        wa in "[A-Za-z_ ]{0,12}",
        wb in "[A-Za-z_ ]{0,12}",
        na in -3000i64..3000,
        nb in -3000i64..3000,
        fa in -50.0f64..5000.0,
        fb in -50.0f64..5000.0
    ) {
        let va = typed_value(ka, wa, na, fa);
        let vb = typed_value(kb, wb, nb, fb);
        let mut interner = TokenInterner::new();
        let pa = PreparedValue::prepare(va.clone(), &mut interner);
        let pb = PreparedValue::prepare(vb.clone(), &mut interner);
        prop_assert_eq!(
            prepared_similarity(&pa, &pb).to_bits(),
            value_similarity(&va, &vb).to_bits()
        );
        prop_assert_eq!(
            prepared_similarity(&pb, &pa).to_bits(),
            value_similarity(&vb, &va).to_bits()
        );
    }
}
