//! Property-based tests for the similarity measures: every measure must be
//! symmetric, bounded to [0, 1], and return 1.0 on identical inputs.

use alex_sim::{
    jaccard_ids, jaccard_tokens, jaro, jaro_winkler, levenshtein, levenshtein_dp,
    levenshtein_similarity, monge_elkan_jw, myers_levenshtein, normalize, prepared_similarity,
    relative_numeric, scaled_numeric, string_similarity, token_similarity, value_similarity, Date,
    PreparedText, PreparedValue, TokenInterner, TokenPattern, TypedValue, SLICE_MAX,
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

    /// The full prepared string kernel (pattern Monge-Elkan + interned
    /// Jaccard), as `prepared_similarity` runs it on two text values, is
    /// bitwise equal to `string_similarity`, including on block-crossing
    /// and combining-mark inputs.
    #[test]
    fn prepared_equals_string_similarity(a in ".{0,70}", b in ".{0,70}") {
        let a = format!("{a}\u{0301}");
        let mut interner = TokenInterner::new();
        let pa = PreparedValue::prepare(TypedValue::Text(a.clone()), &mut interner);
        let pb = PreparedValue::prepare(TypedValue::Text(b.clone()), &mut interner);
        let fast = prepared_similarity(&pa, &pb);
        let slow = string_similarity(&a, &b);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }
}

/// The token measure as the string kernels define it: the oracle
/// `token_similarity` and every `TokenPattern` must equal bit for bit.
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

/// Jaro is bitwise symmetric and the pattern kernel is bitwise the string
/// kernels, over every pair of short strings on small alphabets. Monge-Elkan's
/// single token matrix and the pattern kernel's swapped Jaro loop rest on
/// the symmetry.
#[test]
fn jaro_is_bitwise_symmetric_and_token_pattern_exact_exhaustively() {
    for (alphabet, max_len) in [(&['a', 'b'][..], 6), (&['a', 'b', 'c'][..], 4)] {
        let strings = all_strings(alphabet, max_len);
        for a in &strings {
            let pattern = TokenPattern::new(a);
            for b in &strings {
                assert_eq!(jaro(a, b).to_bits(), jaro(b, a).to_bits(), "{a:?} vs {b:?}");
                assert_eq!(
                    pattern.score(b).to_bits(),
                    token_oracle(a, b).to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}

/// ASCII tokens at and around the 64-byte limit of the pattern kernel, the
/// string-kernel fallback just beyond it on either side, and non-ASCII
/// tokens, which always take the fallback.
#[test]
fn token_similarity_at_the_pattern_boundary() {
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
                assert_eq!(
                    token_similarity(&y, &x).to_bits(),
                    token_oracle(&y, &x).to_bits(),
                    "n={n} m={m} {y:?} vs {x:?}"
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
/// sniff as each kind and numbers render close to it, prepared against one
/// interner.
fn every_kind_pair(
    mut check: impl FnMut(&TypedValue, &TypedValue, &PreparedValue, &PreparedValue),
) {
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
                    check(&va, &vb, &pa, &pb);
                }
            }
        }
    }
}

#[test]
fn prepared_similarity_equals_value_similarity_for_every_kind_pair() {
    every_kind_pair(|va, vb, pa, pb| {
        assert_eq!(
            prepared_similarity(pa, pb).to_bits(),
            value_similarity(va, vb).to_bits(),
            "{va:?} vs {vb:?}"
        );
    });
}

/// The dispatch passes the lexical forms in argument order on every arm,
/// which is exact only because prepared similarity is bitwise symmetric.
#[test]
fn prepared_similarity_is_bitwise_symmetric_for_every_kind_pair() {
    every_kind_pair(|va, vb, pa, pb| {
        assert_eq!(
            prepared_similarity(pa, pb).to_bits(),
            prepared_similarity(pb, pa).to_bits(),
            "{va:?} vs {vb:?}"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pattern kernel equals the string kernels, and Jaro is bitwise
    /// symmetric, on small alphabets where matches and transpositions are
    /// dense.
    #[test]
    fn token_pattern_equals_oracle_on_dense_alphabet(a in "[abc]{0,12}", b in "[abc]{0,12}") {
        prop_assert_eq!(jaro(&a, &b).to_bits(), jaro(&b, &a).to_bits());
        prop_assert_eq!(TokenPattern::new(&a).score(&b).to_bits(), token_oracle(&a, &b).to_bits());
        prop_assert_eq!(TokenPattern::new(&b).score(&a).to_bits(), token_oracle(&a, &b).to_bits());
    }

    /// …on tokens as normalization leaves them: lowercase letters and
    /// digits.
    #[test]
    fn token_pattern_equals_oracle(a in "[a-z0-9]{0,20}", b in "[a-z0-9]{0,20}") {
        prop_assert_eq!(TokenPattern::new(&a).score(&b).to_bits(), token_oracle(&a, &b).to_bits());
    }

    /// …and Jaro is bitwise symmetric on any text, combining marks
    /// included.
    #[test]
    fn jaro_is_bitwise_symmetric(a in ".{0,24}", b in ".{0,24}") {
        let a = format!("{a}\u{0301}");
        prop_assert_eq!(jaro(&a, &b).to_bits(), jaro(&b, &a).to_bits());
    }

    /// …up to the 64-byte limit, where the Myers column is a full word,
    /// and on a token against itself.
    #[test]
    fn token_pattern_equals_oracle_up_to_64_bytes(a in "[a-d]{0,64}", b in "[a-d]{0,64}") {
        let pattern = TokenPattern::new(&a);
        prop_assert_eq!(pattern.score(&a).to_bits(), 1.0f64.to_bits());
        prop_assert_eq!(pattern.score(&b).to_bits(), token_oracle(&a, &b).to_bits());
    }

    /// On printable ASCII the byte path equals the string kernels exactly.
    #[test]
    fn ascii_byte_path_equals_string_kernels(a in "[ -~]{0,64}", b in "[ -~]{0,64}") {
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

    /// `prepared_similarity` equals `value_similarity` for every pair of
    /// value kinds, and is bitwise symmetric: text sniffing as a number,
    /// year, date, float or boolean, IRIs against numbers, and the native
    /// kinds.
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
        let ab = prepared_similarity(&pa, &pb);
        prop_assert_eq!(ab.to_bits(), value_similarity(&va, &vb).to_bits());
        prop_assert_eq!(ab.to_bits(), prepared_similarity(&pb, &pa).to_bits());
        prop_assert_eq!(
            prepared_similarity(&pb, &pa).to_bits(),
            value_similarity(&vb, &va).to_bits()
        );
    }
}
