//! Bit-parallel Levenshtein distance (Myers 1999, Hyyrö 2003).
//!
//! The classic dynamic program costs O(|a|·|b|) cell updates with a
//! data-dependent three-way min per cell. Myers' algorithm packs a whole
//! column of the DP matrix into two machine words (positive / negative
//! vertical delta bit-vectors) and advances one *text character per ~17
//! word operations*, a 64-fold cut in work for patterns up to 64 chars and
//! a `⌈m/64⌉`-block generalization beyond that (Hyyrö's carry-chaining
//! formulation, the one production aligners like edlib use).
//!
//! [`myers_levenshtein`] is a drop-in replacement for the classic DP —
//! property-tested equivalent over random Unicode, including strings
//! crossing the 64-char block boundary, combining characters, and empty
//! inputs (`crates/similarity/tests/properties.rs`). The DP survives as
//! [`super::levenshtein::levenshtein_dp`], the oracle.
//!
//! `myers_64_by` is the single-block loop over per-unit match masks.
//! [`myers_levenshtein`] gathers each mask by scanning the pattern;
//! [`super::TokenPattern`] reads it from a table built once per token,
//! the Levenshtein half of [`super::token_similarity`].

use std::collections::HashMap;

/// Bit-parallel Levenshtein edit distance between two strings, by char.
///
/// Equivalent to the classic DP ([`super::levenshtein::levenshtein_dp`])
/// for every input; O(|text| · ⌈|pattern|/64⌉) word operations.
pub fn myers_levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    // The shorter string becomes the bit-packed pattern: fewer blocks.
    let (pat, text) = if ac.len() <= bc.len() {
        (&ac, &bc)
    } else {
        (&bc, &ac)
    };
    if pat.is_empty() {
        return text.len();
    }
    if pat.len() <= 64 {
        myers_64(pat, text)
    } else {
        myers_blocked(pat, text)
    }
}

/// Single-block kernel: pattern fits one u64 column.
///
/// Each text unit's `Peq` mask is gathered by one branch-free scan of the
/// pattern, which allocates nothing; a `char` pattern has no small table
/// to index instead.
fn myers_64<T: Copy + Eq>(pat: &[T], text: &[T]) -> usize {
    myers_64_by(
        pat.len(),
        text.iter().map(|&t| {
            pat.iter()
                .enumerate()
                .fold(0u64, |eq, (i, &c)| eq | (u64::from(c == t) << i))
        }),
    )
}

/// The single-block Myers loop for a pattern of `m` units (1 to 64):
/// `peq` yields, for each text unit in order, the mask of pattern
/// positions equal to it. Returns the edit distance.
pub(super) fn myers_64_by(m: usize, peq: impl Iterator<Item = u64>) -> usize {
    debug_assert!((1..=64).contains(&m));
    let mut pv: u64 = !0;
    let mut mv: u64 = 0;
    let mut score = m;
    let last = 1u64 << (m - 1);
    for eq in peq {
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // The boundary row D(0, j) = j contributes a permanent +1 carry-in.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// One block-advance step of the carry-chained multi-block kernel
/// (Hyyrö 2003). `hin`/`hout` are the horizontal deltas entering and
/// leaving the block; `high` selects the row whose horizontal delta is
/// reported (bit 63 for interior blocks, bit `(m-1) % 64` for the last).
fn advance_block(pv: u64, mv: u64, eq_in: u64, hin: i32, high: u64) -> (u64, u64, i32) {
    let mut eq = eq_in;
    if hin < 0 {
        eq |= 1;
    }
    let xv = eq | mv;
    let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
    let mut ph = mv | !(xh | pv);
    let mut mh = pv & xh;
    let mut hout = 0;
    if ph & high != 0 {
        hout += 1;
    }
    if mh & high != 0 {
        hout -= 1;
    }
    ph <<= 1;
    mh <<= 1;
    if hin > 0 {
        ph |= 1;
    } else if hin < 0 {
        mh |= 1;
    }
    (mh | !(xv | ph), ph & xv, hout)
}

/// Multi-block kernel for patterns longer than 64 chars.
fn myers_blocked(pat: &[char], text: &[char]) -> usize {
    let m = pat.len();
    let nb = m.div_ceil(64);
    let mut peq: HashMap<char, Vec<u64>> = HashMap::new();
    for (i, &c) in pat.iter().enumerate() {
        peq.entry(c).or_insert_with(|| vec![0; nb])[i / 64] |= 1 << (i % 64);
    }
    let zeros = vec![0u64; nb];
    let mut pv = vec![!0u64; nb];
    let mut mv = vec![0u64; nb];
    let mut score = m as i64;
    let last_bit = 1u64 << ((m - 1) % 64);
    for &t in text {
        let eqs = peq.get(&t).unwrap_or(&zeros);
        // Boundary row: D(0, j) = j, so every column starts with +1 in.
        let mut hin = 1;
        for b in 0..nb {
            let high = if b == nb - 1 { last_bit } else { 1u64 << 63 };
            let (p, m2, hout) = advance_block(pv[b], mv[b], eqs[b], hin, high);
            pv[b] = p;
            mv[b] = m2;
            hin = hout;
        }
        score += i64::from(hin);
    }
    score as usize
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::string::levenshtein::levenshtein_dp;

    #[test]
    fn matches_dp_on_classics() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("flaw", "lawn"),
            ("café", "cafe"),
            ("aaaa", "aaaa"),
            ("abcdef", "azced"),
        ] {
            assert_eq!(
                myers_levenshtein(a, b),
                levenshtein_dp(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn matches_dp_across_block_boundary() {
        // Patterns of exactly 63, 64, 65, 128, 129 chars against texts of
        // assorted lengths: every carry path of the blocked kernel.
        let alphabet: Vec<char> = "abcdeé𝄞".chars().collect();
        let mk = |n: usize, stride: usize| -> String {
            (0..n)
                .map(|i| alphabet[(i * stride + i / 7) % alphabet.len()])
                .collect()
        };
        for m in [1, 2, 63, 64, 65, 127, 128, 129, 200] {
            for n in [0, 1, 63, 64, 65, 130] {
                let a = mk(m, 1);
                let b = mk(n, 3);
                assert_eq!(
                    myers_levenshtein(&a, &b),
                    levenshtein_dp(&a, &b),
                    "m={m} n={n}"
                );
            }
        }
    }

    #[test]
    fn combining_characters_count_as_chars() {
        // "e" + COMBINING ACUTE is two chars; the kernel must agree with
        // the char-level DP, not grapheme intuition.
        let a = "cafe\u{301}";
        let b = "café";
        assert_eq!(myers_levenshtein(a, b), levenshtein_dp(a, b));
    }
}
