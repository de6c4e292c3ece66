//! A sound upper bound of [`token_similarity`](super::token_similarity)
//! from character counts alone.
//!
//! Both halves of the token measure are capped by how many characters two
//! tokens have in common, counted as multisets: with `c` that overlap,
//! `la`, `lb` the lengths and `m = max(la, lb)`,
//!
//! * Levenshtein distance is at least `m − c` (every unit of the longer
//!   token that is not kept as an equal unit costs an edit, and the kept
//!   units pair equal characters one to one), so its similarity
//!   `1 − d / m` is at most `1 − (m − c) / m`;
//! * Jaro's matches pair equal characters one to one, so there are at
//!   most `c` of them, and its transposition term is at most 1: Jaro is
//!   at most `(c / la + c / lb + 1) / 3`, and 0 when `c` is 0;
//! * Jaro-Winkler raises Jaro by the exact common prefix (at most 4
//!   units), and is increasing in Jaro, so it is at most the Winkler boost
//!   of the Jaro bound.
//!
//! [`TokenSignature::bound`] evaluates those caps in the kernel's own
//! units, bytes, so it covers the tokens [`TokenPattern`](super::TokenPattern)
//! compares as bytes: ASCII and at most [`SLICE_MAX`] long. Against any
//! other token the bound is 1, which every score is at most.
//!
//! Rounding: the kernel evaluates its float expressions, and the bound
//! evaluates the caps with reciprocal multiplications, each within a few
//! units of 2⁻⁵³ of its real value; the real cap is at least the real
//! score, so adding `ROUNDING_MARGIN`, far above those few units and far
//! below any score difference that matters, makes the float bound at least
//! the float score.

use super::jaro::winkler;
use super::SLICE_MAX;

/// Count levels kept as bit sets: `levels[k]` marks the character classes
/// that occur more than `k` times.
const LEVELS: usize = 3;

/// Added to the bound to absorb the rounding of the kernel and of the
/// bound, each at most a few units of 2⁻⁵³.
const ROUNDING_MARGIN: f64 = 1e-12;

/// `RECIPROCAL[n] == 1 / n` for every token length `n`.
const RECIPROCAL: [f64; SLICE_MAX + 1] = {
    let mut r = [0.0; SLICE_MAX + 1];
    let mut n = 1;
    while n <= SLICE_MAX {
        r[n] = 1.0 / n as f64;
        n += 1;
    }
    r
};

/// The class of each ASCII byte. Lowercase letters and digits, the bytes
/// of a normalized ASCII token, get a class each; the other bytes share
/// the remaining 28 classes. Sharing a class can only raise the counted
/// overlap, so the bound stays an upper bound.
const CLASS: [u8; 128] = {
    let mut class = [0u8; 128];
    let mut b = 0;
    while b < 128 {
        class[b] = match b as u8 {
            b'a'..=b'z' => b as u8 - b'a',
            b'0'..=b'9' => 26 + (b as u8 - b'0'),
            _ => 36 + (b % 28) as u8,
        };
        b += 1;
    }
    class
};

/// The character counts of one token, in the units
/// [`token_similarity`](super::token_similarity) compares: bytes of an
/// ASCII token of at most [`SLICE_MAX`] bytes, or none for any other
/// token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenSignature {
    /// Bit `x` of `levels[k]` is set when class `x` occurs more than `k`
    /// times.
    levels: [u64; LEVELS],
    /// Occurrences beyond the first `LEVELS` of each class, summed.
    excess: u8,
    /// The length in bytes, or `NONE` for a token without counts.
    len: u8,
    /// The first four bytes, little endian, zero padded.
    head: u32,
}

/// The `len` of a token the kernel compares as characters.
const NONE: u8 = u8::MAX;

impl TokenSignature {
    /// The signature of `token`: its counts when the kernel compares it as
    /// bytes, none for a non-ASCII token or one longer than [`SLICE_MAX`].
    pub fn new(token: &str) -> TokenSignature {
        if token.len() > SLICE_MAX || !token.is_ascii() {
            return TokenSignature {
                levels: [0; LEVELS],
                excess: 0,
                len: NONE,
                head: 0,
            };
        }
        let mut levels = [0u64; LEVELS];
        let mut excess = 0u8;
        for &b in token.as_bytes() {
            // The byte's occurrence sets the lowest level its class lacks.
            let bit = 1u64 << CLASS[usize::from(b)];
            match levels.iter_mut().find(|level| **level & bit == 0) {
                Some(level) => *level |= bit,
                None => excess += 1,
            }
        }
        let mut head = [0u8; 4];
        for (h, &b) in head.iter_mut().zip(token.as_bytes()) {
            *h = b;
        }
        TokenSignature {
            levels,
            excess,
            len: token.len() as u8,
            head: u32::from_le_bytes(head),
        }
    }

    /// Whether the signature holds the token's counts.
    pub fn has_counts(&self) -> bool {
        self.len != NONE
    }

    /// The character classes of the token as bits, all of them for an
    /// empty token or one without counts: two tokens whose classes are
    /// disjoint score exactly 0.
    pub fn classes(&self) -> u64 {
        if self.has_counts() && self.len > 0 {
            self.levels[0]
        } else {
            !0
        }
    }

    /// An upper bound of `token_similarity(a, b)` for the tokens `a` of
    /// `self` and `b` of `other`: at least the kernel's float result, and
    /// exact when both have counts and share no character or either is
    /// empty; 1 when either has none.
    pub fn bound(&self, other: &TokenSignature) -> f64 {
        if !(self.has_counts() && other.has_counts()) {
            return 1.0;
        }
        let (la, lb) = (usize::from(self.len), usize::from(other.len));
        if la == 0 || lb == 0 {
            return if la == lb { 1.0 } else { 0.0 };
        }
        // Multiset overlap: min(ca, cb) summed over classes, the part
        // beyond the kept levels bounded by the smaller excess.
        let shared: u32 = self
            .levels
            .iter()
            .zip(&other.levels)
            .map(|(a, b)| (a & b).count_ones())
            .sum::<u32>()
            + u32::from(self.excess.min(other.excess));
        if shared == 0 {
            // No match, no common prefix, and every unit of the longer
            // token edited: the kernel scores exactly 0.
            return 0.0;
        }
        let c = f64::from(shared);
        // 1 − (m − c) / m, the Levenshtein cap.
        let lev = c * RECIPROCAL[la.max(lb)];
        let jaro = (c * (RECIPROCAL[la] + RECIPROCAL[lb]) + 1.0) * (1.0 / 3.0);
        let prefix = ((self.head ^ other.head).trailing_zeros() / 8) as usize;
        let jw = winkler(jaro, prefix.min(la).min(lb).min(4));
        (jw + lev) * 0.5 + ROUNDING_MARGIN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string::token_similarity;

    fn bound(a: &str, b: &str) -> f64 {
        TokenSignature::new(a).bound(&TokenSignature::new(b))
    }

    #[test]
    fn disjoint_and_empty_tokens_are_exact() {
        for (a, b) in [("abc", "xyz"), ("", ""), ("", "abc"), ("q", "")] {
            assert_eq!(bound(a, b), token_similarity(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn bound_covers_the_kernel() {
        for (a, b) in [
            ("martha", "marhta"),
            ("james", "smith"),
            ("aaaaab", "baaaaa"),
            ("mississippi", "missouri"),
            ("1984", "1948"),
            ("a", "a"),
            ("x", "xy"),
        ] {
            let (s, u) = (token_similarity(a, b), bound(a, b));
            assert!(u >= s, "{a:?} vs {b:?}: bound {u} < {s}");
            assert_eq!(u.to_bits(), bound(b, a).to_bits(), "symmetric");
        }
        assert!(bound("martha", "martha") >= 1.0);
    }

    #[test]
    fn only_short_ascii_tokens_have_signatures() {
        let long = "x".repeat(SLICE_MAX + 1);
        assert!(!TokenSignature::new("café").has_counts());
        assert!(!TokenSignature::new(&long).has_counts());
        assert!(TokenSignature::new(&"x".repeat(SLICE_MAX)).has_counts());
        assert_eq!(bound("café", "cafe"), 1.0);
        assert_eq!(bound("xx", &long), 1.0);
    }
}
