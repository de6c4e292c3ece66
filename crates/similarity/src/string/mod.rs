//! String similarity measures and normalization.

mod bound;
pub mod jaccard;
pub mod jaro;
pub mod levenshtein;
pub mod myers;
pub mod normalize;

pub use bound::TokenSignature;
pub use jaccard::jaccard_tokens;
pub use jaro::{jaro, jaro_winkler};
pub use levenshtein::{levenshtein, levenshtein_dp, levenshtein_similarity};
pub use myers::myers_levenshtein;
pub use normalize::{normalize, normalized_tokens, tokenize};

/// Longest token, in bytes, a [`TokenPattern`] compares as bytes: one
/// `u64` of position bits (Jaro match flags, Myers column). Longer tokens
/// go through the string kernels.
pub const SLICE_MAX: usize = 64;

/// Token-level similarity: the mean of Jaro-Winkler and normalized
/// Levenshtein. Jaro-Winkler alone over-scores unrelated short tokens that
/// merely share letters (jw("lebron", "person") = 0.78); blending in edit
/// distance keeps one-typo tokens high (~0.9) while pushing coincidental
/// resemblances below typical thresholds (~0.55).
///
/// Bitwise equal to `(jaro_winkler(a, b) + levenshtein_similarity(a, b)) /
/// 2.0`, and bitwise symmetric: this is `TokenPattern::new(a).score(b)`.
/// A caller scoring one token against many builds its pattern once.
pub fn token_similarity(a: &str, b: &str) -> f64 {
    TokenPattern::new(a).score(b)
}

/// One token prepared as the fixed side of [`token_similarity`]: for an
/// ASCII token of at most [`SLICE_MAX`] bytes, the positions of each byte
/// value as a `u64` mask. Both kernels then read a mask per byte of the
/// other token instead of scanning the token:
///
/// * Myers' `Peq` vector is the mask itself. Levenshtein distance is
///   symmetric, so the prepared token can always be the pattern.
/// * Jaro runs with the other token as the outer loop and takes the
///   lowest unmatched masked position in the window, which is exactly the
///   greedy scan of `jaro(other, token)`; Jaro is bitwise symmetric.
///
/// A non-ASCII or longer token on either side is compared with the string
/// kernels, [`jaro_winkler`] and [`levenshtein_similarity`].
#[derive(Debug, Clone)]
pub struct TokenPattern<'a> {
    token: &'a str,
    /// Whether `token` is ASCII and at most [`SLICE_MAX`] bytes long, so
    /// `masks` describes it.
    bytes: bool,
    /// `masks[c]` has bit `j` set where `token[j] == c`.
    masks: [u64; 128],
}

impl<'a> TokenPattern<'a> {
    /// Build the pattern of `token`.
    pub fn new(token: &'a str) -> TokenPattern<'a> {
        let mut pattern = TokenPattern {
            token: "",
            bytes: false,
            masks: [0u64; 128],
        };
        pattern.reset(token);
        pattern
    }

    /// Make this the pattern of `token`, clearing only the masks of the
    /// previous token's bytes: cheaper than [`TokenPattern::new`] for a
    /// caller that builds many patterns of short tokens.
    pub fn reset(&mut self, token: &'a str) {
        if self.bytes {
            for &c in self.token.as_bytes() {
                self.masks[usize::from(c)] = 0;
            }
        }
        self.token = token;
        self.bytes = token.len() <= SLICE_MAX && token.is_ascii();
        if self.bytes {
            for (j, &c) in token.as_bytes().iter().enumerate() {
                self.masks[usize::from(c)] |= 1 << j;
            }
        }
    }

    /// [`token_similarity`] of the pattern's token and `other`.
    pub fn score(&self, other: &str) -> f64 {
        if !(self.bytes && other.len() <= SLICE_MAX && other.is_ascii()) {
            return (jaro_winkler(self.token, other) + levenshtein_similarity(self.token, other))
                / 2.0;
        }
        let (token, other) = (self.token.as_bytes(), other.as_bytes());
        let max_len = token.len().max(other.len());
        let lev = if max_len == 0 {
            1.0
        } else if token.is_empty() {
            0.0
        } else {
            let peq = other.iter().map(|&c| self.masks[usize::from(c)]);
            1.0 - myers::myers_64_by(token.len(), peq) as f64 / max_len as f64
        };
        (jaro::jaro_winkler_masked(token, &self.masks, other) + lev) / 2.0
    }
}

/// Tokens as byte ranges into one text: the layout of a
/// [`crate::PreparedText`], so every Monge-Elkan caller hands over its
/// tokens without collecting them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tokens<'a> {
    pub(crate) text: &'a str,
    pub(crate) spans: &'a [(u32, u32)],
}

impl<'a> Tokens<'a> {
    fn get(&self, i: usize) -> &'a str {
        let (s, e) = self.spans[i];
        &self.text[s as usize..e as usize]
    }
}

/// Symmetric Monge-Elkan of `na` row tokens against `nb` column tokens:
/// `row(i)` returns the scorer of row token `i` against each column token
/// `j`, and is called once per row. The one core behind every
/// Monge-Elkan in the workspace: [`monge_elkan_jw`], the prepared kernels,
/// and callers that cache token-pair scores.
///
/// One pass fills the token matrix `sim[i][j]`, keeping its row maxima
/// (the a→b direction) and column maxima (the b→a direction). Scoring each
/// token pair once is bitwise the same as scoring both directions:
/// [`token_similarity`] is bitwise symmetric, `max` is exact in any order,
/// and each direction's maxima are summed in token order, as the
/// two-direction definition sums them. For the same reason the result is
/// bitwise symmetric in its two sides.
pub fn monge_elkan_by<F: FnMut(usize) -> f64>(
    na: usize,
    nb: usize,
    mut row: impl FnMut(usize) -> F,
) -> f64 {
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    let mut stack = [0.0f64; 32];
    let mut heap = Vec::new();
    let col_max: &mut [f64] = if nb <= stack.len() {
        &mut stack[..nb]
    } else {
        heap.resize(nb, 0.0);
        &mut heap
    };
    let forward: f64 = (0..na)
        .map(|i| {
            let mut sim = row(i);
            let mut row_max = 0.0f64;
            for (j, col) in col_max.iter_mut().enumerate() {
                let s = sim(j);
                row_max = row_max.max(s);
                *col = col.max(s);
            }
            row_max
        })
        .sum();
    let backward: f64 = col_max.iter().sum();
    (forward / na as f64 + backward / nb as f64) / 2.0
}

/// Symmetric Monge-Elkan over tokenized inputs with [`token_similarity`]
/// as the inner measure, each row token's [`TokenPattern`] built once: the
/// core of [`monge_elkan_jw`] and [`crate::prepared_similarity`].
pub(crate) fn monge_elkan(a: Tokens<'_>, b: Tokens<'_>) -> f64 {
    monge_elkan_by(a.spans.len(), b.spans.len(), |i| {
        let pattern = TokenPattern::new(a.get(i));
        move |j| pattern.score(b.get(j))
    })
}

/// Symmetric Monge-Elkan similarity with a blended Jaro-Winkler/Levenshtein
/// token measure as the inner
/// measure: each token is matched to its best counterpart, averaged, and the
/// two directions are averaged. The standard hybrid for multi-word entity
/// names — tolerant to token reordering and per-token typos, but not fooled
/// by whole-string letter overlap.
pub fn monge_elkan_jw(a: &str, b: &str) -> f64 {
    let (sa, sb) = (normalize::token_spans(a), normalize::token_spans(b));
    monge_elkan(
        Tokens {
            text: a,
            spans: &sa,
        },
        Tokens {
            text: b,
            spans: &sb,
        },
    )
}

/// The combined string similarity used for feature values: the maximum of
/// *squared* symmetric Monge-Elkan (good for names with typos and reordered
/// tokens) and token Jaccard (good for multi-word labels with dropped
/// tokens), both on the normalized form.
///
/// Squaring calibrates the soft-token score: genuinely matching strings
/// (≥0.9 raw) lose little (→ ≥0.81) while coincidental resemblances between
/// unrelated short strings (raw 0.4–0.6, which soft-token measures produce
/// in abundance) drop below typical filter thresholds (→ 0.16–0.36). Without
/// this, an RDF pair's similarity matrix fills up with spurious
/// cross-attribute entries above the paper's θ = 0.3.
pub fn string_similarity(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na == nb {
        return 1.0;
    }
    let me = monge_elkan_jw(&na, &nb);
    (me * me).max(jaccard_tokens(&na, &nb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_equality_is_one() {
        assert_eq!(string_similarity("LeBron_James", "lebron james"), 1.0);
    }

    #[test]
    fn typo_scores_high() {
        assert!(string_similarity("Drugbank", "Drugbnak") > 0.7);
        assert!(string_similarity("LeBron James", "LeBron James") == 1.0);
        assert!(string_similarity("LeBron Jmaes", "LeBron James") > 0.75);
    }

    #[test]
    fn token_reorder_scores_high() {
        assert!(string_similarity("James LeBron", "LeBron James") > 0.9);
    }

    #[test]
    fn unrelated_scores_low() {
        assert!(string_similarity("ibuprofen", "semantic web") < 0.4);
        // Whole-string Jaro-Winkler scores this pair 0.67; the calibrated
        // hybrid must not be fooled by short coincidental resemblances.
        assert!(string_similarity("LeBron James", "person") < 0.4);
        // Cross-vocabulary categorical values must fall below θ = 0.3.
        assert!(string_similarity("person", "C-PRS") < 0.3);
        assert!(string_similarity("United States", "840") < 0.3);
        assert!(string_similarity("Politician", "person") < 0.3);
    }

    #[test]
    fn monge_elkan_single_tokens_blend_jw_and_levenshtein() {
        let expected =
            (jaro_winkler("martha", "marhta") + levenshtein_similarity("martha", "marhta")) / 2.0;
        assert!((monge_elkan_jw("martha", "marhta") - expected).abs() < 1e-12);
    }

    #[test]
    fn token_similarity_matches_string_formula() {
        let long = "x".repeat(SLICE_MAX + 1);
        for (a, b) in [
            ("martha", "marhta"),
            ("café", "cafe"),
            ("", ""),
            ("", "a"),
            (long.as_str(), "xx"),
            ("ü", "u"),
        ] {
            let want = (jaro_winkler(a, b) + levenshtein_similarity(a, b)) / 2.0;
            assert_eq!(
                token_similarity(a, b).to_bits(),
                want.to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn monge_elkan_beyond_stack_columns() {
        // More than 32 tokens on the column side takes the heap buffer.
        let many: String = (0..40).map(|i| format!("t{i} ")).collect();
        let s = monge_elkan_jw("t7 t39", &many);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(s.to_bits(), monge_elkan_jw(&many, "t7 t39").to_bits());
    }

    #[test]
    fn monge_elkan_empty_cases() {
        assert_eq!(monge_elkan_jw("", ""), 1.0);
        assert_eq!(monge_elkan_jw("", "abc"), 0.0);
    }

    #[test]
    fn range_and_symmetry() {
        for (a, b) in [("a", "b"), ("New York Times", "NY Times"), ("", "x")] {
            let s1 = string_similarity(a, b);
            let s2 = string_similarity(b, a);
            assert!((0.0..=1.0).contains(&s1));
            assert!((s1 - s2).abs() < 1e-12);
        }
    }
}
