//! Batch scoring: one probe string against an arena-packed candidate set.
//!
//! The naive label-matching loop calls [`crate::string_similarity`] per
//! (probe, candidate) pair, re-normalizing and re-tokenizing the probe on
//! every call. A [`PreparedText`] holds the probe's state once — normalized
//! form, token spans, interned Jaccard ids — and [`score_batch`] and
//! [`best_in`] sweep it across a [`PreparedCorpus`], an arena that packs every
//! candidate's normalized text, token spans, and token ids into flat
//! vectors (three allocations for the whole corpus instead of a few per
//! candidate).
//!
//! Scores are **byte-identical** to `string_similarity(probe, candidate)`
//! (property-tested): each comparison runs the same prepared kernel as
//! [`crate::prepared_string_similarity`].

use alex_telemetry::counter;

use crate::prepared::{view_similarity, PreparedText, TextView, TokenInterner};
use crate::string::Tokens;

/// An arena-packed set of prepared candidate strings.
///
/// All normalized text lives in one `String`, all token spans and interned
/// token ids in flat vectors with per-entry ranges — cache-dense iteration
/// and O(1) allocations regardless of corpus size.
#[derive(Debug, Default, Clone)]
pub struct PreparedCorpus {
    /// Concatenated normalized forms.
    norms: String,
    /// Per-entry `(start, end)` byte range into `norms`.
    norm_spans: Vec<(u32, u32)>,
    /// Token byte ranges, absolute into `norms`.
    token_spans: Vec<(u32, u32)>,
    /// Per-entry range into `token_spans`.
    token_ranges: Vec<(u32, u32)>,
    /// Sorted, deduplicated interned token ids, all entries back to back.
    token_ids: Vec<u32>,
    /// Per-entry range into `token_ids`.
    id_ranges: Vec<(u32, u32)>,
}

impl PreparedCorpus {
    /// An empty corpus.
    pub fn new() -> PreparedCorpus {
        PreparedCorpus::default()
    }

    /// Prepare `raw` and append it, returning its index.
    pub fn push(&mut self, raw: &str, interner: &mut TokenInterner) -> usize {
        let prepared = PreparedText::prepare(raw, interner);
        self.push_prepared(&prepared)
    }

    /// Append an already-prepared text, returning its index.
    pub fn push_prepared(&mut self, prepared: &PreparedText) -> usize {
        let idx = self.norm_spans.len();
        let base = self.norms.len() as u32;
        self.norms.push_str(prepared.norm());
        self.norm_spans.push((base, self.norms.len() as u32));
        let tok_start = self.token_spans.len() as u32;
        self.token_spans.extend(
            prepared
                .token_spans()
                .iter()
                .map(|&(s, e)| (base + s, base + e)),
        );
        self.token_ranges
            .push((tok_start, self.token_spans.len() as u32));
        let id_start = self.token_ids.len() as u32;
        self.token_ids.extend_from_slice(prepared.token_ids());
        self.id_ranges.push((id_start, self.token_ids.len() as u32));
        idx
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.norm_spans.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.norm_spans.is_empty()
    }

    /// The `i`-th entry's normalized form.
    pub fn norm(&self, i: usize) -> &str {
        let (s, e) = self.norm_spans[i];
        &self.norms[s as usize..e as usize]
    }

    /// The `i`-th entry's normalized tokens, in order.
    pub fn tokens(&self, i: usize) -> impl Iterator<Item = &str> {
        let (s, e) = self.token_ranges[i];
        self.token_spans[s as usize..e as usize]
            .iter()
            .map(|&(ts, te)| &self.norms[ts as usize..te as usize])
    }

    /// The `i`-th entry's sorted, deduplicated token ids.
    pub fn token_ids(&self, i: usize) -> &[u32] {
        let (s, e) = self.id_ranges[i];
        &self.token_ids[s as usize..e as usize]
    }

    fn view(&self, i: usize) -> TextView<'_> {
        let (s, e) = self.token_ranges[i];
        TextView {
            norm: self.norm(i),
            tokens: Tokens {
                text: &self.norms,
                spans: &self.token_spans[s as usize..e as usize],
            },
            ids: self.token_ids(i),
        }
    }
}

/// Score `probe` against every entry of `corpus`, appending one score per
/// candidate to `out` — each byte-identical to
/// `string_similarity(probe_raw, candidate_raw)`.
pub fn score_batch(probe: &PreparedText, corpus: &PreparedCorpus, out: &mut Vec<f64>) {
    counter!("kernel_batch_total").inc();
    let probe = probe.view();
    out.extend((0..corpus.len()).map(|i| view_similarity(probe, corpus.view(i))));
}

/// Highest score of `probe` against any corpus entry (0.0 for an empty
/// corpus), with the 1.0 short-circuit the naive loop also takes.
pub fn best_in(probe: &PreparedText, corpus: &PreparedCorpus) -> f64 {
    counter!("kernel_batch_total").inc();
    let probe = probe.view();
    let mut best = 0.0f64;
    for i in 0..corpus.len() {
        let s = view_similarity(probe, corpus.view(i));
        if s > best {
            best = s;
            if best >= 1.0 {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::string_similarity;

    const CANDIDATES: [&str; 8] = [
        "LeBron James",
        "lebron_james",
        "James LeBron",
        "ibuprofen",
        "",
        "NY Times",
        "Café MÜNCHEN über alles",
        "LeBron Jmaes",
    ];

    #[test]
    fn batch_matches_string_similarity() {
        let mut interner = TokenInterner::new();
        let mut corpus = PreparedCorpus::new();
        for c in CANDIDATES {
            corpus.push(c, &mut interner);
        }
        for probe in ["LeBron James", "", "New York Times", "cafe munchen"] {
            let prepared = PreparedText::prepare(probe, &mut interner);
            let mut scores = Vec::new();
            score_batch(&prepared, &corpus, &mut scores);
            assert_eq!(scores.len(), CANDIDATES.len());
            for (cand, got) in CANDIDATES.iter().zip(&scores) {
                let want = string_similarity(probe, cand);
                assert_eq!(got.to_bits(), want.to_bits(), "{probe:?} vs {cand:?}");
            }
        }
    }

    #[test]
    fn best_in_matches_max() {
        let mut interner = TokenInterner::new();
        let mut corpus = PreparedCorpus::new();
        for c in CANDIDATES {
            corpus.push(c, &mut interner);
        }
        let probe = PreparedText::prepare("LeBron James", &mut interner);
        let mut scores = Vec::new();
        score_batch(&probe, &corpus, &mut scores);
        let max = scores.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(best_in(&probe, &corpus), max);
    }

    #[test]
    fn corpus_roundtrips_entries() {
        let mut interner = TokenInterner::new();
        let mut corpus = PreparedCorpus::new();
        corpus.push("Hello World", &mut interner);
        corpus.push("", &mut interner);
        corpus.push("beta alpha beta", &mut interner);
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.norm(0), crate::normalize("Hello World"));
        assert_eq!(corpus.tokens(0).count(), 2);
        assert_eq!(corpus.tokens(1).count(), 0);
        assert_eq!(corpus.token_ids(2).len(), 2);
    }

    #[test]
    fn batch_counter_increments() {
        let before = counter!("kernel_batch_total").get();
        let mut interner = TokenInterner::new();
        let mut corpus = PreparedCorpus::new();
        corpus.push("x", &mut interner);
        let probe = PreparedText::prepare("x", &mut interner);
        let mut out = Vec::new();
        score_batch(&probe, &corpus, &mut out);
        score_batch(&probe, &corpus, &mut out);
        assert!(counter!("kernel_batch_total").get() >= before + 2);
    }

    #[test]
    fn batch_counter_reaches_prometheus_export() {
        let mut interner = TokenInterner::new();
        let mut corpus = PreparedCorpus::new();
        corpus.push("export probe", &mut interner);
        let probe = PreparedText::prepare("export probe", &mut interner);
        best_in(&probe, &corpus);
        let text = alex_telemetry::global().metrics().render_prometheus();
        assert!(text.contains("# TYPE kernel_batch_total counter"), "{text}");
        assert!(
            text.lines().any(|l| {
                l.strip_prefix("kernel_batch_total ")
                    .is_some_and(|v| v.parse::<u64>().is_ok_and(|n| n >= 1))
            }),
            "{text}"
        );
    }
}
