//! Pre-normalized, pre-tokenized values: pay string preparation once.
//!
//! [`crate::string_similarity`] normalizes both inputs, tokenizes them, and
//! builds per-call `HashSet`s for Jaccard — on *every* call. Inside the
//! linking hot loops the same literals are compared millions of times, so
//! this module moves all of that to a one-time preparation step:
//!
//! * [`TokenInterner`] maps normalized tokens to dense `u32` ids shared by
//!   both data sets being compared;
//! * [`PreparedText`] stores a string's normalized form, its token
//!   boundaries, and its *sorted, deduplicated* token-id set;
//! * [`jaccard_ids`] computes token-set Jaccard by a linear merge of two
//!   sorted id slices — no allocation, no hashing;
//! * [`PreparedValue`] wraps a [`TypedValue`] with exactly one prepared
//!   text: the lexical form `value_similarity` would compare as a string;
//! * [`prepared_similarity`] scores two prepared values **byte-identically
//!   to [`crate::value_similarity`]** on the raw values (property-tested)
//!   for every pair of value kinds, and allocates nothing per comparison
//!   of short ASCII tokens.

use std::collections::HashMap;

use crate::combined::render;
use crate::string::normalize::token_spans;
use crate::string::{monge_elkan, normalize, tokenize, Tokens};
use crate::value::{sniff, TypedValue};

/// Interns normalized tokens as dense `u32` ids.
///
/// Ids are only meaningful relative to the interner that produced them;
/// both sides of a comparison must share one interner.
#[derive(Debug, Default, Clone)]
pub struct TokenInterner {
    lookup: HashMap<String, u32>,
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> TokenInterner {
        TokenInterner::default()
    }

    /// Intern `token`, returning its dense id. Idempotent.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.lookup.get(token) {
            return id;
        }
        let id = u32::try_from(self.lookup.len()).unwrap_or(u32::MAX);
        self.lookup.insert(token.to_string(), id);
        id
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.lookup.len()
    }

    /// Whether no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.lookup.is_empty()
    }
}

/// Jaccard similarity of two **sorted, deduplicated** token-id slices:
/// `|A∩B| / |A∪B|` by a single linear merge.
///
/// Matches [`crate::jaccard_tokens`] exactly when the slices hold the
/// interned normalized tokens of the two strings (both-empty ⇒ 1.0,
/// one-empty ⇒ 0.0).
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]),
        "ids must be sorted+dedup"
    );
    debug_assert!(
        b.windows(2).all(|w| w[0] < w[1]),
        "ids must be sorted+dedup"
    );
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut intersection = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

/// A string prepared for repeated comparison: normalized once, tokenized
/// once, token ids sorted once. Held in boxed slices, exactly sized: every
/// literal of both sides keeps one for the whole run.
#[derive(Debug, Clone, Default)]
pub struct PreparedText {
    norm: Box<str>,
    /// Byte ranges of tokens within `norm`.
    token_spans: Box<[(u32, u32)]>,
    /// Sorted, deduplicated ids of the tokens `jaccard_tokens` would see
    /// (i.e. the tokens of `normalize(norm)`, matching its re-normalizing
    /// behaviour exactly).
    token_ids: Box<[u32]>,
}

impl PreparedText {
    /// Normalize and tokenize `raw`, interning its Jaccard tokens.
    pub fn prepare(raw: &str, interner: &mut TokenInterner) -> PreparedText {
        let norm = normalize(raw);
        let token_spans = token_spans(&norm);
        // `jaccard_tokens(&norm, _)` re-normalizes its input; normalization
        // is idempotent for the common cases but the re-derived tokens are
        // what the oracle hashes, so intern exactly those.
        let renorm = normalize(&norm);
        let mut token_ids: Vec<u32> = tokenize(&renorm)
            .into_iter()
            .map(|tok| interner.intern(tok))
            .collect();
        token_ids.sort_unstable();
        token_ids.dedup();
        PreparedText {
            norm: norm.into(),
            token_spans: token_spans.into(),
            token_ids: token_ids.into(),
        }
    }

    /// The normalized form.
    pub fn norm(&self) -> &str {
        &self.norm
    }

    /// The normalized tokens, in order.
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.token_spans
            .iter()
            .map(|&(s, e)| &self.norm[s as usize..e as usize])
    }

    /// Byte ranges of the tokens within [`PreparedText::norm`], in order.
    pub(crate) fn token_spans(&self) -> &[(u32, u32)] {
        &self.token_spans
    }

    /// Sorted, deduplicated token ids (the Jaccard set).
    pub fn token_ids(&self) -> &[u32] {
        &self.token_ids
    }

    pub(crate) fn view(&self) -> TextView<'_> {
        TextView {
            norm: &self.norm,
            tokens: Tokens {
                text: &self.norm,
                spans: &self.token_spans,
            },
            ids: &self.token_ids,
        }
    }
}

/// Borrowed prepared text: what [`PreparedText`] and a
/// [`crate::PreparedCorpus`] entry both lend to the scoring core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TextView<'a> {
    pub(crate) norm: &'a str,
    pub(crate) tokens: Tokens<'a>,
    pub(crate) ids: &'a [u32],
}

/// The string similarity of two prepared texts, branch for branch
/// [`crate::string_similarity`] on pre-derived state, allocating only
/// where [`crate::token_similarity`] or Monge-Elkan's column buffer does.
pub(crate) fn view_similarity(a: TextView<'_>, b: TextView<'_>) -> f64 {
    if a.norm == b.norm {
        return 1.0;
    }
    let me = monge_elkan(a.tokens, b.tokens);
    (me * me).max(jaccard_ids(a.ids, b.ids))
}

/// Similarity of two prepared strings — byte-identical to
/// [`crate::string_similarity`] on the raw strings.
pub fn prepared_string_similarity(a: &PreparedText, b: &PreparedText) -> f64 {
    view_similarity(a.view(), b.view())
}

/// A [`TypedValue`] with its lexical form prepared for string comparison.
#[derive(Debug, Clone)]
pub struct PreparedValue {
    value: TypedValue,
    /// The form [`crate::value_similarity`] compares as a string: the text
    /// of a `Text` value, an IRI's local name, and the rendered lexical
    /// form of every other kind.
    text: PreparedText,
    /// A `Text` value that [`sniff`] reads as another kind, so a comparison
    /// with that kind is native rather than lexical.
    sniffs_typed: bool,
}

impl PreparedValue {
    /// Prepare `value` for repeated comparison.
    pub fn prepare(value: TypedValue, interner: &mut TokenInterner) -> PreparedValue {
        let text = PreparedText::prepare(&render(&value), interner);
        let sniffs_typed = match &value {
            TypedValue::Text(s) => !matches!(sniff(s), TypedValue::Text(_)),
            _ => false,
        };
        PreparedValue {
            value,
            text,
            sniffs_typed,
        }
    }

    /// The underlying typed value.
    pub fn value(&self) -> &TypedValue {
        &self.value
    }

    /// The prepared lexical form: the text, an IRI's local name, or the
    /// rendered number, date, year or boolean.
    pub fn text(&self) -> &PreparedText {
        &self.text
    }

    /// Whether the value is compared as a string against every kind:
    /// `Text` and `Iri` values.
    pub fn is_texty(&self) -> bool {
        matches!(self.value, TypedValue::Text(_) | TypedValue::Iri(_))
    }
}

/// Similarity of two prepared values, in [0, 1] — byte-identical to
/// [`crate::value_similarity`] on the underlying [`TypedValue`]s
/// (property-tested in `tests/properties.rs`).
///
/// The dispatch mirrors `value_similarity` arm for arm. Every arm that
/// compares strings there compares the prepared lexical forms here; text
/// against another kind re-sniffs only a text already known to sniff as a
/// non-text kind; the numeric, temporal and boolean arms are the generic
/// ones, which allocate nothing. Only the string kernels a non-ASCII or
/// over-long token falls back to allocate.
pub fn prepared_similarity(a: &PreparedValue, b: &PreparedValue) -> f64 {
    use TypedValue as V;
    match (&a.value, &b.value) {
        (V::Text(_), V::Text(_)) => prepared_string_similarity(&a.text, &b.text),
        (V::Iri(x), V::Iri(y)) => {
            if x == y {
                1.0
            } else {
                prepared_string_similarity(&a.text, &b.text)
            }
        }
        (V::Text(_), _) => text_against(a, b),
        (_, V::Text(_)) => text_against(b, a),
        (V::Iri(_), _) => prepared_string_similarity(&a.text, &b.text),
        (_, V::Iri(_)) => prepared_string_similarity(&b.text, &a.text),
        _ => crate::value_similarity(&a.value, &b.value),
    }
}

/// Text `t` against a value of another kind: natively when the text sniffs
/// as that kind, else by lexical form.
fn text_against(t: &PreparedValue, other: &PreparedValue) -> f64 {
    if let (true, TypedValue::Text(s)) = (t.sniffs_typed, &t.value) {
        let sniffed = sniff(s);
        if sniffed.type_name() == other.value.type_name() {
            return crate::value_similarity(&sniffed, &other.value);
        }
    }
    prepared_string_similarity(&t.text, &other.text)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{string_similarity, value_similarity};

    fn prep(v: TypedValue, i: &mut TokenInterner) -> PreparedValue {
        PreparedValue::prepare(v, i)
    }

    #[test]
    fn jaccard_ids_matches_hashset_semantics() {
        assert_eq!(jaccard_ids(&[], &[]), 1.0);
        assert_eq!(jaccard_ids(&[], &[1]), 0.0);
        assert_eq!(jaccard_ids(&[1, 2], &[2, 3]), 1.0 / 3.0);
        assert_eq!(jaccard_ids(&[1, 2, 3], &[1, 2, 3]), 1.0);
    }

    #[test]
    fn prepared_text_matches_string_similarity() {
        let cases = [
            ("LeBron James", "lebron_james"),
            ("New York Times", "NY Times"),
            ("ibuprofen", "semantic web"),
            ("", ""),
            ("", "abc"),
            ("Café MÜNCHEN", "cafe munchen"),
            ("a b c", "c b a"),
        ];
        let mut interner = TokenInterner::new();
        for (a, b) in cases {
            let pa = PreparedText::prepare(a, &mut interner);
            let pb = PreparedText::prepare(b, &mut interner);
            let got = prepared_string_similarity(&pa, &pb);
            let want = string_similarity(a, b);
            assert_eq!(got.to_bits(), want.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn prepared_value_matches_value_similarity_across_kinds() {
        use crate::value::Date;
        let values = [
            TypedValue::Text("LeBron James".into()),
            TypedValue::Text("1984".into()),
            TypedValue::Iri("http://e/LeBron_James".into()),
            TypedValue::Iri("http://e/ns#Miami_Heat".into()),
            TypedValue::Integer(1984),
            TypedValue::Float(3.25),
            TypedValue::Year(1984),
            TypedValue::Date(Date::parse("1984-12-30").unwrap()),
            TypedValue::Boolean(true),
        ];
        let mut interner = TokenInterner::new();
        let prepared: Vec<PreparedValue> = values
            .iter()
            .map(|v| prep(v.clone(), &mut interner))
            .collect();
        for (i, a) in prepared.iter().enumerate() {
            for (j, b) in prepared.iter().enumerate() {
                let got = prepared_similarity(a, b);
                let want = value_similarity(&values[i], &values[j]);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?} vs {:?}",
                    values[i],
                    values[j]
                );
            }
        }
    }

    #[test]
    fn token_ids_are_sorted_and_deduped() {
        let mut interner = TokenInterner::new();
        let p = PreparedText::prepare("beta alpha beta gamma alpha", &mut interner);
        let ids = p.token_ids();
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn interner_is_idempotent() {
        let mut interner = TokenInterner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        assert_ne!(a, b);
        assert_eq!(interner.intern("alpha"), a);
        assert_eq!(interner.len(), 2);
    }
}
