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
//!   boundaries with the id of each token, and its *sorted, deduplicated*
//!   Jaccard token-id set;
//! * [`jaccard_ids`] computes token-set Jaccard by a linear merge of two
//!   sorted id slices — no allocation, no hashing;
//! * [`PreparedValue`] wraps a [`TypedValue`] with exactly one prepared
//!   text: the lexical form `value_similarity` would compare as a string;
//! * [`prepared_similarity`] scores two prepared values **byte-identically
//!   to [`crate::value_similarity`]** on the raw values (property-tested)
//!   for every pair of value kinds, and allocates nothing per comparison
//!   of short ASCII tokens; [`prepared_similarity_with`] is the same
//!   dispatch with the caller's Monge-Elkan, for a caller that caches
//!   token-pair scores.

use std::collections::HashMap;

use alex_rdf::{Dataset, LiteralKind, Term};

use crate::combined::render;
use crate::string::normalize::token_spans;
use crate::string::{monge_elkan, normalize, tokenize, Tokens};
use crate::value::{sniff, typed_value, TypedValue};

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
    /// Byte ranges of tokens within `norm`: the Monge-Elkan tokens.
    token_spans: Box<[(u32, u32)]>,
    /// The interned id of each token of `token_spans`, in order.
    span_ids: Box<[u32]>,
    /// Sorted, deduplicated ids of the tokens `jaccard_tokens` would see
    /// (i.e. the tokens of `normalize(norm)`, matching its re-normalizing
    /// behaviour exactly).
    token_ids: Box<[u32]>,
}

impl PreparedText {
    /// Normalize and tokenize `raw`, interning its Jaccard tokens and its
    /// Monge-Elkan tokens. The Jaccard ids are compared as sets, so which
    /// other tokens the interner holds cannot change a score.
    pub fn prepare(raw: &str, interner: &mut TokenInterner) -> PreparedText {
        let norm = normalize(raw);
        let token_spans = token_spans(&norm);
        let span_ids: Vec<u32> = token_spans
            .iter()
            .map(|&(s, e)| interner.intern(&norm[s as usize..e as usize]))
            .collect();
        // `jaccard_tokens(&norm, _)` re-normalizes its input, and the
        // re-derived tokens are what it hashes. Normalization is idempotent
        // on ASCII (lowercase letters, digits and single inner spaces map
        // to themselves), so there those are the Monge-Elkan tokens; any
        // other text is normalized again.
        let mut token_ids: Vec<u32> = if norm.is_ascii() {
            span_ids.clone()
        } else {
            tokenize(&normalize(&norm))
                .into_iter()
                .map(|tok| interner.intern(tok))
                .collect()
        };
        token_ids.sort_unstable();
        token_ids.dedup();
        PreparedText {
            norm: norm.into(),
            token_spans: token_spans.into(),
            span_ids: span_ids.into(),
            token_ids: token_ids.into(),
        }
    }

    /// The `i`-th normalized token.
    pub fn token(&self, i: usize) -> &str {
        let (s, e) = self.token_spans[i];
        &self.norm[s as usize..e as usize]
    }

    /// The interned id of each normalized token, in token order, repeats
    /// included: token `i` is [`PreparedText::token`]`(i)`.
    pub fn span_ids(&self) -> &[u32] {
        &self.span_ids
    }

    /// Sorted, deduplicated token ids (the Jaccard set).
    pub fn token_ids(&self) -> &[u32] {
        &self.token_ids
    }

    /// The normalized tokens, as the string kernels read them.
    fn spans(&self) -> Tokens<'_> {
        Tokens {
            text: &self.norm,
            spans: &self.token_spans,
        }
    }
}

/// [`crate::string_similarity`]'s combination of its parts on two prepared
/// texts: 1.0 for equal normalized forms, else the larger of squared
/// Monge-Elkan (`me`, called only then) and token Jaccard.
fn combine(a: &PreparedText, b: &PreparedText, me: impl FnOnce() -> f64) -> f64 {
    if a.norm == b.norm {
        return 1.0;
    }
    let me = me();
    (me * me).max(jaccard_ids(&a.token_ids, &b.token_ids))
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
        PreparedValue::new(value, true, interner)
    }

    /// [`PreparedValue::prepare`] of the [`typed_value`] of `term` from
    /// `ds`. A plain literal is `Text` only when its sniff found text, so
    /// only a typed literal's text is sniffed again.
    pub fn of_term(ds: &Dataset, term: Term, interner: &mut TokenInterner) -> PreparedValue {
        let typed = matches!(term, Term::Literal(l) if matches!(l.kind, LiteralKind::Typed(_)));
        PreparedValue::new(typed_value(ds, term), typed, interner)
    }

    /// `value` prepared, sniffing its text when `sniff_text` is set.
    fn new(value: TypedValue, sniff_text: bool, interner: &mut TokenInterner) -> PreparedValue {
        let sniffs_typed = sniff_text
            && matches!(&value, TypedValue::Text(s) if !matches!(sniff(s), TypedValue::Text(_)));
        PreparedValue {
            text: PreparedText::prepare(&render(&value), interner),
            value,
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
}

/// Similarity of two prepared values, in [0, 1] — byte-identical to
/// [`crate::value_similarity`] on the underlying [`TypedValue`]s
/// (property-tested in `tests/properties.rs`), and bitwise symmetric.
///
/// [`prepared_similarity_with`] with Monge-Elkan over
/// [`crate::token_similarity`], each row token's pattern built once.
pub fn prepared_similarity(a: &PreparedValue, b: &PreparedValue) -> f64 {
    prepared_similarity_with(a, b, |x, y| monge_elkan(x.spans(), y.spans()))
}

/// [`prepared_similarity`] with the caller's Monge-Elkan: `monge_elkan(x,
/// y)` must return the symmetric Monge-Elkan similarity of the tokens of
/// `x` (rows) and `y` (columns) bit for bit, and is called at most once,
/// always as `(a.text(), b.text())`.
///
/// The dispatch mirrors `value_similarity` arm for arm. Every arm that
/// compares strings there compares the prepared lexical forms here; text
/// against another kind re-sniffs only a text already known to sniff as a
/// non-text kind; the numeric, temporal and boolean arms are the generic
/// ones, which allocate nothing. Only the string kernels a non-ASCII or
/// over-long token falls back to allocate. Prepared string similarity is
/// bitwise symmetric (Monge-Elkan sums each direction in token order and
/// adds the two; Jaccard is symmetric), so the arms that `value_similarity`
/// answers as `string_similarity(b, a)` are answered in `a`, `b` order.
pub fn prepared_similarity_with(
    a: &PreparedValue,
    b: &PreparedValue,
    monge_elkan: impl FnOnce(&PreparedText, &PreparedText) -> f64,
) -> f64 {
    use TypedValue as V;
    let native = match (&a.value, &b.value) {
        (V::Text(_), V::Text(_)) => None,
        (V::Iri(x), V::Iri(y)) => (x == y).then_some(1.0),
        (V::Text(_), _) => sniffed_against(a, b),
        (_, V::Text(_)) => sniffed_against(b, a),
        (V::Iri(_), _) | (_, V::Iri(_)) => None,
        _ => Some(crate::value_similarity(&a.value, &b.value)),
    };
    native.unwrap_or_else(|| combine(&a.text, &b.text, || monge_elkan(&a.text, &b.text)))
}

/// Text `t` against a value of another kind, natively, when the text
/// sniffs as that kind; `None` when it is compared by lexical form.
fn sniffed_against(t: &PreparedValue, other: &PreparedValue) -> Option<f64> {
    let TypedValue::Text(s) = &t.value else {
        return None;
    };
    if !t.sniffs_typed {
        return None;
    }
    let sniffed = sniff(s);
    (sniffed.type_name() == other.value.type_name())
        .then(|| crate::value_similarity(&sniffed, &other.value))
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
            let pa = prep(TypedValue::Text(a.into()), &mut interner);
            let pb = prep(TypedValue::Text(b.into()), &mut interner);
            let got = prepared_similarity(&pa, &pb);
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
    fn of_term_equals_prepare_of_typed_value() {
        use alex_rdf::vocab;
        let mut ds = Dataset::new("t");
        let terms = [
            ds.plain("1984"),
            ds.plain(" 42 "),
            ds.plain("LeBron James"),
            ds.typed("1984", vocab::XSD_STRING),
            ds.typed(" 42", vocab::XSD_INTEGER),
            ds.typed("forty-two", vocab::XSD_INTEGER),
            ds.typed("2010", "http://e/unknown"),
            ds.iri("http://e/LeBron_James"),
        ];
        let others = [
            TypedValue::Year(1984),
            TypedValue::Integer(42),
            TypedValue::Text("forty two".into()),
        ];
        let mut interner = TokenInterner::new();
        let others: Vec<PreparedValue> =
            others.into_iter().map(|v| prep(v, &mut interner)).collect();
        for term in terms {
            let fast = PreparedValue::of_term(&ds, term, &mut interner);
            let slow = prep(typed_value(&ds, term), &mut interner);
            assert_eq!(fast.value(), slow.value(), "{term:?}");
            assert_eq!(fast.sniffs_typed, slow.sniffs_typed, "{term:?}");
            for other in &others {
                let (a, b) = (
                    prepared_similarity(&fast, other),
                    prepared_similarity(&slow, other),
                );
                assert_eq!(a.to_bits(), b.to_bits(), "{term:?}");
            }
        }
        // The typed texts that sniff as numbers keep their native arms.
        let xsd_string = PreparedValue::of_term(&ds, terms[3], &mut interner);
        assert!(xsd_string.sniffs_typed);
        assert_eq!(prepared_similarity(&xsd_string, &others[0]), 1.0);
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
