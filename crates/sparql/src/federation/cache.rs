//! Answer-cache glue between the federated executor and [`alex_cache`].
//!
//! The executor caches one entry per endpoint probe: the rows one
//! endpoint returned for one resolved (s, p, o) pattern, keyed by the
//! endpoint name and the three positions. An endpoint's answer to a probe
//! depends only on that endpoint's data, never on the sameAs link index:
//! links decide *which* probes a query sends, not what a probe returns.
//! So a link mutation never stales an entry, and entries leave the cache
//! only through LRU eviction.

use alex_cache::AnswerCache;

use super::endpoint::{Probe, Rows};

/// The executor's cache instantiation: one entry per endpoint probe.
pub(crate) type FederationCache = AnswerCache<Rows>;

/// Append one length-prefixed component to a key. The prefix makes the
/// concatenation injective: no two component lists can collide by
/// boundary shifting.
fn push_sig(out: &mut String, s: &str) {
    out.push_str(&s.len().to_string());
    out.push(':');
    out.push_str(s);
    out.push(';');
}

/// The cache key of `probe` on `endpoint`: the endpoint name, then each
/// position's display form (`*;` for a wildcard).
pub(crate) fn probe_key(endpoint: &str, probe: &Probe<'_>) -> String {
    let mut key = String::new();
    push_sig(&mut key, endpoint);
    for position in probe {
        match position {
            None => key.push_str("*;"),
            Some(v) => push_sig(&mut key, &v.to_string()),
        }
    }
    key
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn signatures_are_injective_across_boundaries() {
        // "ab" + "c" vs "a" + "bc" must not produce the same key.
        let (ab, c) = (Value::plain("ab"), Value::plain("c"));
        let (a, bc) = (Value::plain("a"), Value::plain("bc"));
        let one = [Some(&ab), Some(&c), None];
        let two = [Some(&a), Some(&bc), None];
        assert_ne!(probe_key("e", &one), probe_key("e", &two));
        // Endpoint name cannot bleed into the signature either.
        assert_ne!(probe_key("e1", &one), probe_key("e", &one));
        // A wildcard never aliases a bound position.
        let star = Value::plain("*");
        assert_ne!(
            probe_key("e", &[None, None, None]),
            probe_key("e", &[Some(&star), None, None])
        );
    }
}
