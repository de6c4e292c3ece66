//! String normalization and tokenization shared by the string similarity
//! measures.
//!
//! RDF values across data sets differ in case, punctuation, and spacing
//! ("LeBron James" vs "lebron_james"). All string measures operate on the
//! normalized form so those superficial differences do not mask equality.

/// Lowercase, map punctuation/underscores to spaces, and collapse whitespace.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.chars() {
        let mapped = if c.is_alphanumeric() {
            Some(c.to_lowercase().next().unwrap_or(c))
        } else if c.is_whitespace() || c == '_' || c == '-' || c == '.' || c == ',' || c == '\'' {
            None
        } else {
            // Other punctuation is dropped entirely.
            continue;
        };
        match mapped {
            Some(c) => {
                out.push(c);
                last_space = false;
            }
            None => {
                if !last_space {
                    out.push(' ');
                    last_space = true;
                }
            }
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Split a normalized string into tokens.
pub fn tokenize(s: &str) -> Vec<&str> {
    s.split(' ').filter(|t| !t.is_empty()).collect()
}

/// Byte ranges within `s` of the tokens [`tokenize`] returns, in order.
pub(crate) fn token_spans(s: &str) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for part in s.split(' ') {
        if !part.is_empty() {
            spans.push((start as u32, (start + part.len()) as u32));
        }
        start += part.len() + 1;
    }
    spans
}

/// Normalize then tokenize in one step, returning owned tokens.
pub fn normalized_tokens(s: &str) -> Vec<String> {
    tokenize(&normalize(s))
        .into_iter()
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases() {
        assert_eq!(normalize("LeBron James"), "lebron james");
    }

    #[test]
    fn maps_separators_to_spaces() {
        assert_eq!(normalize("lebron_james"), "lebron james");
        assert_eq!(normalize("new-york,ny"), "new york ny");
    }

    #[test]
    fn collapses_whitespace() {
        assert_eq!(normalize("  a   b  "), "a b");
    }

    #[test]
    fn drops_other_punctuation() {
        assert_eq!(normalize("(The) [Best]!"), "the best");
    }

    #[test]
    fn tokenize_skips_empties() {
        assert_eq!(tokenize("a b"), vec!["a", "b"]);
        assert_eq!(tokenize(""), Vec::<&str>::new());
    }

    #[test]
    fn token_spans_match_tokenize() {
        for s in ["a b", "", " lead  double trail ", "café münchen"] {
            let spans: Vec<&str> = token_spans(s)
                .into_iter()
                .map(|(a, b)| &s[a as usize..b as usize])
                .collect();
            assert_eq!(spans, tokenize(s), "{s:?}");
        }
    }

    #[test]
    fn normalized_tokens_pipeline() {
        assert_eq!(
            normalized_tokens("LeBron_James Jr."),
            vec!["lebron", "james", "jr"]
        );
    }

    #[test]
    fn unicode_preserved() {
        assert_eq!(normalize("Café MÜNCHEN"), "café münchen");
    }
}
