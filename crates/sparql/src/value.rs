//! Owned RDF values for query results.
//!
//! Terms inside a [`alex_rdf::Dataset`] are interned symbols that only make
//! sense relative to that data set's interner. Federated query processing
//! joins rows *across* data sets, so results use self-contained [`Value`]s.

use std::fmt;

use alex_rdf::{Dataset, LiteralKind, Term};

/// A self-contained RDF value, comparable across data sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An IRI.
    Iri(String),
    /// A blank node label (scoped to its source data set in practice).
    Blank(String),
    /// A literal with optional language tag or datatype IRI.
    Literal {
        /// Lexical form.
        lexical: String,
        /// Language tag, if any.
        lang: Option<String>,
        /// Datatype IRI, if any.
        datatype: Option<String>,
    },
}

impl Value {
    /// A plain literal.
    pub fn plain(lexical: impl Into<String>) -> Value {
        Value::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: None,
        }
    }

    /// A datatyped literal.
    pub fn typed(lexical: impl Into<String>, datatype: impl Into<String>) -> Value {
        Value::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }

    /// An IRI value.
    pub fn iri(iri: impl Into<String>) -> Value {
        Value::Iri(iri.into())
    }

    /// Whether this value is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Value::Iri(_))
    }

    /// The IRI text, if this is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Value::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The lexical form for literals, or the IRI/blank label otherwise.
    pub fn lexical(&self) -> &str {
        match self {
            Value::Iri(s) | Value::Blank(s) => s,
            Value::Literal { lexical, .. } => lexical,
        }
    }

    /// Parse as a number, if the lexical form permits.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Literal { lexical, .. } => lexical.trim().parse().ok(),
            _ => None,
        }
    }

    /// Resolve a dataset-local term into an owned value.
    pub fn from_term(ds: &Dataset, term: Term) -> Value {
        match term {
            Term::Iri(s) => Value::Iri(ds.resolve_sym(s).to_string()),
            Term::Blank(s) => Value::Blank(format!("{}#{}", ds.name(), ds.resolve_sym(s))),
            Term::Literal(l) => Value::Literal {
                lexical: ds.resolve_sym(l.lexical).to_string(),
                lang: match l.kind {
                    LiteralKind::Lang(t) => Some(ds.resolve_sym(t).to_string()),
                    _ => None,
                },
                datatype: match l.kind {
                    LiteralKind::Typed(dt) => Some(ds.resolve_sym(dt).to_string()),
                    _ => None,
                },
            },
        }
    }

    /// Look up this value as an existing term of `ds` without interning.
    /// Returns `None` when the value does not occur in the data set.
    pub fn lookup_term(&self, ds: &Dataset) -> Option<Term> {
        let interner = ds.interner();
        match self {
            Value::Iri(s) => interner.get(s).map(Term::Iri),
            Value::Blank(s) => {
                let local = s.rsplit('#').next().unwrap_or(s);
                interner.get(local).map(Term::Blank)
            }
            Value::Literal {
                lexical,
                lang,
                datatype,
            } => {
                let lex = interner.get(lexical)?;
                let kind = match (lang, datatype) {
                    (Some(tag), _) => LiteralKind::Lang(interner.get(tag)?),
                    (None, Some(dt)) => LiteralKind::Typed(interner.get(dt)?),
                    (None, None) => LiteralKind::Plain,
                };
                Some(Term::Literal(alex_rdf::Literal { lexical: lex, kind }))
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Iri(s) => write!(f, "<{s}>"),
            Value::Blank(s) => write!(f, "_:{s}"),
            Value::Literal {
                lexical,
                lang,
                datatype,
            } => {
                write!(f, "\"{lexical}\"")?;
                if let Some(tag) = lang {
                    write!(f, "@{tag}")?;
                }
                if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::vocab;

    #[test]
    fn round_trip_iri() {
        let mut ds = Dataset::new("t");
        let t = ds.iri("http://e/x");
        let v = Value::from_term(&ds, t);
        assert_eq!(v, Value::iri("http://e/x"));
        assert_eq!(v.lookup_term(&ds), Some(t));
    }

    #[test]
    fn round_trip_typed_literal() {
        let mut ds = Dataset::new("t");
        let t = ds.typed("42", vocab::XSD_INTEGER);
        let v = Value::from_term(&ds, t);
        assert_eq!(v.as_number(), Some(42.0));
        assert_eq!(v.lookup_term(&ds), Some(t));
    }

    #[test]
    fn round_trip_lang_literal() {
        let mut ds = Dataset::new("t");
        let t = ds.lang("bonjour", "fr");
        let v = Value::from_term(&ds, t);
        assert_eq!(
            v,
            Value::Literal {
                lexical: "bonjour".into(),
                lang: Some("fr".into()),
                datatype: None
            }
        );
        assert_eq!(v.lookup_term(&ds), Some(t));
    }

    #[test]
    fn lookup_missing_returns_none() {
        let ds = Dataset::new("t");
        assert_eq!(Value::iri("http://nope").lookup_term(&ds), None);
        assert_eq!(Value::plain("nope").lookup_term(&ds), None);
    }

    #[test]
    fn blank_nodes_are_dataset_scoped() {
        let mut a = Dataset::new("A");
        let mut b = Dataset::new("B");
        let ta = Term::Blank(a.interner_mut().intern("b0"));
        let tb = Term::Blank(b.interner_mut().intern("b0"));
        assert_ne!(Value::from_term(&a, ta), Value::from_term(&b, tb));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::iri("http://e/x").to_string(), "<http://e/x>");
        assert_eq!(Value::plain("hi").to_string(), "\"hi\"");
        assert_eq!(
            Value::typed("1", vocab::XSD_INTEGER).to_string(),
            format!("\"1\"^^<{}>", vocab::XSD_INTEGER)
        );
    }

    #[test]
    fn as_number_rejects_text() {
        assert_eq!(Value::plain("abc").as_number(), None);
        assert_eq!(Value::iri("http://e/1").as_number(), None);
        assert_eq!(Value::plain(" 2.5 ").as_number(), Some(2.5));
    }
}
