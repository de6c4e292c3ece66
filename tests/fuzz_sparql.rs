//! Seeded structure-aware fuzzing of the SPARQL lexer, parser and
//! serializer: ~11.5k inputs per run, deterministic under the fixed seeds.
//! Three properties:
//!
//! 1. `parse` never panics, on well-formed and mutated input alike.
//! 2. Well-formed queries round-trip: `parse(to_sparql(parse(s)))` equals
//!    `parse(s)`, and the serialization is a fixpoint, for every generated
//!    structure (UNION alternations included).
//! 3. `rewrite_sameas` is idempotent: rewriting a rewritten query changes
//!    nothing, and rewritten queries still round-trip.

use alex::sparql::{parse, rewrite_sameas, SameAsLinks};
use rand::prelude::*;

const IRIS: &[&str] = &[
    "http://ex.org/p/name",
    "http://ex.org/p/knows",
    "http://ex.org/e/alice",
    "http://ex.org/e/bob",
    "http://other.example/x#frag",
    "http://xmlns.com/foaf/0.1/mbox",
];

const LANGS: &[&str] = &["en", "fr", "de-AT"];
const DATATYPES: &[&str] = &[
    "http://www.w3.org/2001/XMLSchema#string",
    "http://www.w3.org/2001/XMLSchema#integer",
];

/// Characters a generated literal may contain — including every escape the
/// lexer understands and some multibyte text.
const LIT_CHARS: &[char] = &[
    'a', 'b', 'Z', '0', '9', ' ', '_', '-', ':', '/', 'é', 'λ', '漢', '"', '\\', '\n', '\t', '\r',
];

fn quote_literal(content: &str) -> String {
    let mut out = String::from("\"");
    for c in content.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

/// A term in the generator's abstract structure. Variables are indices so
/// the same structure can be rendered under different naming schemes.
#[derive(Clone)]
enum T {
    Var(usize),
    Iri(usize),
    Lit {
        content: String,
        lang: Option<usize>,
        datatype: Option<usize>,
    },
    Num(i64),
}

impl T {
    fn render(&self, names: &[String]) -> String {
        match self {
            T::Var(i) => format!("?{}", names[*i]),
            T::Iri(i) => format!("<{}>", IRIS[*i]),
            T::Lit {
                content,
                lang,
                datatype,
            } => {
                let mut s = quote_literal(content);
                if let Some(l) = lang {
                    s.push('@');
                    s.push_str(LANGS[*l]);
                } else if let Some(d) = datatype {
                    s.push_str("^^<");
                    s.push_str(DATATYPES[*d]);
                    s.push('>');
                }
                s
            }
            T::Num(n) => n.to_string(),
        }
    }
}

#[derive(Clone)]
struct Pat {
    s: T,
    p: T,
    o: T,
}

impl Pat {
    fn render(&self, names: &[String]) -> String {
        format!(
            "{} {} {} .",
            self.s.render(names),
            self.p.render(names),
            self.o.render(names)
        )
    }
}

/// A filter expression tree over existing variables.
#[derive(Clone)]
enum E {
    Cmp {
        var: usize,
        op: &'static str,
        rhs: T,
        stringify: bool,
    },
    Contains {
        var: usize,
        needle: String,
    },
    Not(Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
}

impl E {
    fn render(&self, names: &[String]) -> String {
        match self {
            E::Cmp {
                var,
                op,
                rhs,
                stringify,
            } => {
                let lhs = if *stringify {
                    format!("STR(?{})", names[*var])
                } else {
                    format!("?{}", names[*var])
                };
                format!("{lhs} {op} {}", rhs.render(names))
            }
            E::Contains { var, needle } => {
                format!("CONTAINS(?{}, {})", names[*var], quote_literal(needle))
            }
            E::Not(inner) => format!("!({})", inner.render(names)),
            E::And(a, b) => format!("({}) && ({})", a.render(names), b.render(names)),
            E::Or(a, b) => format!("({}) || ({})", a.render(names), b.render(names)),
        }
    }
}

/// A whole query, abstract enough to re-render under renamings and
/// reorderings of its commutative parts.
struct Structure {
    ask: bool,
    distinct: bool,
    star: bool,
    n_vars: usize,
    selection: Vec<usize>,
    required: Vec<Pat>,
    filters: Vec<E>,
    unions: Vec<Vec<Vec<Pat>>>,
    optionals: Vec<Vec<Pat>>,
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
}

impl Structure {
    /// Render to SPARQL text, naming variable `i` as `?v{i}`.
    fn render(&self) -> String {
        let names: Vec<String> = (0..self.n_vars).map(|i| format!("v{i}")).collect();
        let names = &names;
        let mut q = String::new();
        if self.ask {
            q.push_str("ASK {");
        } else {
            q.push_str("SELECT ");
            if self.distinct {
                q.push_str("DISTINCT ");
            }
            if self.star {
                q.push('*');
            } else {
                let vars: Vec<String> = self
                    .selection
                    .iter()
                    .map(|&i| format!("?{}", names[i]))
                    .collect();
                q.push_str(&vars.join(" "));
            }
            q.push_str(" WHERE {");
        }
        for p in &self.required {
            q.push(' ');
            q.push_str(&p.render(names));
        }
        for branches in &self.unions {
            let rendered: Vec<String> = branches
                .iter()
                .map(|branch| {
                    let pats: Vec<String> = branch.iter().map(|p| p.render(names)).collect();
                    format!("{{ {} }}", pats.join(" "))
                })
                .collect();
            q.push(' ');
            q.push_str(&rendered.join(" UNION "));
        }
        for f in &self.filters {
            q.push_str(&format!(" FILTER({})", f.render(names)));
        }
        for group in &self.optionals {
            q.push_str(" OPTIONAL {");
            for p in group {
                q.push(' ');
                q.push_str(&p.render(names));
            }
            q.push_str(" }");
        }
        q.push_str(" }");
        if !self.ask {
            if !self.order.is_empty() {
                q.push_str(" ORDER BY");
                for &(v, desc) in &self.order {
                    let dir = if desc { "DESC" } else { "ASC" };
                    q.push_str(&format!(" {dir}(?{})", names[v]));
                }
            }
            if let Some(n) = self.limit {
                q.push_str(&format!(" LIMIT {n}"));
            }
        }
        q
    }
}

fn gen_literal(rng: &mut StdRng) -> T {
    let len = rng.random_range(0..8);
    let content: String = (0..len)
        .map(|_| *LIT_CHARS.choose(rng).expect("non-empty"))
        .collect();
    let (lang, datatype) = match rng.random_range(0u8..4) {
        0 => (Some(rng.random_range(0..LANGS.len())), None),
        1 => (None, Some(rng.random_range(0..DATATYPES.len()))),
        _ => (None, None),
    };
    T::Lit {
        content,
        lang,
        datatype,
    }
}

fn gen_object(rng: &mut StdRng, n_vars: usize) -> T {
    match rng.random_range(0u8..4) {
        0 => T::Var(rng.random_range(0..n_vars)),
        1 => T::Iri(rng.random_range(0..IRIS.len())),
        2 => T::Num(rng.random_range(-100i64..1000)),
        _ => gen_literal(rng),
    }
}

fn gen_pattern(rng: &mut StdRng, n_vars: usize) -> Pat {
    let s = if rng.random_bool(0.7) {
        T::Var(rng.random_range(0..n_vars))
    } else {
        T::Iri(rng.random_range(0..IRIS.len()))
    };
    let p = if rng.random_bool(0.2) {
        T::Var(rng.random_range(0..n_vars))
    } else {
        T::Iri(rng.random_range(0..IRIS.len()))
    };
    Pat {
        s,
        p,
        o: gen_object(rng, n_vars),
    }
}

fn gen_expr(rng: &mut StdRng, n_vars: usize, depth: usize) -> E {
    if depth > 0 && rng.random_bool(0.4) {
        let a = Box::new(gen_expr(rng, n_vars, depth - 1));
        match rng.random_range(0u8..3) {
            0 => E::Not(a),
            1 => E::And(a, Box::new(gen_expr(rng, n_vars, depth - 1))),
            _ => E::Or(a, Box::new(gen_expr(rng, n_vars, depth - 1))),
        }
    } else if rng.random_bool(0.3) {
        let len = rng.random_range(1..5);
        let needle: String = (0..len)
            .map(|_| *LIT_CHARS.choose(rng).expect("non-empty"))
            .collect();
        E::Contains {
            var: rng.random_range(0..n_vars),
            needle,
        }
    } else {
        let op = *["=", "!=", "<", "<=", ">", ">="]
            .choose(rng)
            .expect("non-empty");
        let rhs = if rng.random_bool(0.4) {
            T::Num(rng.random_range(-10i64..100))
        } else {
            gen_literal(rng)
        };
        E::Cmp {
            var: rng.random_range(0..n_vars),
            op,
            rhs,
            stringify: rng.random_bool(0.2),
        }
    }
}

fn gen_structure(rng: &mut StdRng) -> Structure {
    let n_vars = rng.random_range(1..6);
    let ask = rng.random_bool(0.15);
    let n_required = rng.random_range(1..5);
    let required: Vec<Pat> = (0..n_required).map(|_| gen_pattern(rng, n_vars)).collect();
    let n_filters = rng.random_range(0..3);
    let filters: Vec<E> = (0..n_filters).map(|_| gen_expr(rng, n_vars, 2)).collect();
    let n_unions = rng.random_range(0..3);
    let unions: Vec<Vec<Vec<Pat>>> = (0..n_unions)
        .map(|_| {
            (0..rng.random_range(2..4))
                .map(|_| {
                    (0..rng.random_range(1..3))
                        .map(|_| gen_pattern(rng, n_vars))
                        .collect()
                })
                .collect()
        })
        .collect();
    let n_optionals = rng.random_range(0..3);
    let optionals: Vec<Vec<Pat>> = (0..n_optionals)
        .map(|_| {
            (0..rng.random_range(1..3))
                .map(|_| gen_pattern(rng, n_vars))
                .collect()
        })
        .collect();
    let star = !ask && rng.random_bool(0.2);
    let mut selection: Vec<usize> = (0..n_vars).filter(|_| rng.random_bool(0.6)).collect();
    if selection.is_empty() {
        selection.push(rng.random_range(0..n_vars));
    }
    let order = if ask || rng.random_bool(0.6) {
        Vec::new()
    } else {
        (0..rng.random_range(1..3))
            .map(|_| (rng.random_range(0..n_vars), rng.random_bool(0.5)))
            .collect()
    };
    let limit = if !ask && rng.random_bool(0.3) {
        Some(rng.random_range(1..500))
    } else {
        None
    };
    Structure {
        ask,
        distinct: !ask && rng.random_bool(0.3),
        star,
        n_vars,
        selection,
        required,
        filters,
        unions,
        optionals,
        order,
        limit,
    }
}

/// ~4k structure-aware queries: parse → serialize → parse is the identity
/// and serialization is a fixpoint.
#[test]
fn generated_queries_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xA1EF_5EED);
    for case in 0..4000u32 {
        let text = gen_structure(&mut rng).render();

        let q = parse(&text).unwrap_or_else(|e| {
            panic!("case {case}: generator emitted invalid SPARQL: {e}\n{text}")
        });

        // Round trip and fixpoint.
        let serialized = q.to_sparql();
        let q2 = parse(&serialized).unwrap_or_else(|e| {
            panic!("case {case}: serialization does not reparse: {e}\n{text}\n-> {serialized}")
        });
        assert_eq!(
            q, q2,
            "case {case}: round trip changed the AST\n{text}\n-> {serialized}"
        );
        assert_eq!(
            serialized,
            q2.to_sparql(),
            "case {case}: serialization is not a fixpoint"
        );
    }
}

/// ~1.5k structures against a fixed sameAs closure over the IRI pool:
/// `rewrite_sameas` must be *idempotent* — rewriting an already rewritten
/// query changes neither the text nor the AST and introduces zero new
/// rewrites — and every rewritten query must still round-trip through
/// the serializer.
#[test]
fn sameas_rewriting_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x5A3E_A55E);
    // Two of the pool IRIs get equivalents (one of them two), so generated
    // constants regularly trigger single- and multi-alternative rewrites.
    let links = SameAsLinks::from_pairs(vec![
        ("http://ex.org/e/alice", "http://other.example/x#frag"),
        ("http://ex.org/e/alice", "http://xmlns.com/foaf/0.1/mbox"),
        ("http://ex.org/e/bob", "http://ex.org/p/knows"),
    ]);

    let mut rewrote = 0u64;
    for case in 0..1500u32 {
        let text = gen_structure(&mut rng).render();
        let q = parse(&text).expect("generator emits valid SPARQL");

        let first = rewrite_sameas(&q, &links);
        rewrote += first.rewritten_patterns();

        // The rewritten query is still well-formed: serialize → reparse is
        // the identity.
        let serialized = first.query().to_sparql();
        let reparsed = parse(&serialized).unwrap_or_else(|e| {
            panic!("case {case}: rewritten query does not reparse: {e}\n{text}\n-> {serialized}")
        });
        assert_eq!(
            first.query(),
            &reparsed,
            "case {case}: rewritten query round trip changed the AST"
        );

        // Idempotence: a second rewrite is a pure pass-through.
        let second = rewrite_sameas(first.query(), &links);
        assert_eq!(
            second.rewritten_patterns(),
            0,
            "case {case}: re-rewriting found new patterns\n{serialized}"
        );
        assert_eq!(
            second.query().to_sparql(),
            serialized,
            "case {case}: re-rewriting changed the text"
        );
        assert_eq!(
            second.query(),
            first.query(),
            "case {case}: re-rewriting changed the AST"
        );
        assert_eq!(second.generation(), first.generation());
    }
    // Sanity: the closure must actually fire on a healthy fraction of the
    // corpus, or idempotence is tested against no-ops only.
    assert!(
        rewrote > 100,
        "only {rewrote} patterns rewritten in 1500 queries"
    );
}

/// ~6k char-level mutations of valid queries: the lexer/parser must never
/// panic, and whenever a mutant still parses, it must still round-trip
/// through the serializer without panicking.
#[test]
fn mutated_queries_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF022_5EED);
    // A corpus of valid queries to mutate.
    let corpus: Vec<String> = (0..200).map(|_| gen_structure(&mut rng).render()).collect();

    const MUTATION_CHARS: &[char] = &[
        '?', '{', '}', '<', '>', '"', '\\', '.', ';', ',', ' ', '(', ')', '@', '^', '!', '&', '|',
        '*', 'a', 'Z', '0', '\n', '\t', 'é', '∀', '💥', '\u{0}',
    ];

    let mut parsed_ok = 0usize;
    for _ in 0..6000u32 {
        let base = corpus.choose(&mut rng).expect("corpus non-empty");
        let mut chars: Vec<char> = base.chars().collect();
        for _ in 0..rng.random_range(1..4) {
            match rng.random_range(0u8..3) {
                0 if !chars.is_empty() => {
                    // delete
                    let i = rng.random_range(0..chars.len());
                    chars.remove(i);
                }
                1 if !chars.is_empty() => {
                    // replace
                    let i = rng.random_range(0..chars.len());
                    chars[i] = *MUTATION_CHARS.choose(&mut rng).expect("non-empty");
                }
                _ => {
                    // insert
                    let i = rng.random_range(0..=chars.len());
                    chars.insert(i, *MUTATION_CHARS.choose(&mut rng).expect("non-empty"));
                }
            }
        }
        let mutant: String = chars.into_iter().collect();
        // Must not panic — Ok or Err are both acceptable.
        if let Ok(q) = parse(&mutant) {
            parsed_ok += 1;
            // Anything the parser accepts must be serializable, and the
            // serialization must reparse to the same AST (the parser has
            // no syntax the serializer loses).
            let serialized = q.to_sparql();
            let q2 = parse(&serialized).unwrap_or_else(|e| {
                panic!("accepted mutant does not round-trip: {e}\n{mutant}\n-> {serialized}")
            });
            assert_eq!(
                q, q2,
                "mutant round trip changed the AST\n{mutant}\n-> {serialized}"
            );
        }
    }
    // Sanity: single-char mutations leave plenty of still-valid queries;
    // if nothing parsed the mutator is broken and the test proves nothing.
    assert!(parsed_ok > 100, "only {parsed_ok}/6000 mutants parsed");
}
