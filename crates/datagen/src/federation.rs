//! Coverage-skewed federation scenarios for the smarter-federation gates.
//!
//! The endpoint catalog (`alex-sparql::federation::catalog`) pays off when
//! sources have *skewed* predicate coverage: each endpoint can answer only
//! a small slice of the workload, so a broadcast wastes most of its probes.
//! This module generates exactly that shape, deterministically:
//!
//! * a **hub** endpoint holding every anchor entity with a distinguishing
//!   `key` literal, and
//! * `shards` **attribute shards**, each holding a disjoint predicate
//!   (`http://shard{s}…/detail`) and a disjoint class, over entities that
//!   are `owl:sameAs`-linked to the hub anchors.
//!
//! Every generated [`HopQuery`] anchors on the hub and asks for a shard
//! attribute, so (a) answering it **requires** crossing exactly one sameAs
//! link — recall over the workload measures link-closure convergence — and
//! (b) its attribute pattern is answerable by exactly one of the
//! `shards + 1` endpoints, so a coverage catalog can prune the rest while
//! a broadcast probes them all.

use alex_rdf::Dataset;
use rand::prelude::*;

/// The one vocabulary IRI the scenario shares with real RDF: each side
/// types its entities so class-based pruning is exercised too.
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Shape of a generated federation scenario.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Hub anchor entities (= sameAs links = queries).
    pub entities: usize,
    /// Attribute shards; each holds `entities / shards` of the records.
    pub shards: usize,
    /// Everything (key/detail values, workload order) derives from this.
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            entities: 40,
            shards: 4,
            seed: 7,
        }
    }
}

/// A workload query that can only be answered across one sameAs link.
#[derive(Debug, Clone)]
pub struct HopQuery {
    /// The SPARQL text (`SELECT ?v WHERE { anchor . detail }`).
    pub sparql: String,
    /// The (hub IRI, shard IRI) link the answer must cross.
    pub link: (String, String),
    /// The ground-truth value of `?v`.
    pub expected: String,
    /// Which shard holds the answer (0-based).
    pub shard: usize,
}

/// A generated coverage-skewed federation: hub + shards + ground truth.
#[derive(Debug, Clone)]
pub struct FederationScenario {
    /// The anchor endpoint (`Hub`): `key` literals and the `Anchor` class.
    pub hub: Dataset,
    /// The attribute shards (`Shard0`, `Shard1`, …), disjoint predicates.
    pub shards: Vec<Dataset>,
    /// The full ground-truth sameAs closure, (hub IRI, shard IRI) pairs,
    /// in entity order (stable across runs with the same seed).
    pub links: Vec<(String, String)>,
    /// One query per entity, shuffled into a seeded workload order.
    pub queries: Vec<HopQuery>,
}

impl FederationScenario {
    /// Hub first, then the shards — the order endpoints should be
    /// registered in so scenario runs are comparable.
    pub fn endpoints(&self) -> impl Iterator<Item = &Dataset> {
        std::iter::once(&self.hub).chain(self.shards.iter())
    }
}

/// Generate a coverage-skewed federation scenario. Deterministic in
/// `cfg.seed`: the same configuration always yields byte-identical
/// datasets, links, and workload order.
pub fn federation_scenario(cfg: &FederationConfig) -> FederationScenario {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFEDE_2A7E);
    let shard_count = cfg.shards.max(1);
    let mut hub = Dataset::new("Hub");
    let mut shards: Vec<Dataset> = (0..shard_count)
        .map(|s| Dataset::new(format!("Shard{s}")))
        .collect();
    let mut links = Vec::with_capacity(cfg.entities);
    let mut queries = Vec::with_capacity(cfg.entities);

    for i in 0..cfg.entities {
        let s = i % shard_count;
        let hub_iri = format!("http://hub.example.org/e{i}");
        let shard_iri = format!("http://shard{s}.example.org/e{i}");
        // Random suffixes keep values non-guessable from the index while
        // staying a pure function of the seed.
        let key = format!("K{:04}-{:04x}", i, rng.random_range(0..0x10000u32));
        let detail = format!("D{:04}-{:04x}", i, rng.random_range(0..0x10000u32));
        let detail_pred = format!("http://shard{s}.example.org/detail");

        hub.add_str(&hub_iri, "http://hub.example.org/key", &key);
        hub.add_iri(&hub_iri, RDF_TYPE, "http://hub.example.org/Anchor");
        shards[s].add_str(&shard_iri, &detail_pred, &detail);
        shards[s].add_iri(
            &shard_iri,
            RDF_TYPE,
            &format!("http://shard{s}.example.org/Record"),
        );

        links.push((hub_iri.clone(), shard_iri.clone()));
        queries.push(HopQuery {
            sparql: format!(
                "SELECT ?v WHERE {{ ?e <http://hub.example.org/key> \"{key}\" . \
                 ?e <{detail_pred}> ?v }}"
            ),
            link: (hub_iri, shard_iri),
            expected: detail,
            shard: s,
        });
    }
    queries.shuffle(&mut rng);
    FederationScenario {
        hub,
        shards,
        links,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_sparql::{parse, DatasetEndpoint, FederatedEngine, SameAsLinks};

    fn scenario() -> FederationScenario {
        federation_scenario(&FederationConfig::default())
    }

    fn engine_over(sc: &FederationScenario, links: &[(String, String)]) -> FederatedEngine {
        let mut engine = FederatedEngine::new();
        for ds in sc.endpoints() {
            engine.add_endpoint(Box::new(DatasetEndpoint::new(ds.clone())));
        }
        engine.set_links(SameAsLinks::from_pairs(
            links.iter().map(|(l, r)| (l.as_str(), r.as_str())),
        ));
        engine
    }

    #[test]
    fn deterministic_in_seed() {
        let a = scenario();
        let b = scenario();
        assert_eq!(a.links, b.links);
        assert_eq!(
            a.queries.iter().map(|q| &q.sparql).collect::<Vec<_>>(),
            b.queries.iter().map(|q| &q.sparql).collect::<Vec<_>>()
        );
        let c = federation_scenario(&FederationConfig {
            seed: 8,
            ..FederationConfig::default()
        });
        assert_ne!(
            a.queries.iter().map(|q| &q.sparql).collect::<Vec<_>>(),
            c.queries.iter().map(|q| &q.sparql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn coverage_is_disjoint_across_shards() {
        let sc = scenario();
        assert_eq!(sc.endpoints().count(), 5);
        for (s, ds) in sc.shards.iter().enumerate() {
            let preds: Vec<String> = ds
                .graph()
                .predicates()
                .map(|p| ds.resolve(p).to_string())
                .collect();
            for p in &preds {
                assert!(
                    p == RDF_TYPE || p.contains(&format!("shard{s}.")),
                    "shard {s} leaked predicate {p}"
                );
            }
        }
    }

    #[test]
    fn answers_require_exactly_their_link() {
        let sc = scenario();
        // Full closure: every query answers with its expected value and
        // credits its own link as provenance.
        let engine = engine_over(&sc, &sc.links);
        for q in sc.queries.iter().take(8) {
            let query = parse(&q.sparql).expect("generated SPARQL parses");
            let answers = engine.execute(&query).expect("evaluates");
            assert_eq!(answers.len(), 1, "{}", q.sparql);
            assert_eq!(
                answers[0].bindings.get("v").map(ToString::to_string),
                Some(format!("\"{}\"", q.expected))
            );
            assert_eq!(answers[0].links_used.len(), 1);
            assert_eq!(
                (
                    answers[0].links_used[0].left.clone(),
                    answers[0].links_used[0].right.clone()
                ),
                q.link
            );
        }
        // Without any links the whole workload is unanswerable.
        let bare = engine_over(&sc, &[]);
        for q in sc.queries.iter().take(8) {
            let query = parse(&q.sparql).expect("parses");
            assert!(bare.execute(&query).expect("evaluates").is_empty());
        }
    }

    #[test]
    fn recall_grows_with_the_closure() {
        let sc = scenario();
        let answered = |n: usize| -> usize {
            let engine = engine_over(&sc, &sc.links[..n]);
            sc.queries
                .iter()
                .filter(|q| {
                    let query = parse(&q.sparql).expect("parses");
                    !engine.execute(&query).expect("evaluates").is_empty()
                })
                .count()
        };
        assert_eq!(answered(0), 0);
        assert_eq!(answered(sc.links.len() / 2), sc.links.len() / 2);
        assert_eq!(answered(sc.links.len()), sc.links.len());
    }
}
