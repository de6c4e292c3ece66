//! The federated query executor.
//!
//! FedX-style evaluation over in-process endpoints: per-pattern source
//! selection, greedy variable-counting join ordering, bound nested-loop
//! joins, and — the part ALEX depends on — `owl:sameAs` expansion with
//! per-answer link provenance. When a pattern's subject or object is bound
//! to an IRI, the executor also probes every sameAs-equivalent IRI; any
//! answer produced through an equivalent records the link that enabled it.
//!
//! Endpoints are treated as unreliable: every probe runs under the
//! engine's [`ResilienceConfig`] — bounded retries with jittered
//! exponential backoff for transient errors, a per-endpoint circuit
//! breaker, and a per-request deadline. Each endpoint gets the probes of
//! one (pattern, partial solution) as one request; a failure resends the
//! rest from the probe that failed. A source that stays down past its
//! allowance is skipped for the rest of the query and the result degrades
//! gracefully: remaining sources still answer, and both the query-level
//! [`FederatedResult`] and each [`QueryAnswer`] carry a [`Completeness`]
//! marker naming the skipped sources.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alex_telemetry::{counter, emit, span, Event};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ast::{Query, TermPattern, TriplePattern};
use crate::error::{Result, SparqlError};
use crate::expr::{eval_expr, expr_variables, Bindings};
use crate::value::Value;

use super::cache::{CacheInvalidator, CacheProbe, CachedRows, FederationCache};
use super::catalog::Catalog;
use super::endpoint::{Endpoint, Probe, Rows};
use super::links::{Link, SameAsLinks};
use super::resilience::{
    BreakerState, CircuitBreaker, Completeness, Deadline, EndpointError, ResilienceConfig,
};
use super::rewrite::{rewrite_sameas, RewrittenQuery};

/// One answer row: the projected bindings plus the sameAs links used to
/// produce it. Feedback on the answer is feedback on those links (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Variable bindings, projected per the query's SELECT clause.
    pub bindings: Bindings,
    /// The sameAs links that bridged data sets for this answer, in stored
    /// orientation. Empty for single-source answers.
    pub links_used: Vec<Link>,
    /// Whether every registered source contributed, or some were skipped.
    /// A partial answer may be missing join partners, so consumers (the RL
    /// loop in particular) should not treat it as negative evidence.
    pub completeness: Completeness,
}

/// A query result with query-level completeness provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedResult {
    /// The answer rows (each also carries the completeness marker).
    pub answers: Vec<QueryAnswer>,
    /// `Complete` when every source answered every probe; `Partial` with
    /// the skipped source names otherwise.
    pub completeness: Completeness,
}

impl FederatedResult {
    /// Whether no source was skipped while computing this result.
    pub fn is_complete(&self) -> bool {
        self.completeness.is_complete()
    }
}

/// A federation of endpoints plus the sameAs link index.
pub struct FederatedEngine {
    endpoints: Vec<Box<dyn Endpoint>>,
    links: SameAsLinks,
    resilience: ResilienceConfig,
    /// One breaker per endpoint (same order). Behind mutexes because
    /// `execute` takes `&self`.
    breakers: Vec<Mutex<CircuitBreaker>>,
    /// Backoff-jitter RNG, seeded from the resilience config.
    jitter_rng: Mutex<StdRng>,
    /// Optional answer cache (per-endpoint sub-query batches). Behind an
    /// `Arc` because the link index holds an invalidator pointing at it.
    cache: Option<Arc<FederationCache>>,
    /// Optional coverage catalog: with it set, endpoints provably unable
    /// to answer a pattern are pruned instead of probed.
    catalog: Option<Catalog>,
}

impl Default for FederatedEngine {
    fn default() -> Self {
        let resilience = ResilienceConfig::default();
        FederatedEngine {
            endpoints: Vec::new(),
            links: SameAsLinks::default(),
            jitter_rng: Mutex::new(StdRng::seed_from_u64(resilience.seed)),
            breakers: Vec::new(),
            resilience,
            cache: None,
            catalog: None,
        }
    }
}

/// Per-execution telemetry tallies, folded into the global counters and the
/// `federated_query` event when the query finishes.
#[derive(Default)]
struct ExecStats {
    /// Per-endpoint `matching` probes issued (source selection + joins).
    probes: u64,
    /// Probes the coverage catalog proved unnecessary (subset of
    /// `probes`; never dispatched to the endpoint).
    pruned_probes: u64,
    /// Bound-join iterations: one per (pattern, partial-solution) pair.
    bound_join_iterations: u64,
    /// sameAs alternatives probed for bound subject/object IRIs.
    sameas_expansions: u64,
    /// Retries of transient endpoint failures.
    retries: u64,
    /// Requests (round trips) sent to endpoints.
    requests: u64,
    /// Probes those requests carried, resends included.
    request_probes: u64,
    /// Circuit-breaker transitions to open.
    circuit_opens: u64,
    /// Probes rejected because a breaker was open.
    circuit_rejections: u64,
    /// Probes that failed past the retry allowance (endpoint skipped).
    endpoint_failures: u64,
    /// Per-endpoint batch lookups served from the answer cache.
    cache_hits: u64,
    /// Batch lookups that missed and were dispatched live.
    cache_misses: u64,
    /// Cache entries evicted by capacity pressure while inserting.
    cache_evictions: u64,
}

impl FederatedEngine {
    /// An engine with no endpoints and no links.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an endpoint (with a fresh circuit breaker).
    pub fn add_endpoint(&mut self, ep: Box<dyn Endpoint>) {
        self.endpoints.push(ep);
        self.breakers.push(Mutex::new(CircuitBreaker::new(
            self.resilience.breaker.clone(),
        )));
    }

    /// Replace the resilience configuration, resetting all breakers and
    /// re-seeding the backoff-jitter RNG.
    pub fn set_resilience(&mut self, resilience: ResilienceConfig) {
        self.jitter_rng = Mutex::new(StdRng::seed_from_u64(resilience.seed));
        self.breakers = self
            .endpoints
            .iter()
            .map(|_| Mutex::new(CircuitBreaker::new(resilience.breaker.clone())))
            .collect();
        self.resilience = resilience;
    }

    /// Borrow the resilience configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// The breaker state for endpoint `idx` (diagnostics).
    pub fn breaker_state(&self, idx: usize) -> Option<BreakerState> {
        let breaker = self.breakers.get(idx)?;
        Some(lock_unpoisoned(breaker).state())
    }

    /// Enable the answer cache with room for `capacity` per-endpoint
    /// batches, subscribing its invalidator to the link index so every
    /// effective link mutation drops exactly the entries it staled.
    pub fn enable_cache(&mut self, capacity: usize) {
        let cache = Arc::new(FederationCache::new(capacity));
        self.links.subscribe(Arc::new(CacheInvalidator {
            cache: Arc::clone(&cache),
        }));
        self.cache = Some(cache);
    }

    /// Whether the answer cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Snapshot of the cache counters (`None` when disabled).
    pub fn cache_stats(&self) -> Option<alex_cache::CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Install (or remove, with `None`) the coverage catalog the executor
    /// consults for source selection. Entries for names that match no
    /// registered endpoint are simply never looked up; endpoints without
    /// an entry are broadcast as before.
    pub fn set_catalog(&mut self, catalog: Option<Catalog>) {
        self.catalog = catalog;
    }

    /// Borrow the installed catalog, if any.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.catalog.as_ref()
    }

    /// Mutably borrow the installed catalog (to bump its version or
    /// refresh entries between queries).
    pub fn catalog_mut(&mut self) -> Option<&mut Catalog> {
        self.catalog.as_mut()
    }

    /// Build a catalog by exhaustively probing every registered endpoint
    /// (under the engine's per-call endpoint budget). Fails on the first
    /// endpoint that cannot be scanned — a partial catalog built here
    /// would be indistinguishable from a complete one.
    pub fn build_catalog(&self) -> std::result::Result<Catalog, EndpointError> {
        let mut catalog = Catalog::new();
        for ep in &self.endpoints {
            let deadline = match self.resilience.endpoint_budget {
                Some(budget) => Deadline::within(budget),
                None => Deadline::none(),
            };
            catalog.probe_endpoint(ep.as_ref(), &deadline)?;
        }
        Ok(catalog)
    }

    /// Rewrite a query against the engine's current sameAs closure (see
    /// [`rewrite_sameas`]).
    pub fn rewrite(&self, query: &Query) -> RewrittenQuery {
        rewrite_sameas(query, &self.links)
    }

    /// Replace the link index. With the cache enabled this is the
    /// wholesale path: provenance recorded against the old index says
    /// nothing about the new one, so the cache is cleared outright and
    /// the invalidator re-subscribed on the replacement.
    pub fn set_links(&mut self, links: SameAsLinks) {
        self.links = links;
        if let Some(cache) = &self.cache {
            cache.clear();
            self.links.subscribe(Arc::new(CacheInvalidator {
                cache: Arc::clone(cache),
            }));
        }
    }

    /// Borrow the link index.
    pub fn links(&self) -> &SameAsLinks {
        &self.links
    }

    /// Mutably borrow the link index (ALEX adds/removes links here).
    pub fn links_mut(&mut self) -> &mut SameAsLinks {
        &mut self.links
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Execute a parsed query, returning only the answer rows. Degradation
    /// provenance is still available per answer; use [`execute_full`] for
    /// the query-level marker.
    ///
    /// [`execute_full`]: FederatedEngine::execute_full
    pub fn execute(&self, query: &Query) -> Result<Vec<QueryAnswer>> {
        Ok(self.execute_full(query)?.answers)
    }

    /// Execute a parsed query, returning answers plus query-level
    /// completeness provenance.
    pub fn execute_full(&self, query: &Query) -> Result<FederatedResult> {
        self.execute_full_inner(query, None)
    }

    /// Execute a query rewritten against the sameAs closure (see
    /// [`rewrite_sameas`]). The rewrite's per-branch link provenance is
    /// attached to answers produced through substituted branches, and its
    /// closure generation is stamped into every answer-cache key of the
    /// execution, so a later link mutation makes rewritten lookups miss
    /// rather than serve answers computed under a stale closure.
    ///
    /// The rewrite must be fresh: executing against a closure the rewrite
    /// does not reflect would silently drop (or phantom) union branches,
    /// so a stale rewrite is an error, not a degradation.
    pub fn execute_rewritten(&self, rewritten: &RewrittenQuery) -> Result<FederatedResult> {
        if rewritten.is_stale(&self.links) {
            return Err(SparqlError::Unsupported(format!(
                "stale sameAs rewrite: rewritten at closure generation {}, engine is at {}",
                rewritten.generation(),
                self.links.generation()
            )));
        }
        self.execute_full_inner(rewritten.query(), Some(rewritten))
    }

    fn execute_full_inner(
        &self,
        query: &Query,
        rewrite: Option<&RewrittenQuery>,
    ) -> Result<FederatedResult> {
        let query_span = span("federated_query");
        let ctx = ProbeCtx {
            in_union: false,
            generation: rewrite.map(|r| r.generation()),
        };
        let mut stats = ExecStats::default();
        // Sources skipped this execution (down past their retry allowance
        // or shed by an open breaker). BTreeSet keeps provenance sorted.
        let mut skipped: BTreeSet<String> = BTreeSet::new();
        let patterns: Vec<&TriplePattern> = query.patterns().collect();
        let pattern_count = patterns.len();
        let filters: Vec<_> = query.filters().collect();

        // Partial solutions: bindings + links used so far.
        let mut partials: Vec<(Bindings, Vec<Link>)> = vec![(Bindings::new(), Vec::new())];
        let mut remaining: Vec<&TriplePattern> = patterns;
        let mut applied_filters = vec![false; filters.len()];

        while !remaining.is_empty() {
            // Greedy variable-counting order (FedX's heuristic): prefer the
            // pattern with the most positions bound given current bindings.
            let bound_vars: HashSet<String> = partials
                .first()
                .map(|(b, _)| b.keys().cloned().collect())
                .unwrap_or_default();
            // Invariant: the loop condition guarantees `remaining` is
            // non-empty, so max_by_key cannot return None.
            #[allow(clippy::expect_used)]
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| boundness(p, &bound_vars))
                .expect("remaining is non-empty");
            let pattern = remaining.remove(idx);

            let mut next: Vec<(Bindings, Vec<Link>)> = Vec::new();
            for (bindings, links_used) in &partials {
                self.extend_with_pattern(
                    pattern,
                    bindings,
                    links_used,
                    &mut next,
                    &mut stats,
                    &mut skipped,
                    ctx,
                )?;
            }
            partials = next;
            if partials.is_empty() {
                break;
            }

            // Apply any filter whose variables are all bound now.
            let now_bound: HashSet<String> = partials
                .first()
                .map(|(b, _)| b.keys().cloned().collect())
                .unwrap_or_default();
            for (fi, filter) in filters.iter().enumerate() {
                if applied_filters[fi] {
                    continue;
                }
                if expr_variables(filter)
                    .iter()
                    .all(|v| now_bound.contains(*v))
                {
                    applied_filters[fi] = true;
                    let mut kept = Vec::with_capacity(partials.len());
                    for (b, l) in partials {
                        if eval_expr(filter, &b)? {
                            kept.push((b, l));
                        }
                    }
                    partials = kept;
                }
            }
        }

        // UNION alternations, in syntactic order: each element joins every
        // surviving solution through each of its branches independently
        // and keeps the concatenation (branch-major — deterministic at any
        // thread count). Inside branches implicit *constant* sameAs
        // expansion is off: a hand-written or rewrite-generated union
        // spells its alternatives out, and expanding them again would
        // duplicate answers; runtime-bound variable values still expand,
        // so a rewrite can never lose answers the implicit closure found.
        let union_ctx = ProbeCtx {
            in_union: true,
            ..ctx
        };
        for (ui, branches) in query.unions().enumerate() {
            let mut next: Vec<(Bindings, Vec<Link>)> = Vec::new();
            for (bi, branch) in branches.iter().enumerate() {
                let mut extended = self.join_patterns(
                    partials.clone(),
                    branch.iter().collect(),
                    &mut stats,
                    &mut skipped,
                    union_ctx,
                )?;
                // Answers from a substituted branch owe their existence to
                // the links that justified the substitution.
                if let Some(rw) = rewrite {
                    let credit = rw.links_for(ui, bi);
                    if !credit.is_empty() {
                        for (_, links_used) in &mut extended {
                            links_used.extend(credit.iter().cloned());
                        }
                    }
                }
                next.extend(extended);
            }
            partials = next;
            if partials.is_empty() {
                break;
            }
        }

        // Any filter not yet applied (e.g. over a variable that never got
        // bound) is evaluated now and surfaces unbound-variable errors.
        for (fi, filter) in filters.iter().enumerate() {
            if applied_filters[fi] {
                continue;
            }
            let mut kept = Vec::with_capacity(partials.len());
            for (b, l) in partials {
                if eval_expr(filter, &b)? {
                    kept.push((b, l));
                }
            }
            partials = kept;
        }

        // OPTIONAL groups: left outer join. Each surviving solution is
        // extended with every compatible solution of the group; solutions
        // the group cannot extend are kept unextended.
        for group in query.optionals() {
            let mut next: Vec<(Bindings, Vec<Link>)> = Vec::new();
            for (bindings, links_used) in partials {
                let seed = vec![(bindings.clone(), links_used.clone())];
                let extended = self.join_patterns(
                    seed,
                    group.iter().collect(),
                    &mut stats,
                    &mut skipped,
                    ctx,
                )?;
                if extended.is_empty() {
                    next.push((bindings, links_used));
                } else {
                    next.extend(extended);
                }
            }
            partials = next;
        }

        // ORDER BY (on full bindings, before projection — SPARQL allows
        // ordering by non-projected variables).
        if !query.order_by.is_empty() {
            partials.sort_by(|(a, _), (b, _)| {
                for key in &query.order_by {
                    let ord = compare_optional(a.get(&key.variable), b.get(&key.variable));
                    let ord = if key.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        let completeness = if skipped.is_empty() {
            Completeness::Complete
        } else {
            Completeness::Partial {
                skipped_sources: skipped.iter().cloned().collect(),
            }
        };

        // Projection, DISTINCT, LIMIT.
        let projection = query.projection();
        let mut answers: Vec<QueryAnswer> = Vec::with_capacity(partials.len());
        let mut seen: HashSet<Vec<(String, Value)>> = HashSet::new();
        for (bindings, mut links_used) in partials {
            let projected: Bindings = projection
                .iter()
                .filter_map(|v| bindings.get(v).map(|val| (v.clone(), val.clone())))
                .collect();
            if query.distinct {
                let key: Vec<(String, Value)> = projected
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                if !seen.insert(key) {
                    continue;
                }
            }
            links_used.sort_unstable();
            links_used.dedup();
            answers.push(QueryAnswer {
                bindings: projected,
                links_used,
                completeness: completeness.clone(),
            });
            if let Some(limit) = query.limit {
                if answers.len() >= limit {
                    break;
                }
            }
        }

        let provenance_answers = answers.iter().filter(|a| !a.links_used.is_empty()).count() as u64;
        let rewrites = rewrite.map_or(0, RewrittenQuery::rewritten_patterns);
        counter!("alex_federated_queries_total").inc();
        counter!("alex_source_selection_probes_total").add(stats.probes);
        counter!("federation_pruned_probes_total").add(stats.pruned_probes);
        counter!("federation_rewritten_patterns_total").add(rewrites);
        counter!("alex_bound_join_iterations_total").add(stats.bound_join_iterations);
        counter!("alex_sameas_expansions_total").add(stats.sameas_expansions);
        counter!("alex_provenance_answers_total").add(provenance_answers);
        counter!("federation_retries_total").add(stats.retries);
        counter!("federation_endpoint_requests_total").add(stats.requests);
        counter!("federation_endpoint_probes_total").add(stats.request_probes);
        counter!("federation_circuit_open_total").add(stats.circuit_opens);
        counter!("federation_circuit_rejections_total").add(stats.circuit_rejections);
        counter!("federation_endpoint_errors_total").add(stats.endpoint_failures);
        if !skipped.is_empty() {
            counter!("federation_degraded_queries_total").inc();
            counter!("federation_degraded_answers_total").add(answers.len() as u64);
        }
        if self.cache.is_some() {
            counter!("cache_hits_total").add(stats.cache_hits);
            counter!("cache_misses_total").add(stats.cache_misses);
            counter!("cache_evictions_total").add(stats.cache_evictions);
        }
        emit!(Event::FederatedQuery {
            patterns: pattern_count as u64,
            answers: answers.len() as u64,
            provenance_answers,
            probes: stats.probes,
            pruned_probes: stats.pruned_probes,
            bound_join_iterations: stats.bound_join_iterations,
            sameas_expansions: stats.sameas_expansions,
            retries: stats.retries,
            requests: stats.requests,
            request_probes: stats.request_probes,
            skipped_sources: skipped.len() as u64,
            cache: self.cache.is_some(),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            catalog: self.catalog.is_some(),
            rewrites,
            threads: alex_parallel::configured_threads() as u64,
            duration_us: query_span.elapsed().as_micros() as u64,
        });
        Ok(FederatedResult {
            answers,
            completeness,
        })
    }

    /// Evaluate an ASK query (or any query as an existence check): whether
    /// at least one solution exists.
    pub fn ask(&self, query: &Query) -> Result<bool> {
        let mut bounded = query.clone();
        bounded.limit = Some(1);
        bounded.order_by.clear(); // ordering cannot change existence
        Ok(!self.execute(&bounded)?.is_empty())
    }

    /// Join a set of partial solutions with a pattern group using the
    /// greedy variable-counting order (no filters). Used for OPTIONAL
    /// groups; the main BGP loop inlines the same logic plus eager filters.
    fn join_patterns(
        &self,
        mut partials: Vec<(Bindings, Vec<Link>)>,
        mut remaining: Vec<&TriplePattern>,
        stats: &mut ExecStats,
        skipped: &mut BTreeSet<String>,
        ctx: ProbeCtx,
    ) -> Result<Vec<(Bindings, Vec<Link>)>> {
        while !remaining.is_empty() && !partials.is_empty() {
            let bound_vars: HashSet<String> = partials
                .first()
                .map(|(b, _)| b.keys().cloned().collect())
                .unwrap_or_default();
            // Invariant: the loop condition guarantees `remaining` is
            // non-empty, so max_by_key cannot return None.
            #[allow(clippy::expect_used)]
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| boundness(p, &bound_vars))
                .expect("remaining is non-empty");
            let pattern = remaining.remove(idx);
            let mut next = Vec::new();
            for (bindings, links_used) in &partials {
                self.extend_with_pattern(
                    pattern, bindings, links_used, &mut next, stats, skipped, ctx,
                )?;
            }
            partials = next;
        }
        Ok(partials)
    }

    /// Join one pattern against all endpoints for one partial solution,
    /// expanding bound IRIs through sameAs links. Endpoint failures are
    /// absorbed by the resilience layer: the failing source is skipped
    /// (recorded in `skipped`) unless the engine is in fail-fast mode.
    ///
    /// Each endpoint with live work gets the job list as one request (a
    /// FedX-style bound join), endpoints running concurrently; within each
    /// endpoint the probe sequence stays in job order, so per-endpoint
    /// behavior (retry sequences, breaker transitions, the fault injector's
    /// seeded call stream) is identical to the sequential per-probe
    /// executor. The merge below replays the sequential (job, endpoint)
    /// nesting, so answer order, stat totals, skip provenance, and
    /// fail-fast error selection are all unchanged.
    #[allow(clippy::too_many_arguments)]
    fn extend_with_pattern(
        &self,
        pattern: &TriplePattern,
        bindings: &Bindings,
        links_used: &[Link],
        out: &mut Vec<(Bindings, Vec<Link>)>,
        stats: &mut ExecStats,
        skipped: &mut BTreeSet<String>,
        ctx: ProbeCtx,
    ) -> Result<()> {
        stats.bound_join_iterations += 1;

        // Resolve each position: bound value (with sameAs alternatives for
        // IRIs in subject/object position) or wildcard. Inside UNION
        // branches constants are not expanded — the branch list is the
        // explicit expansion.
        let expand_constants = !ctx.in_union;
        let s_alts = alternatives(&pattern.subject, bindings, &self.links, expand_constants);
        let p_alts = alternatives_no_expand(&pattern.predicate, bindings);
        let o_alts = alternatives(&pattern.object, bindings, &self.links, expand_constants);

        // Every entry beyond the bound value itself is a sameAs expansion.
        stats.sameas_expansions += (s_alts.len() - 1) as u64 + (o_alts.len() - 1) as u64;

        // Flatten the alternative cross-product into an ordered job list:
        // one job = one (s, p, o) probe tuple, dispatched to every endpoint.
        let mut jobs: Vec<ProbeJob<'_>> = Vec::new();
        for (s_val, s_link) in &s_alts {
            for p_val in &p_alts {
                for (o_val, o_link) in &o_alts {
                    jobs.push(ProbeJob {
                        s: s_val.as_ref(),
                        p: p_val.as_ref(),
                        o: o_val.as_ref(),
                        s_link: s_link.as_ref(),
                        o_link: o_link.as_ref(),
                    });
                }
            }
        }
        // The sequential loop counted one probe per (job, endpoint) combo,
        // including combos short-circuited by an earlier skip. Cached
        // hits keep this formula: `probes` counts logical source
        // selection, not endpoint calls, so the event field is identical
        // with the cache on or off.
        stats.probes += (jobs.len() * self.endpoints.len()) as u64;

        // Cache addressing: the key is the pattern's resolved positions
        // *before* sameAs expansion (the first alternative is always the
        // bound value itself), the anchors the bound s/o IRIs. While an
        // entry lives, `equivalents()` of those anchors is unchanged, so
        // re-deriving the job list above yields the same jobs in the
        // same order as when the entry was inserted.
        let probe = self.cache.as_ref().map(|_| {
            let probe = CacheProbe::new(
                s_alts[0].0.as_ref(),
                p_alts[0].as_ref(),
                o_alts[0].0.as_ref(),
            );
            // Rewritten executions key on the closure generation too: the
            // rewritten query shape depends on the *whole* closure, which
            // anchor invalidation cannot track (see `stamp_generation`).
            match ctx.generation {
                Some(generation) => probe.stamp_generation(generation),
                None => probe,
            }
        });

        let mut runs = self.dispatch_jobs(&jobs, probe.as_ref(), stats, skipped)?;

        // Ordered merge: job-major, endpoint-minor — the sequential order.
        for (j, job) in jobs.iter().enumerate() {
            for run in &mut runs {
                let Some(rows) = run.rows[j].take() else {
                    continue; // source skipped; degrade gracefully
                };
                for [rs, rp, ro] in rows {
                    let mut b = bindings.clone();
                    if !bind_position(&mut b, bindings, &pattern.subject, rs) {
                        continue;
                    }
                    if !bind_position(&mut b, bindings, &pattern.predicate, rp) {
                        continue;
                    }
                    if !bind_position(&mut b, bindings, &pattern.object, ro) {
                        continue;
                    }
                    let mut l = links_used.to_vec();
                    if let Some(link) = job.s_link {
                        l.push(link.clone());
                    }
                    if let Some(link) = job.o_link {
                        l.push(link.clone());
                    }
                    out.push((b, l));
                }
            }
        }
        Ok(())
    }

    /// Run every probe job against every endpoint, one concurrent worker
    /// task per endpoint, then fold the per-endpoint outcomes back into
    /// the shared stats/skip state in endpoint order (deterministic).
    fn dispatch_jobs(
        &self,
        jobs: &[ProbeJob<'_>],
        probe: Option<&CacheProbe>,
        stats: &mut ExecStats,
        skipped: &mut BTreeSet<String>,
    ) -> Result<Vec<EndpointRun>> {
        // Sources already skipped stay skipped for this query: further
        // probes would only burn the remaining sources' time budget.
        let pre_skipped: Vec<bool> = self
            .endpoints
            .iter()
            .map(|ep| skipped.contains(ep.name()))
            .collect();

        // Catalog source selection, on the coordinator thread (the
        // verdict depends only on the immutable catalog and the job list,
        // so it is identical at any thread count). An endpoint is pruned
        // for this batch only when *every* job is provably empty there;
        // the catalog consults coverage, never health, so a prune is a
        // statement about the data — it does not mark the source skipped
        // and does not touch its breaker or completeness.
        let pruned: Vec<bool> = match &self.catalog {
            None => vec![false; self.endpoints.len()],
            Some(catalog) => self
                .endpoints
                .iter()
                .enumerate()
                .map(|(i, ep)| {
                    !pre_skipped[i]
                        && !jobs.is_empty()
                        && jobs
                            .iter()
                            .all(|job| !catalog.may_match(ep.name(), job.p, job.o))
                })
                .collect(),
        };
        stats.pruned_probes += (jobs.len() * pruned.iter().filter(|&&p| p).count()) as u64;

        // Consult the cache before dispatch, on the coordinator thread in
        // endpoint order (deterministic LRU movement). A hit bypasses the
        // resilience layer entirely — no endpoint call, no retry, no
        // breaker transition — so a cached hit can never trip a breaker.
        // Skipped sources stay skipped: serving them from cache would
        // resurrect a source mid-query.
        let mut keys: Vec<Option<String>> = vec![None; self.endpoints.len()];
        let mut hits: Vec<Option<Arc<CachedRows>>> = vec![None; self.endpoints.len()];
        if let (Some(cache), Some(probe)) = (self.cache.as_ref(), probe) {
            for (i, ep) in self.endpoints.iter().enumerate() {
                // Pruned endpoints bypass the cache entirely: a lookup
                // would be wasted work and an insert would cache a batch
                // the endpoint never served.
                if pre_skipped[i] || pruned[i] {
                    continue;
                }
                let key = probe.key_for(ep.name());
                match cache.get(&key) {
                    // A live entry always matches the re-derived job
                    // list; the length check is a defensive backstop.
                    Some(rows) if rows.len() == jobs.len() => {
                        stats.cache_hits += 1;
                        hits[i] = Some(rows);
                    }
                    _ => {
                        stats.cache_misses += 1;
                        keys[i] = Some(key);
                    }
                }
            }
        }

        // Only endpoints with live work go to the pool, so a dispatch with
        // one live endpoint runs inline and an all-hit or all-pruned one
        // spawns nothing. Cache hits replay their rows; pre-skipped and
        // pruned endpoints get all-`None` rows and no endpoint call (a
        // pruned one records no terminal and lands in no skip set).
        let mut runs: Vec<EndpointRun> = hits
            .iter()
            .map(|hit| match hit {
                Some(rows) => EndpointRun::cached(rows),
                None => EndpointRun::idle(jobs.len()),
            })
            .collect();
        let live: Vec<usize> = (0..self.endpoints.len())
            .filter(|&i| hits[i].is_none() && !pre_skipped[i] && !pruned[i])
            .collect();
        let pool = alex_parallel::Pool::new("federation");
        let fresh = pool.map_each(&live, |&i| self.run_endpoint_jobs(i, jobs));
        for (&i, run) in live.iter().zip(fresh) {
            runs[i] = run;
        }

        for (i, run) in runs.iter().enumerate() {
            stats.retries += run.delta.retries;
            stats.requests += run.delta.requests;
            stats.request_probes += run.delta.request_probes;
            stats.circuit_opens += run.delta.circuit_opens;
            stats.circuit_rejections += run.delta.circuit_rejections;
            stats.endpoint_failures += run.delta.endpoint_failures;
            // Per-endpoint batch event, emitted on the coordinator thread
            // in endpoint order — the raw material for the `alex report`
            // per-endpoint latency percentiles.
            emit!(Event::EndpointBatch {
                endpoint: self.endpoints[i].name().to_string(),
                jobs: jobs.len() as u64,
                duration_us: run.duration_us,
                retries: run.delta.retries,
                circuit_opens: run.delta.circuit_opens,
                circuit_rejections: run.delta.circuit_rejections,
                failures: run.delta.endpoint_failures,
                skipped: pre_skipped[i] || run.terminal.is_some(),
                cache_hit: hits[i].is_some(),
                pruned: pruned[i],
            });
        }
        if self.resilience.fail_fast {
            // The sequential executor aborted at the first terminal failure
            // in (job, endpoint) order; pick exactly that one.
            let first = runs
                .iter()
                .enumerate()
                .filter_map(|(i, run)| run.terminal.as_ref().map(|(j, err)| (*j, i, err)))
                .min_by_key(|&(j, i, _)| (j, i));
            if let Some((_, _, err)) = first {
                return Err(SparqlError::Endpoint(err.clone()));
            }
        } else {
            for (i, run) in runs.iter().enumerate() {
                if run.terminal.is_some() {
                    skipped.insert(self.endpoints[i].name().to_string());
                }
            }
        }

        // Fresh, fully healthy runs become cache entries (coordinator
        // thread, endpoint order — deterministic). A run that skipped
        // any job is never cached: only complete batches may be served.
        if let (Some(cache), Some(probe)) = (self.cache.as_ref(), probe) {
            for (i, run) in runs.iter().enumerate() {
                let Some(key) = &keys[i] else { continue };
                if run.terminal.is_none() && run.rows.iter().all(Option::is_some) {
                    let rows: CachedRows = run.rows.iter().flatten().cloned().collect();
                    let evicted = cache.insert(key, probe.anchors(), rows);
                    stats.cache_evictions += evicted as u64;
                }
            }
        }
        Ok(runs)
    }

    /// Send endpoint `idx` its job list as requests, in job order. The
    /// first request carries every job; after a failure the next one
    /// resends from the job that failed. Each request is admitted through
    /// the breaker and bounded by one per-request deadline; every answered
    /// probe is a breaker success, in order. Retryable errors back off and
    /// resend until the retry allowance for that job runs out — `attempt`
    /// counts retries of the job at the head of the request, so it resets
    /// whenever a request made progress. After a terminal failure (retries
    /// exhausted, breaker open) the endpoint is dead for the remaining
    /// jobs — the same skip set as the sequential executor.
    ///
    /// This replays the per-probe sequence exactly: `allow_at` changes no
    /// state while the breaker is closed or half-open, a success never
    /// opens it, and a request ends at its first failure, so admitting a
    /// request once instead of every probe in it changes nothing but the
    /// number of round trips.
    fn run_endpoint_jobs(&self, idx: usize, jobs: &[ProbeJob<'_>]) -> EndpointRun {
        let started = Instant::now();
        let ep = &self.endpoints[idx];
        let breaker = &self.breakers[idx];
        let retry = &self.resilience.retry;
        let probes: Vec<Probe<'_>> = jobs.iter().map(|job| [job.s, job.p, job.o]).collect();
        let mut run = EndpointRun {
            rows: Vec::with_capacity(jobs.len()),
            ..EndpointRun::idle(0)
        };
        let mut attempt: u32 = 0;
        while run.rows.len() < jobs.len() {
            let next = run.rows.len();
            if !lock_unpoisoned(breaker).allow_at(Instant::now()) {
                run.delta.circuit_rejections += 1;
                run.terminal = Some((
                    next,
                    EndpointError::Unavailable {
                        endpoint: ep.name().to_string(),
                        message: "circuit open".to_string(),
                    },
                ));
                break;
            }
            let deadline = match self.resilience.endpoint_budget {
                Some(budget) => Deadline::within(budget),
                None => Deadline::none(),
            };
            run.delta.requests += 1;
            run.delta.request_probes += (probes.len() - next) as u64;
            let (answered, err) = ep.matching_batch(&probes[next..], &deadline);
            if !answered.is_empty() {
                attempt = 0;
                let mut breaker = lock_unpoisoned(breaker);
                for rows in answered.into_iter().take(probes.len() - next) {
                    breaker.record_success();
                    run.rows.push(Some(rows));
                }
            }
            let err = match err {
                Some(err) => err,
                None if run.rows.len() == jobs.len() => break,
                // A reply that answers a prefix without naming the error
                // that cut it breaks the endpoint contract; resending
                // could loop forever.
                None => EndpointError::Unavailable {
                    endpoint: ep.name().to_string(),
                    message: format!(
                        "reply answered {} of {} probes without an error",
                        run.rows.len() - next,
                        probes.len() - next
                    ),
                },
            };
            if lock_unpoisoned(breaker).record_failure_at(Instant::now()) {
                run.delta.circuit_opens += 1;
            }
            if err.is_retryable() && attempt < retry.max_retries {
                run.delta.retries += 1;
                let backoff = retry.backoff(attempt, &mut lock_unpoisoned(&self.jitter_rng));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
                continue;
            }
            run.delta.endpoint_failures += 1;
            run.terminal = Some((run.rows.len(), err));
            break;
        }
        run.rows.resize(jobs.len(), None);
        run.duration_us = started.elapsed().as_micros() as u64;
        run
    }
}

/// One (s, p, o) probe tuple plus the sameAs links that produced the
/// bound alternatives (recorded as provenance on every row it yields).
struct ProbeJob<'a> {
    s: Option<&'a Value>,
    p: Option<&'a Value>,
    o: Option<&'a Value>,
    s_link: Option<&'a Link>,
    o_link: Option<&'a Link>,
}

/// Resilience tallies from one endpoint's probe run, merged into
/// [`ExecStats`] on the coordinating thread.
#[derive(Default)]
struct ProbeDelta {
    /// Requests (round trips) sent to the endpoint.
    requests: u64,
    /// Probes those requests carried, resends included.
    request_probes: u64,
    retries: u64,
    circuit_opens: u64,
    circuit_rejections: u64,
    endpoint_failures: u64,
}

/// The outcome of one endpoint's pass over the job list: per-job rows
/// (`None` = skipped), stat deltas, the first terminal failure, and the
/// batch's wall-clock time (0 for cache hits and pre-skipped endpoints).
struct EndpointRun {
    rows: Vec<Option<Rows>>,
    delta: ProbeDelta,
    terminal: Option<(usize, EndpointError)>,
    duration_us: u64,
}

impl EndpointRun {
    /// A run that sent nothing: every job skipped.
    fn idle(jobs: usize) -> EndpointRun {
        EndpointRun {
            rows: vec![None; jobs],
            delta: ProbeDelta::default(),
            terminal: None,
            duration_us: 0,
        }
    }

    /// A run served from the answer cache.
    fn cached(rows: &CachedRows) -> EndpointRun {
        EndpointRun {
            rows: rows.iter().map(|r| Some(r.clone())).collect(),
            ..EndpointRun::idle(0)
        }
    }
}

/// Lock a mutex, recovering the inner value if a previous holder panicked —
/// breaker and RNG state stay usable (at worst slightly stale).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How many positions of `pattern` are constants or already-bound variables.
fn boundness(pattern: &TriplePattern, bound: &HashSet<String>) -> usize {
    [&pattern.subject, &pattern.predicate, &pattern.object]
        .into_iter()
        .filter(|t| match t {
            TermPattern::Value(_) => true,
            TermPattern::Var(v) => bound.contains(v.as_str()),
        })
        .count()
}

/// SPARQL-ish value ordering for ORDER BY: unbound sorts last; numbers
/// compare numerically when both sides parse; everything else compares by
/// lexical form, then by term shape for stability.
fn compare_optional(a: Option<&Value>, b: Option<&Value>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Greater,
        (Some(_), None) => Ordering::Less,
        (Some(x), Some(y)) => {
            if let (Some(nx), Some(ny)) = (x.as_number(), y.as_number()) {
                return nx.total_cmp(&ny);
            }
            x.lexical().cmp(y.lexical()).then_with(|| x.cmp(y))
        }
    }
}

/// Per-execution probe context, threaded from the query entry point down
/// to every pattern extension.
#[derive(Clone, Copy, Default)]
struct ProbeCtx {
    /// Whether the pattern sits inside a UNION branch. Branches spell
    /// their constant alternatives out explicitly, so implicit constant
    /// sameAs expansion is suppressed there (variables bound at runtime
    /// still expand).
    in_union: bool,
    /// The sameAs-closure generation of a rewritten execution, stamped
    /// into every answer-cache key (`None` for plain executions).
    generation: Option<u64>,
}

/// The probe values for a position: the bound/constant value itself plus,
/// for IRIs, every sameAs-equivalent (each tagged with the enabling link).
/// An unbound variable yields a single wildcard. With `expand_constants`
/// false, constants stay unexpanded; values bound by earlier patterns
/// expand either way.
fn alternatives(
    position: &TermPattern,
    bindings: &Bindings,
    links: &SameAsLinks,
    expand_constants: bool,
) -> Vec<(Option<Value>, Option<Link>)> {
    let (value, is_constant) = match position {
        TermPattern::Value(v) => (Some(v.clone()), true),
        TermPattern::Var(name) => (bindings.get(name).cloned(), false),
    };
    match value {
        None => vec![(None, None)],
        Some(v) => {
            let mut out = vec![(Some(v.clone()), None)];
            if expand_constants || !is_constant {
                if let Value::Iri(iri) = &v {
                    for (other, link) in links.equivalents(iri) {
                        out.push((Some(Value::iri(other)), Some(link)));
                    }
                }
            }
            out
        }
    }
}

/// Probe values for the predicate position (never sameAs-expanded).
fn alternatives_no_expand(position: &TermPattern, bindings: &Bindings) -> Vec<Option<Value>> {
    match position {
        TermPattern::Value(v) => vec![Some(v.clone())],
        TermPattern::Var(name) => vec![bindings.get(name).cloned()],
    }
}

/// Bind a pattern position to a concrete matched value.
///
/// * A variable bound *before* this pattern was probed keeps its original
///   binding: the probe was substituted (possibly through a sameAs
///   alternative), so the row is consistent by construction.
/// * A variable bound *within* this row (duplicate variable in one pattern,
///   e.g. `?x ?p ?x`) must match exactly.
fn bind_position(
    bindings: &mut Bindings,
    pre: &Bindings,
    position: &TermPattern,
    matched: Value,
) -> bool {
    match position {
        TermPattern::Value(_) => true,
        TermPattern::Var(name) => {
            if pre.contains_key(name) {
                return true;
            }
            match bindings.get(name) {
                None => {
                    bindings.insert(name.clone(), matched);
                    true
                }
                Some(existing) => *existing == matched,
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::federation::endpoint::DatasetEndpoint;
    use crate::federation::fault::{FaultProfile, FaultyEndpoint};
    use crate::federation::resilience::{BreakerConfig, RetryPolicy};
    use crate::parser::parse;
    use alex_rdf::Dataset;
    use std::time::Duration;

    /// The paper's motivating scenario: NYT articles + DBpedia facts.
    fn engine() -> FederatedEngine {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(dbpedia())));
        engine.add_endpoint(Box::new(DatasetEndpoint::new(nyt())));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        engine
    }

    fn dbpedia() -> Dataset {
        let mut dbpedia = Dataset::new("DBpedia");
        dbpedia.add_str("http://db/LeBron", "http://db/award", "NBA MVP 2013");
        dbpedia.add_str("http://db/LeBron", "http://db/label", "LeBron James");
        dbpedia.add_str("http://db/Durant", "http://db/award", "NBA MVP 2014");
        dbpedia
    }

    fn nyt() -> Dataset {
        let mut nyt = Dataset::new("NYTimes");
        nyt.add_iri(
            "http://nyt/article1",
            "http://nyt/about",
            "http://nyt/lebron-james",
        );
        nyt.add_str(
            "http://nyt/article1",
            "http://nyt/headline",
            "James Leads Heat",
        );
        nyt.add_iri(
            "http://nyt/article2",
            "http://nyt/about",
            "http://nyt/someone-else",
        );
        nyt
    }

    /// Tiny backoffs so resilience tests stay fast.
    fn fast_resilience() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 6,
                initial_backoff: Duration::from_micros(20),
                multiplier: 2.0,
                max_backoff: Duration::from_micros(100),
                jitter: 0.5,
            },
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown: Duration::from_millis(1),
                probe_successes: 1,
            },
            endpoint_budget: None,
            fail_fast: false,
            seed: 11,
        }
    }

    const CROSS_SOURCE: &str = "SELECT ?article ?who WHERE { \
           ?who <http://db/award> \"NBA MVP 2013\" . \
           ?article <http://nyt/about> ?who }";

    #[test]
    fn single_source_query_has_no_provenance() {
        let engine = engine();
        let q = parse("SELECT ?who WHERE { ?who <http://db/award> \"NBA MVP 2013\" }").unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].bindings["who"], Value::iri("http://db/LeBron"));
        assert!(answers[0].links_used.is_empty());
        assert!(answers[0].completeness.is_complete());
    }

    #[test]
    fn cross_source_join_uses_same_as_and_records_provenance() {
        let engine = engine();
        // "Find all NYT articles about the NBA MVP of 2013."
        let q = parse(CROSS_SOURCE).unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert!(result.is_complete());
        assert_eq!(result.answers.len(), 1);
        let a = &result.answers[0];
        assert_eq!(a.bindings["article"], Value::iri("http://nyt/article1"));
        assert_eq!(
            a.links_used,
            vec![Link::new("http://db/LeBron", "http://nyt/lebron-james")]
        );
    }

    #[test]
    fn no_link_no_answer() {
        let mut engine = engine();
        engine.set_links(SameAsLinks::new());
        let q = parse(
            "SELECT ?article WHERE { \
               ?who <http://db/award> \"NBA MVP 2013\" . \
               ?article <http://nyt/about> ?who }",
        )
        .unwrap();
        assert!(engine.execute(&q).unwrap().is_empty());
    }

    #[test]
    fn filters_apply() {
        let engine = engine();
        let q = parse(
            "SELECT ?who ?award WHERE { ?who <http://db/award> ?award \
             FILTER(CONTAINS(STR(?award), \"2014\")) }",
        )
        .unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].bindings["who"], Value::iri("http://db/Durant"));
    }

    #[test]
    fn distinct_and_limit() {
        let engine = engine();
        let q = parse("SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 2").unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 2);
        assert_ne!(answers[0].bindings["p"], answers[1].bindings["p"]);
    }

    #[test]
    fn reverse_orientation_links_also_bridge() {
        let mut engine = engine();
        // Store the link in the opposite orientation; joins must still work
        // and provenance must preserve the stored orientation.
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://nyt/lebron-james",
            "http://db/LeBron",
        )]));
        let q = parse(
            "SELECT ?article WHERE { \
               ?who <http://db/award> \"NBA MVP 2013\" . \
               ?article <http://nyt/about> ?who }",
        )
        .unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(
            answers[0].links_used,
            vec![Link::new("http://nyt/lebron-james", "http://db/LeBron")]
        );
    }

    #[test]
    fn duplicate_variable_in_one_pattern_requires_equality() {
        let mut ds = Dataset::new("T");
        ds.add_iri("http://e/a", "http://e/p", "http://e/a"); // self-loop
        ds.add_iri("http://e/a", "http://e/p", "http://e/b");
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(ds)));
        let q = parse("SELECT ?x WHERE { ?x <http://e/p> ?x }").unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].bindings["x"], Value::iri("http://e/a"));
    }

    #[test]
    fn empty_engine_returns_nothing() {
        let engine = FederatedEngine::new();
        let q = parse("SELECT * WHERE { ?s ?p ?o }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert!(result.answers.is_empty());
        assert!(result.is_complete());
    }

    #[test]
    fn order_by_sorts_answers() {
        let mut ds = Dataset::new("T");
        for (i, name) in ["Charlie", "Alice", "Bob"].iter().enumerate() {
            ds.add_str(&format!("http://e/{i}"), "http://e/name", name);
            ds.add_typed(
                &format!("http://e/{i}"),
                "http://e/rank",
                &(10 - i).to_string(),
                alex_rdf::vocab::XSD_INTEGER,
            );
        }
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(ds)));

        let q = parse("SELECT ?n WHERE { ?s <http://e/name> ?n } ORDER BY ?n").unwrap();
        let names: Vec<String> = engine
            .execute(&q)
            .unwrap()
            .iter()
            .map(|a| a.bindings["n"].lexical().to_string())
            .collect();
        assert_eq!(names, vec!["Alice", "Bob", "Charlie"]);

        // Numeric descending order (not lexicographic).
        let q = parse(
            "SELECT ?n WHERE { ?s <http://e/name> ?n . ?s <http://e/rank> ?r } \
             ORDER BY DESC(?r)",
        )
        .unwrap();
        let names: Vec<String> = engine
            .execute(&q)
            .unwrap()
            .iter()
            .map(|a| a.bindings["n"].lexical().to_string())
            .collect();
        assert_eq!(names, vec!["Charlie", "Alice", "Bob"]);
    }

    #[test]
    fn optional_is_left_outer_join() {
        let mut ds = Dataset::new("T");
        ds.add_str("http://e/a", "http://e/name", "Alice");
        ds.add_str("http://e/a", "http://e/email", "alice@example.org");
        ds.add_str("http://e/b", "http://e/name", "Bob"); // no email
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(ds)));
        let q = parse(
            "SELECT ?n ?m WHERE { ?s <http://e/name> ?n \
             OPTIONAL { ?s <http://e/email> ?m } } ORDER BY ?n",
        )
        .unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].bindings["n"].lexical(), "Alice");
        assert_eq!(answers[0].bindings["m"].lexical(), "alice@example.org");
        assert_eq!(answers[1].bindings["n"].lexical(), "Bob");
        assert!(
            !answers[1].bindings.contains_key("m"),
            "Bob keeps his row with ?m unbound"
        );
    }

    #[test]
    fn optional_can_multiply_rows() {
        let mut ds = Dataset::new("T");
        ds.add_str("http://e/a", "http://e/name", "Alice");
        ds.add_str("http://e/a", "http://e/email", "a1@example.org");
        ds.add_str("http://e/a", "http://e/email", "a2@example.org");
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(ds)));
        let q = parse(
            "SELECT ?n ?m WHERE { ?s <http://e/name> ?n OPTIONAL { ?s <http://e/email> ?m } }",
        )
        .unwrap();
        assert_eq!(engine.execute(&q).unwrap().len(), 2);
    }

    #[test]
    fn optional_across_sameas_carries_provenance() {
        let engine = engine();
        // Every awarded player, optionally with the NYT articles about them.
        let q = parse(
            "SELECT ?who ?article WHERE { ?who <http://db/award> ?a \
             OPTIONAL { ?article <http://nyt/about> ?who } }",
        )
        .unwrap();
        let answers = engine.execute(&q).unwrap();
        // LeBron (linked, 1 article match) + Durant (unlinked, kept bare).
        assert_eq!(answers.len(), 2);
        let with_article: Vec<_> = answers
            .iter()
            .filter(|a| a.bindings.contains_key("article"))
            .collect();
        assert_eq!(with_article.len(), 1);
        assert_eq!(
            with_article[0].links_used.len(),
            1,
            "optional match used the link"
        );
        let bare: Vec<_> = answers
            .iter()
            .filter(|a| !a.bindings.contains_key("article"))
            .collect();
        assert!(bare[0].links_used.is_empty());
    }

    #[test]
    fn ask_reports_existence() {
        let engine = engine();
        let yes = parse("ASK { ?who <http://db/award> \"NBA MVP 2013\" }").unwrap();
        assert!(engine.ask(&yes).unwrap());
        let no = parse("ASK { ?who <http://db/award> \"NBA MVP 1903\" }").unwrap();
        assert!(!engine.ask(&no).unwrap());
    }

    #[test]
    fn join_order_prefers_bound_patterns() {
        // Regardless of syntactic order, the selective pattern runs first;
        // verify by result correctness on a reversed-order query.
        let engine = engine();
        let q = parse(
            "SELECT ?article WHERE { \
               ?article <http://nyt/about> ?who . \
               ?who <http://db/award> \"NBA MVP 2013\" }",
        )
        .unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].links_used.len(), 1);
    }

    // ---- resilience behavior ------------------------------------------

    #[test]
    fn retries_recover_from_transient_faults() {
        // 40% transient failures but 3 retries: the cross-source join must
        // still produce its complete answer.
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(dbpedia()),
            FaultProfile {
                seed: 3,
                transient_rate: 0.4,
                ..FaultProfile::none()
            },
        )));
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultProfile {
                seed: 4,
                transient_rate: 0.4,
                ..FaultProfile::none()
            },
        )));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        let mut cfg = fast_resilience();
        // Plenty of headroom so the breaker cannot cut the retry loop
        // short — this test isolates retry masking.
        cfg.breaker.failure_threshold = 50;
        engine.set_resilience(cfg);
        let q = parse(CROSS_SOURCE).unwrap();
        // Run several times: with retries the answer is stable.
        for _ in 0..5 {
            let result = engine.execute_full(&q).unwrap();
            assert_eq!(result.answers.len(), 1, "retries must mask transients");
            assert!(result.is_complete());
        }
    }

    /// A failure after progress starts a fresh retry allowance for the
    /// failed probe, as when every probe was its own call: a scripted
    /// endpoint fails probe 0 once, then probe 1 twice, under 2 retries.
    #[test]
    fn a_resend_gives_the_failed_probe_its_own_retries() {
        struct Scripted {
            inner: DatasetEndpoint,
            fails: Mutex<std::collections::VecDeque<bool>>,
        }
        impl Endpoint for Scripted {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn matching(
                &self,
                s: Option<&Value>,
                p: Option<&Value>,
                o: Option<&Value>,
                deadline: &Deadline,
            ) -> std::result::Result<Vec<[Value; 3]>, EndpointError> {
                if lock_unpoisoned(&self.fails).pop_front().unwrap_or(false) {
                    return Err(EndpointError::Transient {
                        endpoint: self.name().to_string(),
                        message: "scripted".into(),
                    });
                }
                self.inner.matching(s, p, o, deadline)
            }
        }
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(Scripted {
            inner: DatasetEndpoint::new(dbpedia()),
            // Requests: [p0 ✗] [p0 ✓, p1 ✗] [p1 ✗] [p1 ✓].
            fails: Mutex::new([true, false, true, true, false].into()),
        }));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        let mut cfg = fast_resilience();
        cfg.retry.max_retries = 2;
        cfg.breaker.failure_threshold = 50;
        engine.set_resilience(cfg);
        let q = parse("SELECT ?p ?o WHERE { <http://db/LeBron> ?p ?o }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert!(result.is_complete(), "{:?}", result.completeness);
        assert_eq!(result.answers.len(), 2);
    }

    #[test]
    fn dead_endpoint_degrades_with_provenance() {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(dbpedia())));
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultProfile {
                outage: Some((0, u64::MAX)),
                ..FaultProfile::none()
            },
        )));
        engine.set_resilience(fast_resilience());
        // A single-source query still answers from the healthy source, but
        // the result is marked partial and names the dead one.
        let q = parse("SELECT ?who WHERE { ?who <http://db/award> \"NBA MVP 2013\" }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert_eq!(result.answers.len(), 1);
        assert!(!result.is_complete());
        assert_eq!(result.completeness.skipped(), ["NYTimes".to_string()]);
        assert_eq!(
            result.answers[0].completeness.skipped(),
            ["NYTimes".to_string()],
            "each answer carries the marker too"
        );
    }

    #[test]
    fn repeated_failures_open_the_breaker() {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultProfile {
                outage: Some((0, u64::MAX)),
                ..FaultProfile::none()
            },
        )));
        let mut cfg = fast_resilience();
        cfg.breaker.failure_threshold = 1;
        cfg.breaker.cooldown = Duration::from_secs(3600);
        engine.set_resilience(cfg);
        let q = parse("SELECT * WHERE { ?s ?p ?o }").unwrap();
        let first = engine.execute_full(&q).unwrap();
        assert!(!first.is_complete());
        assert_eq!(engine.breaker_state(0), Some(BreakerState::Open));
        // Next query is shed by the breaker without touching the endpoint,
        // and still degrades with provenance.
        let second = engine.execute_full(&q).unwrap();
        assert_eq!(second.completeness.skipped(), ["NYTimes".to_string()]);
    }

    #[test]
    fn breaker_half_open_probe_recovers() {
        let mut engine = FederatedEngine::new();
        // Down for the first 3 calls, healthy afterwards.
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(dbpedia()),
            FaultProfile {
                outage: Some((0, 3)),
                ..FaultProfile::none()
            },
        )));
        let mut cfg = fast_resilience();
        cfg.retry.max_retries = 0;
        cfg.breaker.failure_threshold = 1;
        cfg.breaker.cooldown = Duration::ZERO; // immediate half-open probe
        engine.set_resilience(cfg);
        let q = parse("SELECT ?who WHERE { ?who <http://db/award> \"NBA MVP 2013\" }").unwrap();
        // Three executions burn the outage window (one probe each).
        for _ in 0..3 {
            assert!(!engine.execute_full(&q).unwrap().is_complete());
        }
        // Endpoint recovered; the half-open probe succeeds and closes.
        let result = engine.execute_full(&q).unwrap();
        assert!(result.is_complete(), "breaker must recover via probe");
        assert_eq!(result.answers.len(), 1);
        assert_eq!(engine.breaker_state(0), Some(BreakerState::Closed));
    }

    #[test]
    fn fail_fast_surfaces_endpoint_error() {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultProfile {
                outage: Some((0, u64::MAX)),
                ..FaultProfile::none()
            },
        )));
        let mut cfg = fast_resilience();
        cfg.fail_fast = true;
        engine.set_resilience(cfg);
        let q = parse("SELECT * WHERE { ?s ?p ?o }").unwrap();
        match engine.execute_full(&q) {
            Err(SparqlError::Endpoint(EndpointError::Unavailable { endpoint, .. })) => {
                assert_eq!(endpoint, "NYTimes");
            }
            other => panic!("expected endpoint error, got {other:?}"),
        }
    }

    #[test]
    fn all_sources_down_yields_empty_partial_result() {
        let mut engine = FederatedEngine::new();
        for ds in [dbpedia(), nyt()] {
            engine.add_endpoint(Box::new(FaultyEndpoint::new(
                DatasetEndpoint::new(ds),
                FaultProfile {
                    outage: Some((0, u64::MAX)),
                    ..FaultProfile::none()
                },
            )));
        }
        engine.set_resilience(fast_resilience());
        let q = parse("SELECT * WHERE { ?s ?p ?o }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert!(result.answers.is_empty());
        assert_eq!(
            result.completeness.skipped(),
            ["DBpedia".to_string(), "NYTimes".to_string()],
            "skipped sources are sorted and complete"
        );
    }

    // ---- answer cache behavior ----------------------------------------

    /// Endpoint wrapper counting `matching` calls, to prove cached hits
    /// bypass dispatch entirely.
    struct CountingEndpoint {
        inner: DatasetEndpoint,
        calls: std::sync::atomic::AtomicU64,
    }

    impl CountingEndpoint {
        fn new(ds: Dataset) -> Self {
            CountingEndpoint {
                inner: DatasetEndpoint::new(ds),
                calls: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl Endpoint for CountingEndpoint {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn matching(
            &self,
            s: Option<&Value>,
            p: Option<&Value>,
            o: Option<&Value>,
            deadline: &Deadline,
        ) -> std::result::Result<Vec<[Value; 3]>, EndpointError> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.matching(s, p, o, deadline)
        }
    }

    fn cached_engine() -> (FederatedEngine, Arc<CountingEndpoint>) {
        // Box<Arc<...>> keeps a second handle to read the call counter.
        struct Shared(Arc<CountingEndpoint>);
        impl Endpoint for Shared {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn matching(
                &self,
                s: Option<&Value>,
                p: Option<&Value>,
                o: Option<&Value>,
                deadline: &Deadline,
            ) -> std::result::Result<Vec<[Value; 3]>, EndpointError> {
                self.0.matching(s, p, o, deadline)
            }
        }
        let counter = Arc::new(CountingEndpoint::new(dbpedia()));
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(Shared(Arc::clone(&counter))));
        engine.add_endpoint(Box::new(DatasetEndpoint::new(nyt())));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        engine.enable_cache(64);
        (engine, counter)
    }

    #[test]
    fn repeat_query_is_served_from_cache_without_endpoint_calls() {
        let (engine, counter) = cached_engine();
        let q = parse(CROSS_SOURCE).unwrap();
        let first = engine.execute(&q).unwrap();
        let calls_after_first = counter.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls_after_first > 0);
        let second = engine.execute(&q).unwrap();
        assert_eq!(first, second, "cached answers must be byte-identical");
        assert_eq!(
            counter.calls.load(std::sync::atomic::Ordering::Relaxed),
            calls_after_first,
            "a warm repeat must not touch the endpoint at all \
             (which is also why a cached hit can never trip a breaker)"
        );
        let stats = engine.cache_stats().unwrap();
        assert!(stats.hits > 0, "second run must hit: {stats:?}");
    }

    #[test]
    fn link_mutation_invalidates_exactly_the_affected_entries() {
        let (mut engine, _counter) = cached_engine();
        let q = parse(CROSS_SOURCE).unwrap();
        assert_eq!(engine.execute(&q).unwrap().len(), 1);
        engine.execute(&q).unwrap(); // warm

        // Removing the bridging link must drop the dependent entries:
        // the next run re-probes and finds no cross-source answer.
        let link = Link::new("http://db/LeBron", "http://nyt/lebron-james");
        assert!(engine.links_mut().remove(&link));
        assert!(engine.execute(&q).unwrap().is_empty());

        // Re-adding restores the answer (again via invalidation, not a
        // stale entry from before the removal).
        assert!(engine.links_mut().add(link));
        assert_eq!(engine.execute(&q).unwrap().len(), 1);
        let stats = engine.cache_stats().unwrap();
        assert!(stats.invalidations > 0);
    }

    #[test]
    fn unrelated_link_mutation_keeps_entries_warm() {
        let (engine, counter) = cached_engine();
        let mut engine = engine;
        let q = parse(CROSS_SOURCE).unwrap();
        engine.execute(&q).unwrap();
        let calls_warm = counter.calls.load(std::sync::atomic::Ordering::Relaxed);
        // A link on entities this query never binds must not invalidate.
        engine
            .links_mut()
            .add(Link::new("http://db/Unrelated", "http://nyt/unrelated"));
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(
            counter.calls.load(std::sync::atomic::Ordering::Relaxed),
            calls_warm,
            "unrelated mutations must leave the cache warm"
        );
    }

    #[test]
    fn set_links_clears_cache_and_resubscribes_invalidator() {
        let (mut engine, _counter) = cached_engine();
        let q = parse(CROSS_SOURCE).unwrap();
        engine.execute(&q).unwrap();
        assert!(engine.cache_stats().unwrap().entries > 0);

        // Wholesale replacement: full clear.
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        assert_eq!(engine.cache_stats().unwrap().entries, 0);

        // The invalidator must follow the engine onto the new index.
        engine.execute(&q).unwrap(); // warm against the new links
        assert!(engine.cache_stats().unwrap().entries > 0);
        engine
            .links_mut()
            .remove(&Link::new("http://db/LeBron", "http://nyt/lebron-james"));
        assert!(
            engine.execute(&q).unwrap().is_empty(),
            "mutations after set_links must still invalidate"
        );
    }

    #[test]
    fn cached_and_uncached_answers_are_identical_under_faults() {
        // Retry-masked transients: answers are stable, so cache on/off
        // must agree byte-for-byte even though call streams differ.
        let build = |cache: bool| {
            let mut engine = FederatedEngine::new();
            engine.add_endpoint(Box::new(FaultyEndpoint::new(
                DatasetEndpoint::new(dbpedia()),
                FaultProfile {
                    seed: 3,
                    transient_rate: 0.3,
                    ..FaultProfile::none()
                },
            )));
            engine.add_endpoint(Box::new(DatasetEndpoint::new(nyt())));
            engine.set_links(SameAsLinks::from_pairs(vec![(
                "http://db/LeBron",
                "http://nyt/lebron-james",
            )]));
            let mut cfg = fast_resilience();
            cfg.breaker.failure_threshold = 100;
            engine.set_resilience(cfg);
            if cache {
                engine.enable_cache(64);
            }
            engine
        };
        let cached = build(true);
        let uncached = build(false);
        let q = parse(CROSS_SOURCE).unwrap();
        for _ in 0..5 {
            let a = cached.execute_full(&q).unwrap();
            let b = uncached.execute_full(&q).unwrap();
            assert_eq!(a, b);
        }
        assert!(cached.cache_stats().unwrap().hits > 0);
        assert!(uncached.cache_stats().is_none());
    }

    #[test]
    fn per_endpoint_budget_skips_slow_sources() {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(dbpedia())));
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultProfile {
                latency: Duration::from_millis(3),
                ..FaultProfile::none()
            },
        )));
        let mut cfg = fast_resilience();
        cfg.endpoint_budget = Some(Duration::from_micros(200));
        engine.set_resilience(cfg);
        let q = parse("SELECT ?who WHERE { ?who <http://db/award> \"NBA MVP 2013\" }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert_eq!(result.answers.len(), 1, "fast source still answers");
        assert_eq!(result.completeness.skipped(), ["NYTimes".to_string()]);
    }

    // ------------------------------------------------------------- unions

    #[test]
    fn union_concatenates_branch_solutions() {
        let engine = engine();
        let q = parse(
            "SELECT ?who ?what WHERE { \
             { ?who <http://db/award> ?what . } UNION { ?who <http://db/label> ?what . } }",
        )
        .unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 3, "2 award rows + 1 label row");
        // Branch-major order: all award answers precede the label answer.
        assert_eq!(
            answers[2].bindings.get("what"),
            Some(&Value::plain("LeBron James"))
        );
        assert!(answers.iter().all(|a| a.links_used.is_empty()));
    }

    #[test]
    fn union_branches_join_against_required_bindings() {
        let engine = engine();
        // ?who is bound by the required pattern; the union branch probes it
        // as a bound variable, so sameAs expansion still applies and the
        // cross-source answer carries link provenance.
        let q = parse(
            "SELECT ?article ?x WHERE { \
             ?who <http://db/award> \"NBA MVP 2013\" . \
             { ?article <http://nyt/about> ?who . } UNION \
             { ?article <http://db/never> ?x . } }",
        )
        .unwrap();
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(
            answers[0].links_used,
            vec![Link::new("http://db/LeBron", "http://nyt/lebron-james")]
        );
    }

    #[test]
    fn union_branch_constants_are_not_sameas_expanded() {
        let engine = engine();
        // The NYT IRI has a sameAs link back to http://db/LeBron, which
        // holds an award row — but inside a union branch the constant is
        // taken literally, so no answer flows through the link.
        let q = parse(
            "SELECT ?what WHERE { \
             { <http://nyt/lebron-james> <http://db/award> ?what . } UNION \
             { <http://nyt/lebron-james> <http://db/never> ?what . } }",
        )
        .unwrap();
        assert!(engine.execute(&q).unwrap().is_empty());
        // The same constant in a required pattern *does* expand.
        let plain =
            parse("SELECT ?what WHERE { <http://nyt/lebron-james> <http://db/award> ?what }")
                .unwrap();
        let answers = engine.execute(&plain).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(!answers[0].links_used.is_empty());
    }

    // ------------------------------------------------------------ catalog

    /// Two counting endpoints so tests can observe per-source traffic.
    fn counting_engine() -> (
        FederatedEngine,
        Arc<CountingEndpoint>,
        Arc<CountingEndpoint>,
    ) {
        struct Shared(Arc<CountingEndpoint>);
        impl Endpoint for Shared {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn matching(
                &self,
                s: Option<&Value>,
                p: Option<&Value>,
                o: Option<&Value>,
                deadline: &Deadline,
            ) -> std::result::Result<Vec<[Value; 3]>, EndpointError> {
                self.0.matching(s, p, o, deadline)
            }
        }
        let db = Arc::new(CountingEndpoint::new(dbpedia()));
        let nyt_ep = Arc::new(CountingEndpoint::new(nyt()));
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(Shared(Arc::clone(&db))));
        engine.add_endpoint(Box::new(Shared(Arc::clone(&nyt_ep))));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        (engine, db, nyt_ep)
    }

    fn calls(ep: &CountingEndpoint) -> u64 {
        ep.calls.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn catalog_prunes_endpoints_that_cannot_answer() {
        let (mut engine, db, nyt_ep) = counting_engine();
        let catalog = engine.build_catalog().unwrap();
        engine.set_catalog(Some(catalog));
        let probe_calls_nyt = calls(&nyt_ep);
        let q = parse("SELECT ?who WHERE { ?who <http://db/award> \"NBA MVP 2013\" }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert_eq!(result.answers.len(), 1);
        assert!(result.is_complete(), "a prune is not a skip");
        assert_eq!(
            calls(&nyt_ep),
            probe_calls_nyt,
            "NYT holds no http://db/award triples: provably prunable"
        );
        assert!(calls(&db) > 1, "DBpedia answered (1 call was the scan)");
    }

    #[test]
    fn catalog_pruned_and_broadcast_answers_are_identical() {
        let (engine, _, _) = counting_engine();
        let (mut pruned_engine, _, _) = counting_engine();
        let catalog = pruned_engine.build_catalog().unwrap();
        pruned_engine.set_catalog(Some(catalog));
        for query in [
            CROSS_SOURCE,
            "SELECT ?who ?what WHERE { ?who <http://db/award> ?what }",
            "SELECT ?s WHERE { ?s <http://no/such/predicate> ?o }",
        ] {
            let q = parse(query).unwrap();
            assert_eq!(
                engine.execute_full(&q).unwrap(),
                pruned_engine.execute_full(&q).unwrap(),
                "{query}"
            );
        }
    }

    #[test]
    fn stale_catalog_falls_back_to_broadcast() {
        let (mut engine, _, nyt_ep) = counting_engine();
        let catalog = engine.build_catalog().unwrap();
        engine.set_catalog(Some(catalog));
        let q = parse("SELECT ?who WHERE { ?who <http://db/award> \"NBA MVP 2013\" }").unwrap();
        engine.execute(&q).unwrap();
        let before = calls(&nyt_ep);
        engine.catalog_mut().unwrap().bump_version();
        engine.execute(&q).unwrap();
        assert!(
            calls(&nyt_ep) > before,
            "stale coverage is unknown coverage: the endpoint is probed again"
        );
    }

    #[test]
    fn pruning_composes_with_resilience_not_masks_it() {
        // A covered endpoint that is down still degrades the result: the
        // catalog only ever removes provably-empty probes, so an outage on
        // a source that *could* answer keeps its explicit skip marker.
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(dbpedia())));
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultProfile {
                outage: Some((0, u64::MAX)),
                ..FaultProfile::none()
            },
        )));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        engine.set_resilience(fast_resilience());
        // Coverage declared upfront (the outage forbids probing).
        let mut catalog = Catalog::new();
        catalog.declare(
            "DBpedia",
            ["http://db/award", "http://db/label"].map(String::from),
            [],
        );
        catalog.declare(
            "NYTimes",
            ["http://nyt/about", "http://nyt/headline"].map(String::from),
            [],
        );
        engine.set_catalog(Some(catalog));

        // NYT is covered for this query, so it is probed, fails, and the
        // result is explicitly partial — never a silent gap.
        let q = parse(CROSS_SOURCE).unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert_eq!(result.completeness.skipped(), ["NYTimes".to_string()]);

        // For a DBpedia-only query NYT is pruned before it can fail, and
        // the answer is complete.
        let q = parse("SELECT ?what WHERE { ?who <http://db/award> ?what }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert_eq!(result.answers.len(), 2);
        assert!(result.is_complete());
    }

    // ----------------------------------------------------------- rewriting

    #[test]
    fn rewritten_execution_preserves_answers_and_provenance() {
        let engine = engine();
        for query in [
            "SELECT ?article WHERE { ?article <http://nyt/about> <http://db/LeBron> }",
            "SELECT ?what WHERE { <http://db/LeBron> <http://db/award> ?what }",
            CROSS_SOURCE,
        ] {
            let q = parse(query).unwrap();
            let plain = engine.execute_full(&q).unwrap();
            let rewritten = engine.rewrite(&q);
            let via_rewrite = engine.execute_rewritten(&rewritten).unwrap();
            let sorted = |mut r: FederatedResult| {
                r.answers
                    .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                r
            };
            assert_eq!(sorted(plain), sorted(via_rewrite), "{query}");
        }
    }

    #[test]
    fn rewritten_cross_source_answer_credits_the_link() {
        let engine = engine();
        let q = parse("SELECT ?article WHERE { ?article <http://nyt/about> <http://db/LeBron> }")
            .unwrap();
        let rewritten = engine.rewrite(&q);
        assert_eq!(rewritten.rewritten_patterns(), 1);
        let answers = engine.execute_rewritten(&rewritten).unwrap().answers;
        assert_eq!(answers.len(), 1);
        assert_eq!(
            answers[0].links_used,
            vec![Link::new("http://db/LeBron", "http://nyt/lebron-james")],
            "the substituted branch owes its answer to the link"
        );
    }

    #[test]
    fn stale_rewrite_is_rejected() {
        let mut engine = engine();
        let q = parse(CROSS_SOURCE).unwrap();
        let rewritten = engine.rewrite(&q);
        engine
            .links_mut()
            .add(Link::new("http://db/Durant", "http://nyt/kevin-durant"));
        let err = engine.execute_rewritten(&rewritten).unwrap_err();
        assert!(err.to_string().contains("stale sameAs rewrite"), "{err}");
    }

    #[test]
    fn rewritten_cache_keys_miss_after_any_closure_change() {
        let (mut engine, counter) = cached_engine();
        let q = parse("SELECT ?article WHERE { ?article <http://nyt/about> <http://db/LeBron> }")
            .unwrap();
        let rw = engine.rewrite(&q);
        let first = engine.execute_rewritten(&rw).unwrap();
        assert_eq!(first.answers.len(), 1);
        let warm = calls(&counter);
        assert_eq!(
            engine.execute_rewritten(&rw).unwrap(),
            first,
            "same closure: repeat is served warm"
        );
        assert_eq!(calls(&counter), warm);

        // A mutation that does not touch this query's anchors would leave
        // plain entries warm — but it bumps the closure generation, so the
        // re-rewritten execution must go back to the endpoints rather than
        // trust entries computed under the old closure.
        engine
            .links_mut()
            .add(Link::new("http://db/Unrelated", "http://nyt/unrelated"));
        let rw2 = engine.rewrite(&q);
        let misses_before = engine.cache_stats().unwrap().misses;
        let again = engine.execute_rewritten(&rw2).unwrap();
        assert_eq!(again.answers, first.answers);
        assert!(
            engine.cache_stats().unwrap().misses > misses_before,
            "generation-stamped keys must miss, not stale-hit"
        );
        assert!(calls(&counter) > warm);
    }
}
