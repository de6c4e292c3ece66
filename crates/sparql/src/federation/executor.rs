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
use std::sync::Mutex;
use std::time::Instant;

use alex_telemetry::{counter, emit, span, Event};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ast::{Expr, Query, TermPattern, TriplePattern};
use crate::error::{Result, SparqlError};
use crate::expr::{eval_expr, expr_variables, Bindings};
use crate::value::Value;

use super::cache::{CacheStats, ProbeCache};
use super::catalog::Catalog;
use super::endpoint::{Endpoint, Probe, Rows};
use super::links::{Link, SameAsLinks};
use super::resilience::{
    BreakerState, CircuitBreaker, Completeness, Deadline, EndpointError, ResilienceConfig,
};

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
    /// Optional answer cache, one entry per endpoint probe.
    cache: Option<ProbeCache>,
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
    /// Endpoint probes served from the answer cache.
    cache_hits: u64,
    /// Endpoint probes that missed and were sent live.
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

    /// Enable the answer cache with room for `capacity` endpoint probe
    /// answers. A probe's answer depends only on the endpoint's data, so
    /// link mutations never stale an entry (see the `cache` module).
    pub fn enable_cache(&mut self, capacity: usize) {
        self.cache = Some(ProbeCache::new(capacity));
    }

    /// Snapshot of the cache counters (`None` when disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Install (or remove, with `None`) the coverage catalog the executor
    /// consults for source selection. Entries are keyed by endpoint slot;
    /// endpoints without an entry are broadcast as before.
    pub fn set_catalog(&mut self, catalog: Option<Catalog>) {
        self.catalog = catalog;
    }

    /// Build a catalog by exhaustively scanning every registered endpoint.
    /// Each scan is a one-probe wildcard request under the same retries,
    /// breaker and per-request deadline as query traffic (its tallies stay
    /// out of the query counters). Fails on the first endpoint whose scan
    /// fails terminally — a partial catalog built here would be
    /// indistinguishable from a complete one.
    pub fn build_catalog(&self) -> std::result::Result<Catalog, EndpointError> {
        let mut catalog = Catalog::new();
        for i in 0..self.endpoints.len() {
            let run = self.run_endpoint_jobs(i, &[[None, None, None]]);
            if let Some((_, err)) = run.terminal {
                return Err(err);
            }
            for rows in run.rows.iter().flatten() {
                catalog.record_scan(i, rows);
            }
        }
        Ok(catalog)
    }

    /// Replace the link index. Cached probe answers stay valid: they
    /// never depended on links.
    pub fn set_links(&mut self, links: SameAsLinks) {
        self.links = links;
    }

    /// Borrow the link index.
    pub fn links(&self) -> &SameAsLinks {
        &self.links
    }

    /// Mutably borrow the link index (ALEX adds/removes links here).
    pub fn links_mut(&mut self) -> &mut SameAsLinks {
        &mut self.links
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
        let query_span = span("federated_query");
        let mut stats = ExecStats::default();
        // Slots of the sources skipped this execution (down past their
        // retry allowance or shed by an open breaker).
        let mut skipped: BTreeSet<usize> = BTreeSet::new();
        let patterns: Vec<&TriplePattern> = query.patterns().collect();
        let pattern_count = patterns.len();
        let mut filters: Vec<&Expr> = query.filters().collect();

        // The basic graph pattern, each filter applied as soon as its
        // variables are bound.
        let mut partials = self.join_patterns(
            vec![(Bindings::new(), Vec::new())],
            patterns,
            &mut filters,
            &mut stats,
            &mut skipped,
            false,
        )?;

        // UNION alternations, in syntactic order: each element joins every
        // surviving solution through each of its branches independently
        // and keeps the concatenation (branch-major — deterministic at any
        // thread count). Inside branches implicit *constant* sameAs
        // expansion is off: a union spells its alternatives out, and
        // expanding them again would duplicate answers; runtime-bound
        // variable values still expand.
        for branches in query.unions() {
            let mut next: Vec<Partial> = Vec::new();
            for branch in branches {
                next.extend(self.join_patterns(
                    partials.clone(),
                    branch.iter().collect(),
                    &mut Vec::new(),
                    &mut stats,
                    &mut skipped,
                    true,
                )?);
            }
            partials = next;
            if partials.is_empty() {
                break;
            }
        }

        // Any filter not yet applied (e.g. over a variable that never got
        // bound) is evaluated now and surfaces unbound-variable errors.
        for filter in filters {
            partials = apply_filter(filter, partials)?;
        }

        // OPTIONAL groups: left outer join. Each surviving solution is
        // extended with every compatible solution of the group; solutions
        // the group cannot extend are kept unextended.
        for group in query.optionals() {
            let mut next: Vec<Partial> = Vec::new();
            for (bindings, links_used) in partials {
                let seed = vec![(bindings.clone(), links_used.clone())];
                let extended = self.join_patterns(
                    seed,
                    group.iter().collect(),
                    &mut Vec::new(),
                    &mut stats,
                    &mut skipped,
                    false,
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

        let mut skipped_sources: Vec<String> = skipped
            .iter()
            .map(|&i| self.endpoints[i].name().to_string())
            .collect();
        skipped_sources.sort_unstable();
        let completeness = if skipped_sources.is_empty() {
            Completeness::Complete
        } else {
            Completeness::Partial { skipped_sources }
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
        counter!("alex_federated_queries_total").inc();
        counter!("alex_source_selection_probes_total").add(stats.probes);
        counter!("federation_pruned_probes_total").add(stats.pruned_probes);
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
    /// greedy variable-counting order (FedX's heuristic): next comes the
    /// pattern with the most positions bound given current bindings. After
    /// each pattern, every filter in `filters` whose variables are all
    /// bound is applied and removed. The BGP passes the query's filters;
    /// UNION branches and OPTIONAL groups pass none.
    fn join_patterns(
        &self,
        mut partials: Vec<Partial>,
        mut remaining: Vec<&TriplePattern>,
        filters: &mut Vec<&Expr>,
        stats: &mut ExecStats,
        skipped: &mut BTreeSet<usize>,
        in_union: bool,
    ) -> Result<Vec<Partial>> {
        while !remaining.is_empty() && !partials.is_empty() {
            let bound_vars = bound_variables(&partials);
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
                    pattern, bindings, links_used, &mut next, stats, skipped, in_union,
                )?;
            }
            partials = next;
            if partials.is_empty() {
                break;
            }

            let now_bound = bound_variables(&partials);
            let (ready, pending): (Vec<&Expr>, Vec<&Expr>) = filters
                .drain(..)
                .partition(|f| expr_variables(f).iter().all(|v| now_bound.contains(*v)));
            *filters = pending;
            for filter in ready {
                partials = apply_filter(filter, partials)?;
            }
        }
        Ok(partials)
    }

    /// Join one pattern against all endpoints for one partial solution,
    /// expanding bound IRIs through sameAs links. Endpoint failures are
    /// absorbed by the resilience layer: the failing source is skipped
    /// (recorded in `skipped`) unless the engine is in fail-fast mode.
    ///
    /// Each endpoint with live work gets its uncached jobs as one request
    /// (a FedX-style bound join), endpoints running concurrently; within
    /// each endpoint the probe sequence stays in job order, so per-endpoint
    /// behavior (retry sequences, breaker transitions, the fault injector's
    /// seeded call stream) is identical to the sequential per-probe
    /// executor sending the same probes. The merge below replays the
    /// sequential (job, endpoint) nesting, so answer order, skip
    /// provenance, and fail-fast error selection are unchanged.
    #[allow(clippy::too_many_arguments)]
    fn extend_with_pattern(
        &self,
        pattern: &TriplePattern,
        bindings: &Bindings,
        links_used: &[Link],
        out: &mut Vec<Partial>,
        stats: &mut ExecStats,
        skipped: &mut BTreeSet<usize>,
        in_union: bool,
    ) -> Result<()> {
        stats.bound_join_iterations += 1;

        // Resolve each position: bound value (with sameAs alternatives for
        // IRIs in subject/object position) or wildcard. Inside UNION
        // branches constants are not expanded — the branch list is the
        // explicit expansion.
        let expand_constants = !in_union;
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
        // including combos short-circuited by an earlier skip or served
        // from the cache: `probes` counts logical source selection, not
        // endpoint calls, so the event field is identical with the cache
        // on or off.
        stats.probes += (jobs.len() * self.endpoints.len()) as u64;

        let mut runs = self.dispatch_jobs(&jobs, stats, skipped)?;

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
    /// task per endpoint with uncached jobs, then fold the per-endpoint
    /// outcomes back into the shared stats/skip state in endpoint order
    /// (deterministic).
    fn dispatch_jobs(
        &self,
        jobs: &[ProbeJob<'_>],
        stats: &mut ExecStats,
        skipped: &mut BTreeSet<usize>,
    ) -> Result<Vec<EndpointRun>> {
        let probes: Vec<Probe<'_>> = jobs.iter().map(|job| [job.s, job.p, job.o]).collect();
        // Sources already skipped stay skipped for this query: further
        // probes would only burn the remaining sources' time budget.
        let pre_skipped: Vec<bool> = (0..self.endpoints.len())
            .map(|i| skipped.contains(&i))
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
            Some(catalog) => (0..self.endpoints.len())
                .map(|i| {
                    !pre_skipped[i]
                        && !jobs.is_empty()
                        && jobs.iter().all(|job| !catalog.may_match(i, job.p, job.o))
                })
                .collect(),
        };
        stats.pruned_probes += (jobs.len() * pruned.iter().filter(|&&p| p).count()) as u64;

        // Look each probe up before dispatch, on the coordinator thread in
        // endpoint then job order (deterministic LRU movement). A hit
        // bypasses the resilience layer entirely — no endpoint call, no
        // retry, no breaker transition. Pre-skipped and pruned endpoints
        // are never looked up: serving a skipped source from cache would
        // resurrect it mid-query, and a pruned one has nothing to serve.
        // `missing[i]` lists the jobs endpoint `i` must still be asked.
        let mut runs: Vec<EndpointRun> = self
            .endpoints
            .iter()
            .map(|_| EndpointRun::idle(jobs.len()))
            .collect();
        let mut missing: Vec<Vec<usize>> = vec![Vec::new(); self.endpoints.len()];
        for i in 0..self.endpoints.len() {
            if pre_skipped[i] || pruned[i] {
                continue;
            }
            let Some(cache) = &self.cache else {
                missing[i] = (0..jobs.len()).collect();
                continue;
            };
            for (j, probe) in probes.iter().enumerate() {
                match cache.get(i, probe) {
                    Some(rows) => {
                        stats.cache_hits += 1;
                        runs[i].rows[j] = Some(rows);
                    }
                    None => {
                        stats.cache_misses += 1;
                        missing[i].push(j);
                    }
                }
            }
        }

        // Only endpoints with live work go to the pool, so a dispatch with
        // one live endpoint runs inline and an all-hit or all-pruned one
        // spawns nothing. Each gets one request carrying its missing
        // probes in job order; pre-skipped and pruned endpoints keep
        // all-`None` rows and send nothing (a pruned one records no
        // terminal and lands in no skip set).
        let live: Vec<usize> = (0..self.endpoints.len())
            .filter(|&i| !missing[i].is_empty())
            .collect();
        let pool = alex_parallel::Pool::new("federation");
        let fresh = pool.map_each(&live, |&i| {
            let sent: Vec<Probe<'_>> = missing[i].iter().map(|&j| probes[j]).collect();
            self.run_endpoint_jobs(i, &sent)
        });
        for (&i, sent) in live.iter().zip(fresh) {
            let run = &mut runs[i];
            // Every answered probe becomes a cache entry (coordinator
            // thread, endpoint then job order — deterministic); its rows
            // are the endpoint's complete answer to that probe.
            for (&j, rows) in missing[i].iter().zip(sent.rows) {
                if let (Some(cache), Some(rows)) = (&self.cache, &rows) {
                    stats.cache_evictions += cache.insert(i, &probes[j], rows.clone());
                }
                run.rows[j] = rows;
            }
            // A terminal failure at the k-th sent probe is a failure at
            // its job: the source is dead from there on, so rows from that
            // job onward are dropped, cached ones included.
            run.terminal = sent
                .terminal
                .map(|(k, err)| (missing[i].get(k).copied().unwrap_or(jobs.len()), err));
            if let Some((j, _)) = &run.terminal {
                run.rows[*j..].fill(None);
            }
            run.delta = sent.delta;
            run.duration_us = sent.duration_us;
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
                slot: i as u64,
                jobs: jobs.len() as u64,
                duration_us: run.duration_us,
                retries: run.delta.retries,
                circuit_opens: run.delta.circuit_opens,
                circuit_rejections: run.delta.circuit_rejections,
                failures: run.delta.endpoint_failures,
                skipped: pre_skipped[i] || run.terminal.is_some(),
                // Served entirely from the cache: no request sent.
                cache_hit: self.cache.is_some()
                    && !pre_skipped[i]
                    && !pruned[i]
                    && missing[i].is_empty(),
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
                    skipped.insert(i);
                }
            }
        }
        Ok(runs)
    }

    /// Send endpoint `idx` its probes as requests, in order. The first
    /// request carries every probe; after a failure the next one resends
    /// from the probe that failed. Each request is admitted through
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
    fn run_endpoint_jobs(&self, idx: usize, probes: &[Probe<'_>]) -> EndpointRun {
        let started = Instant::now();
        let ep = &self.endpoints[idx];
        let breaker = &self.breakers[idx];
        let retry = &self.resilience.retry;
        let mut run = EndpointRun {
            rows: Vec::with_capacity(probes.len()),
            ..EndpointRun::idle(0)
        };
        let mut attempt: u32 = 0;
        while run.rows.len() < probes.len() {
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
                None if run.rows.len() == probes.len() => break,
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
        run.rows.resize(probes.len(), None);
        run.duration_us = started.elapsed().as_micros() as u64;
        run
    }
}

/// A partial solution: bindings plus the sameAs links used so far.
type Partial = (Bindings, Vec<Link>);

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
/// batch's wall-clock time (0 when no request was sent).
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
}

/// Lock a mutex, recovering the inner value if a previous holder panicked —
/// breaker, RNG and cache state stay usable (at worst slightly stale).
pub(super) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The variables bound in `partials`: every solution of one join step
/// binds the same ones, so the first stands for all.
fn bound_variables(partials: &[Partial]) -> HashSet<String> {
    partials
        .first()
        .map(|(b, _)| b.keys().cloned().collect())
        .unwrap_or_default()
}

/// Keep the solutions `filter` accepts.
fn apply_filter(filter: &Expr, partials: Vec<Partial>) -> Result<Vec<Partial>> {
    let mut kept = Vec::with_capacity(partials.len());
    for (b, l) in partials {
        if eval_expr(filter, &b)? {
            kept.push((b, l));
        }
    }
    Ok(kept)
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
    use crate::federation::resilience::{BreakerConfig, RetryPolicy};
    use crate::federation::FaultyEndpoint;
    use crate::parser::parse;
    use alex_fault::FaultPlan;
    use alex_rdf::Dataset;
    use std::sync::Arc;
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
            FaultPlan {
                seed: 3,
                transient_rate: 0.4,
                ..FaultPlan::default()
            },
        )));
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultPlan {
                seed: 4,
                transient_rate: 0.4,
                ..FaultPlan::default()
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
            FaultPlan {
                outage: Some((0, u64::MAX)),
                ..FaultPlan::default()
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
    fn a_dead_endpoint_does_not_silence_a_healthy_namesake() {
        // Two endpoints named "x": skipping the dead one must not skip the
        // healthy one for later patterns.
        let mut dead = Dataset::new("x");
        dead.add_str("http://x/0", "http://x/age", "0");
        let mut live = Dataset::new("x");
        live.add_str("http://x/1", "http://x/name", "one");
        live.add_str("http://x/1", "http://x/age", "7");
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(dead),
            FaultPlan {
                outage: Some((0, u64::MAX)),
                ..FaultPlan::default()
            },
        )));
        engine.add_endpoint(Box::new(DatasetEndpoint::new(live)));
        engine.set_resilience(fast_resilience());
        // Equally bound patterns run last-first: the age pattern skips the
        // dead endpoint, then the name pattern still asks the live one.
        let q =
            parse("SELECT ?s ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/age> ?a }").unwrap();
        let result = engine.execute_full(&q).unwrap();
        assert_eq!(result.completeness.skipped(), ["x".to_string()]);
        assert_eq!(result.answers.len(), 1);
        assert_eq!(result.answers[0].bindings["n"], Value::plain("one"));
    }

    #[test]
    fn repeated_failures_open_the_breaker() {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(FaultyEndpoint::new(
            DatasetEndpoint::new(nyt()),
            FaultPlan {
                outage: Some((0, u64::MAX)),
                ..FaultPlan::default()
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
            FaultPlan {
                outage: Some((0, 3)),
                ..FaultPlan::default()
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
            FaultPlan {
                outage: Some((0, u64::MAX)),
                ..FaultPlan::default()
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
                FaultPlan {
                    outage: Some((0, u64::MAX)),
                    ..FaultPlan::default()
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

    /// Endpoint counting `matching` calls and logging every request's
    /// probes, to show which probes reach the endpoint. Probes whose
    /// subject is the `poison` IRI fail terminally.
    struct CountingEndpoint {
        inner: DatasetEndpoint,
        calls: std::sync::atomic::AtomicU64,
        requests: Mutex<Vec<Vec<String>>>,
        poison: Mutex<Option<String>>,
    }

    impl CountingEndpoint {
        fn new(ds: Dataset) -> Arc<Self> {
            Arc::new(CountingEndpoint {
                inner: DatasetEndpoint::new(ds),
                calls: std::sync::atomic::AtomicU64::new(0),
                requests: Mutex::new(Vec::new()),
                poison: Mutex::new(None),
            })
        }

        fn poison(&self, subject: &str) {
            *lock_unpoisoned(&self.poison) = Some(subject.to_string());
        }

        /// The probes of every request so far, each as `s p o` with `*`
        /// for a wildcard.
        fn requests(&self) -> Vec<Vec<String>> {
            lock_unpoisoned(&self.requests).clone()
        }
    }

    /// The engine owns a box of the shared handle, so a test keeps the
    /// other handle to read the counters.
    impl Endpoint for Arc<CountingEndpoint> {
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
            if let (Some(Value::Iri(iri)), Some(poison)) = (s, &*lock_unpoisoned(&self.poison)) {
                if iri == poison {
                    return Err(EndpointError::Unavailable {
                        endpoint: self.name().to_string(),
                        message: format!("poisoned probe on {iri}"),
                    });
                }
            }
            self.inner.matching(s, p, o, deadline)
        }
        fn matching_batch(
            &self,
            probes: &[Probe<'_>],
            deadline: &Deadline,
        ) -> (Vec<Rows>, Option<EndpointError>) {
            let shown = probes
                .iter()
                .map(|probe| {
                    probe
                        .iter()
                        .map(|v| v.map_or("*".to_string(), Value::to_string))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            lock_unpoisoned(&self.requests).push(shown);
            let mut answered = Vec::new();
            for &[s, p, o] in probes {
                match self.matching(s, p, o, deadline) {
                    Ok(rows) => answered.push(rows),
                    Err(err) => return (answered, Some(err)),
                }
            }
            (answered, None)
        }
    }

    fn calls(ep: &CountingEndpoint) -> u64 {
        ep.calls.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The paper engine with a counting DBpedia endpoint and the cache on.
    fn cached_engine() -> (FederatedEngine, Arc<CountingEndpoint>) {
        let counter = CountingEndpoint::new(dbpedia());
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(Arc::clone(&counter)));
        engine.add_endpoint(Box::new(DatasetEndpoint::new(nyt())));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        engine.enable_cache(64);
        (engine, counter)
    }

    /// An uncached engine over the same data and `links` — the oracle a
    /// cached engine must always agree with.
    fn uncached_engine(links: &SameAsLinks) -> FederatedEngine {
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(DatasetEndpoint::new(dbpedia())));
        engine.add_endpoint(Box::new(DatasetEndpoint::new(nyt())));
        engine.set_links(links.clone());
        engine
    }

    #[test]
    fn repeat_query_is_served_from_cache_without_endpoint_calls() {
        let (engine, counter) = cached_engine();
        let q = parse(CROSS_SOURCE).unwrap();
        let first = engine.execute(&q).unwrap();
        let calls_after_first = calls(&counter);
        assert!(calls_after_first > 0);
        let second = engine.execute(&q).unwrap();
        assert_eq!(first, second, "cached answers must be byte-identical");
        assert_eq!(
            calls(&counter),
            calls_after_first,
            "a warm repeat must not touch the endpoint at all \
             (which is also why a cached hit can never trip a breaker)"
        );
        let stats = engine.cache_stats().unwrap();
        assert!(stats.hits > 0, "second run must hit: {stats:?}");
    }

    #[test]
    fn link_mutation_resends_only_unseen_probes() {
        let (mut engine, counter) = cached_engine();
        let q = parse("SELECT ?p ?o WHERE { <http://db/LeBron> ?p ?o }").unwrap();
        engine.execute(&q).unwrap();
        let seen = counter.requests().len();

        // A new equivalent adds one probe; only that probe is sent.
        let durant = Link::new("http://db/LeBron", "http://db/Durant");
        assert!(engine.links_mut().add(durant.clone()));
        let answers = engine.execute(&q).unwrap();
        assert_eq!(
            answers,
            uncached_engine(engine.links()).execute(&q).unwrap()
        );
        assert_eq!(
            counter.requests()[seen..],
            [vec!["<http://db/Durant> * *".to_string()]]
        );

        // Removing links sends nothing: every remaining probe was seen.
        assert!(engine.links_mut().remove(&durant));
        let lebron = Link::new("http://db/LeBron", "http://nyt/lebron-james");
        assert!(engine.links_mut().remove(&lebron));
        let answers = engine.execute(&q).unwrap();
        assert_eq!(
            answers,
            uncached_engine(engine.links()).execute(&q).unwrap()
        );
        assert!(answers.iter().all(|a| a.links_used.is_empty()));
        assert_eq!(counter.requests().len(), seen + 1);

        // Re-adding a link brings back an answer from the cache alone.
        assert!(engine.links_mut().add(durant));
        let answers = engine.execute(&q).unwrap();
        assert_eq!(
            answers,
            uncached_engine(engine.links()).execute(&q).unwrap()
        );
        assert!(answers.iter().any(|a| !a.links_used.is_empty()));
        assert_eq!(counter.requests().len(), seen + 1);
    }

    #[test]
    fn unrelated_link_mutation_keeps_entries_warm() {
        let (engine, counter) = cached_engine();
        let mut engine = engine;
        let q = parse(CROSS_SOURCE).unwrap();
        engine.execute(&q).unwrap();
        let calls_warm = calls(&counter);
        // A link on entities this query never binds changes no probe.
        engine
            .links_mut()
            .add(Link::new("http://db/Unrelated", "http://nyt/unrelated"));
        let answers = engine.execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(
            calls(&counter),
            calls_warm,
            "unrelated mutations must leave the cache warm"
        );
    }

    #[test]
    fn set_links_keeps_entries_warm() {
        let (mut engine, counter) = cached_engine();
        let q = parse(CROSS_SOURCE).unwrap();
        engine.execute(&q).unwrap();
        let entries = engine.cache_stats().unwrap().entries;
        assert!(entries > 0);
        let calls_warm = calls(&counter);

        // Wholesale replacement keeps every entry: none depended on links.
        let replacement =
            SameAsLinks::from_pairs(vec![("http://nyt/lebron-james", "http://db/LeBron")]);
        engine.set_links(replacement.clone());
        assert_eq!(engine.cache_stats().unwrap().entries, entries);
        assert_eq!(
            engine.execute_full(&q).unwrap(),
            uncached_engine(&replacement).execute_full(&q).unwrap()
        );
        assert_eq!(calls(&counter), calls_warm, "the same probes run warm");

        engine.set_links(SameAsLinks::new());
        let answers = engine.execute(&q).unwrap();
        assert!(answers.is_empty());
        assert_eq!(
            answers,
            uncached_engine(&SameAsLinks::new()).execute(&q).unwrap()
        );
    }

    #[test]
    fn only_missing_probes_are_sent_in_job_order() {
        let (mut engine, counter) = cached_engine();
        // Warm the middle job's probe on its own.
        let q = |s: &str| parse(&format!("SELECT ?p ?o WHERE {{ <{s}> ?p ?o }}")).unwrap();
        engine.execute(&q("http://db/Durant")).unwrap();
        engine
            .links_mut()
            .remove(&Link::new("http://db/LeBron", "http://nyt/lebron-james"));
        for other in ["http://db/Durant", "http://nyt/lebron-james"] {
            engine.links_mut().add(Link::new("http://db/LeBron", other));
        }
        let seen = counter.requests().len();

        // Jobs: LeBron, Durant (cached), lebron-james — one request with
        // the first and the last.
        let result = engine.execute_full(&q("http://db/LeBron")).unwrap();
        assert_eq!(
            counter.requests()[seen..],
            [vec![
                "<http://db/LeBron> * *".to_string(),
                "<http://nyt/lebron-james> * *".to_string()
            ]]
        );
        assert_eq!(
            result,
            uncached_engine(engine.links())
                .execute_full(&q("http://db/LeBron"))
                .unwrap()
        );
    }

    #[test]
    fn a_failure_mid_batch_drops_cached_rows_from_the_failing_job_on() {
        let (mut engine, counter) = cached_engine();
        let q = |s: &str| parse(&format!("SELECT ?p ?o WHERE {{ <{s}> ?p ?o }}")).unwrap();
        // Cache jobs 0 and 2 (LeBron, Durant); job 1 is sent and fails.
        engine.execute(&q("http://db/LeBron")).unwrap();
        engine.execute(&q("http://db/Durant")).unwrap();
        engine
            .links_mut()
            .remove(&Link::new("http://db/LeBron", "http://nyt/lebron-james"));
        for other in ["http://db/Ghost", "http://db/Durant"] {
            engine.links_mut().add(Link::new("http://db/LeBron", other));
        }
        counter.poison("http://db/Ghost");

        let result = engine.execute_full(&q("http://db/LeBron")).unwrap();
        assert_eq!(result.completeness.skipped(), ["DBpedia".to_string()]);
        // Only job 0's two cached rows survive; Durant's cached row comes
        // after the failing job and is dropped.
        assert_eq!(result.answers.len(), 2);
        assert!(result.answers.iter().all(|a| a.links_used.is_empty()));
        assert_eq!(
            counter.requests().last().unwrap(),
            &vec!["<http://db/Ghost> * *".to_string()]
        );
    }

    #[test]
    fn a_pre_skipped_endpoint_is_served_nothing_from_cache() {
        // Two endpoints over the same data: a skipped one must not add
        // its cached rows to later patterns.
        let healthy = CountingEndpoint::new(dbpedia());
        let mut mirror = Dataset::new("Mirror");
        mirror.add_str("http://db/LeBron", "http://db/award", "NBA MVP 2013");
        mirror.add_str("http://db/Durant", "http://db/award", "NBA MVP 2014");
        let flaky = CountingEndpoint::new(mirror);
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(Arc::clone(&healthy)));
        engine.add_endpoint(Box::new(Arc::clone(&flaky)));
        engine.set_resilience(fast_resilience());
        engine.enable_cache(64);
        let award = parse("SELECT ?a WHERE { <http://db/LeBron> <http://db/award> ?a }").unwrap();
        assert_eq!(engine.execute(&award).unwrap().len(), 2, "both answer");

        // The last of two equally bound patterns runs first: it fails on
        // the mirror, which is then skipped for the award pattern.
        flaky.poison("http://db/Durant");
        let q = parse(
            "SELECT ?a ?l WHERE { <http://db/LeBron> <http://db/award> ?a . \
             <http://db/Durant> <http://db/award> ?l }",
        )
        .unwrap();
        let hits_before = engine.cache_stats().unwrap().hits;
        let mirror_requests = flaky.requests().len();
        let result = engine.execute_full(&q).unwrap();
        assert_eq!(result.completeness.skipped(), ["Mirror".to_string()]);
        assert_eq!(
            result.answers.len(),
            1,
            "the mirror's cached row is not served"
        );
        assert_eq!(
            engine.cache_stats().unwrap().hits,
            hits_before + 1,
            "only the healthy endpoint looks up the award probe"
        );
        assert_eq!(flaky.requests().len(), mirror_requests + 1);
    }

    #[test]
    fn fail_fast_picks_the_uncached_engines_error() {
        // Endpoint 0 fails on job 1, endpoint 1 on job 0. With endpoint
        // 0's job 0 cached, its request starts at job 1 — the error must
        // still be endpoint 1's, as on an uncached engine.
        let build = |cache: bool| {
            let first = CountingEndpoint::new(dbpedia());
            let mut second_ds = Dataset::new("Second");
            second_ds.add_str("http://db/LeBron", "http://db/label", "LeBron");
            let second = CountingEndpoint::new(second_ds);
            let mut engine = FederatedEngine::new();
            engine.add_endpoint(Box::new(Arc::clone(&first)));
            engine.add_endpoint(Box::new(Arc::clone(&second)));
            engine.set_resilience(fast_resilience());
            if cache {
                engine.enable_cache(64);
            }
            (engine, first, second)
        };
        let q = parse("SELECT ?p ?o WHERE { <http://db/LeBron> ?p ?o }").unwrap();
        let mut errors = Vec::new();
        for cache in [false, true] {
            let (mut engine, first, second) = build(cache);
            second.poison("http://db/LeBron");
            // Warm-up: endpoint 0 answers job 0, endpoint 1 fails on it.
            engine.execute_full(&q).unwrap();
            first.poison("http://db/Durant");
            let mut cfg = fast_resilience();
            cfg.fail_fast = true;
            engine.set_resilience(cfg);
            engine
                .links_mut()
                .add(Link::new("http://db/LeBron", "http://db/Durant"));
            match engine.execute_full(&q) {
                Err(SparqlError::Endpoint(err)) => errors.push(err.endpoint().to_string()),
                other => panic!("expected an endpoint error, got {other:?}"),
            }
        }
        assert_eq!(errors, ["Second", "Second"]);
    }

    #[test]
    fn cached_and_uncached_answers_are_identical_under_faults() {
        // Retry-masked transients: answers are stable, so cache on/off
        // must agree byte-for-byte even though call streams differ.
        let build = |cache: bool| {
            let mut engine = FederatedEngine::new();
            engine.add_endpoint(Box::new(FaultyEndpoint::new(
                DatasetEndpoint::new(dbpedia()),
                FaultPlan {
                    seed: 3,
                    transient_rate: 0.3,
                    ..FaultPlan::default()
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
            FaultPlan {
                latency: Duration::from_millis(3),
                ..FaultPlan::default()
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
        let db = CountingEndpoint::new(dbpedia());
        let nyt_ep = CountingEndpoint::new(nyt());
        let mut engine = FederatedEngine::new();
        engine.add_endpoint(Box::new(Arc::clone(&db)));
        engine.add_endpoint(Box::new(Arc::clone(&nyt_ep)));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        (engine, db, nyt_ep)
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

    /// A catalog built outside any engine: `record_scan` over a direct
    /// wildcard scan of each healthy dataset.
    fn healthy_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        for (i, ds) in [dbpedia(), nyt()].into_iter().enumerate() {
            let ep = DatasetEndpoint::new(ds);
            let rows = ep.matching(None, None, None, &Deadline::none()).unwrap();
            catalog.record_scan(i, &rows);
        }
        catalog
    }

    #[test]
    fn catalog_scans_retry_transient_faults_and_refuse_outages() {
        let profile = |seed: u64, transient_rate: f64| FaultPlan {
            seed,
            transient_rate,
            ..FaultPlan::default()
        };
        let build = |fault: &dyn Fn(u64) -> FaultPlan| {
            let mut engine = FederatedEngine::new();
            for (i, ds) in [dbpedia(), nyt()].into_iter().enumerate() {
                engine.add_endpoint(Box::new(FaultyEndpoint::new(
                    DatasetEndpoint::new(ds),
                    fault(i as u64),
                )));
            }
            let mut cfg = fast_resilience();
            cfg.breaker.failure_threshold = 50;
            engine.set_resilience(cfg);
            engine.build_catalog()
        };
        let clean = healthy_catalog();
        assert_eq!(build(&|_| FaultPlan::default()).unwrap(), clean);
        let mut unretried_failures = 0;
        for seed in 0..8u64 {
            let faulty = build(&|i| profile(seed + i, 0.3)).unwrap();
            assert_eq!(faulty, clean, "seed {seed}: retries must mask the faults");
            // The same scan without the resilience layer fails on some seed.
            let direct = FaultyEndpoint::new(DatasetEndpoint::new(dbpedia()), profile(seed, 0.3));
            if direct
                .matching(None, None, None, &Deadline::none())
                .is_err()
            {
                unretried_failures += 1;
            }
        }
        assert!(unretried_failures > 0, "the faults never hit a scan");

        // A terminal failure still refuses the whole catalog.
        let outage = build(&|_| FaultPlan {
            outage: Some((0, u64::MAX)),
            ..FaultPlan::default()
        });
        assert!(matches!(outage, Err(EndpointError::Unavailable { .. })));
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
            FaultPlan {
                outage: Some((0, u64::MAX)),
                ..FaultPlan::default()
            },
        )));
        engine.set_links(SameAsLinks::from_pairs(vec![(
            "http://db/LeBron",
            "http://nyt/lebron-james",
        )]));
        engine.set_resilience(fast_resilience());
        // Coverage scanned while NYT was healthy (the outage forbids
        // probing it now).
        engine.set_catalog(Some(healthy_catalog()));

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
}
