//! The ALEX agent: Algorithm 1 (ε-greedy Monte-Carlo link exploration).
//!
//! The agent owns the link space, the candidate set, the policy, the
//! action-value estimates, and the blacklist/rollback state. Feedback items
//! drive *policy evaluation* within an episode ([`Agent::process_attributed`]);
//! [`Agent::end_episode`] performs *policy improvement*; the loop over both
//! lives in [`crate::driver`].

use std::collections::HashSet;

use alex_telemetry::{counter, emit, Event, StepWindow};
use alex_trust::{net_support, SourceId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::blacklist::Blacklist;
use crate::candidates::CandidateSet;
use crate::config::AlexConfig;
use crate::feature::FeatureId;
use crate::feedback::{Feedback, FeedbackItem, FeedbackSource};
use crate::pairmap::PairSet;
use crate::persist::{self, AgentState};
use crate::policy::Policy;
use crate::provenance::Provenance;
use crate::space::{LinkSpace, PairId, Window};
use crate::trust_gate::{AdmissionRecord, BitMask, RollbackUndo, TrustGate, WindowList};
use crate::value_fn::ActionValue;

/// Reward for positive feedback (§4.3).
pub(crate) const POSITIVE_REWARD: f64 = 1.0;

/// Penalty magnitude for negative feedback; the reward is its negation.
/// "we can severely penalize wrong links by giving them a negative value
/// that is larger than the positive value of the approved link" (§4.3):
/// doing so speeds the policy's retreat from non-distinctive features.
pub(crate) const NEGATIVE_PENALTY: f64 = 2.0;

/// What one feedback item did to the candidate set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Links added by exploration.
    pub added: usize,
    /// Links removed (the judged link and any rollback victims).
    pub removed: usize,
    /// Whether a rollback fired.
    pub rolled_back: bool,
    /// The action taken on positive feedback, if any.
    pub action: Option<FeatureId>,
    /// Trust gate: the vote crossed quorum and the feedback applied.
    pub trust_admitted: bool,
    /// Trust gate: the vote was buffered awaiting quorum.
    pub trust_deferred: bool,
    /// Trust gate: admissions revoked by cascading rollback this step.
    pub trust_cascades: usize,
}

/// Tallies for one episode of feedback.
#[derive(Debug, Clone, Default)]
pub struct EpisodeSummary {
    /// Positive feedback items processed.
    pub positive: usize,
    /// Negative feedback items processed.
    pub negative: usize,
    /// Links added by exploration.
    pub added: usize,
    /// Links removed.
    pub removed: usize,
    /// Rollbacks triggered.
    pub rollbacks: usize,
    /// Feedback items the source withheld because the producing query
    /// degraded (partial answers; see [`crate::query_feedback`]). Nonzero
    /// `degraded` with zero feedback means "sources were down", not
    /// "feedback dried up".
    pub degraded: usize,
    /// Queries of the source that failed outright; nonzero with zero
    /// feedback also means "sources were down".
    pub failed: usize,
    /// Trust gate: feedback items admitted past the quorum.
    pub admitted: usize,
    /// Trust gate: feedback items deferred (buffered, not dropped).
    pub deferred: usize,
    /// Trust gate: admissions revoked by cascading rollback.
    pub cascades: usize,
}

impl EpisodeSummary {
    /// Total feedback items in the episode.
    pub fn feedback_items(&self) -> usize {
        self.positive + self.negative
    }

    /// Fraction of feedback that was negative (0 when no feedback).
    pub fn negative_frac(&self) -> f64 {
        let n = self.feedback_items();
        if n == 0 {
            0.0
        } else {
            self.negative as f64 / n as f64
        }
    }

    /// Fold one step's outcome into the episode tallies.
    pub fn tally(&mut self, outcome: &StepOutcome) {
        self.added += outcome.added;
        self.removed += outcome.removed;
        if outcome.rolled_back {
            self.rollbacks += 1;
        }
        if outcome.trust_admitted {
            self.admitted += 1;
        }
        if outcome.trust_deferred {
            self.deferred += 1;
        }
        self.cascades += outcome.trust_cascades;
    }
}

/// Per-episode bookkeeping (first visits and improvement set).
#[derive(Debug, Clone, Default)]
struct EpisodeState {
    first_visits: PairSet,
    improvement_states: PairSet,
}

impl EpisodeState {
    /// Forget the episode, keeping the allocations for the next one.
    fn clear(&mut self) {
        self.first_visits.clear();
        self.improvement_states.clear();
    }
}

/// The ALEX agent.
pub struct Agent {
    space: LinkSpace,
    candidates: CandidateSet,
    approved: PairSet,
    policy: Policy,
    qvalues: ActionValue,
    blacklist: Blacklist,
    provenance: Provenance,
    cfg: AlexConfig,
    rng: StdRng,
    episode: EpisodeState,
    episodes_completed: usize,
    base_fingerprint: u64,
    trust: Option<TrustGate>,
}

impl Agent {
    /// Create an agent over `space`, seeding the candidate set with
    /// `initial_links` (entity-id pairs from any automatic linker). Links
    /// outside the blocked space are admitted into it by
    /// [`LinkSpace::admit`], the last change the space sees.
    ///
    /// # Panics
    ///
    /// When `cfg` fails [`AlexConfig::validate`].
    pub fn new(space: LinkSpace, initial_links: &[(u32, u32)], cfg: AlexConfig) -> Agent {
        if let Err(e) = cfg.validate() {
            panic!("invalid AlexConfig: {e}");
        }
        let (space, ids) = space.admit(initial_links);
        let candidates = CandidateSet::from_iter(ids);
        let base_fingerprint = persist::combine_fingerprints([
            space.fingerprint(),
            persist::config_fingerprint(&cfg, space.theta()),
        ]);
        Agent {
            space,
            candidates,
            approved: PairSet::new(),
            policy: Policy::new(cfg.epsilon),
            qvalues: ActionValue::new(),
            blacklist: Blacklist::new(cfg.use_blacklist),
            provenance: Provenance::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            trust: cfg.trust.map(TrustGate::new),
            cfg,
            episode: EpisodeState::default(),
            episodes_completed: 0,
            base_fingerprint,
        }
    }

    /// The link space.
    pub fn space(&self) -> &LinkSpace {
        &self.space
    }

    /// The current candidate set.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// The configuration.
    pub fn config(&self) -> &AlexConfig {
        &self.cfg
    }

    /// The policy (read-only view, for inspection and tests).
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The action-value estimates (read-only view).
    pub fn qvalues(&self) -> &ActionValue {
        &self.qvalues
    }

    /// Number of blacklisted links.
    pub fn blacklisted(&self) -> usize {
        self.blacklist.len()
    }

    /// Episodes completed so far.
    pub fn episodes_completed(&self) -> usize {
        self.episodes_completed
    }

    /// Current candidate links as entity-id pairs, sorted by
    /// `(left, right)`. The candidate set iterates in its deterministic
    /// insertion and swap-remove order, which follows the learning history
    /// rather than the pairs; sorting gives every downstream consumer (CLI
    /// output, serialized link sets, tests) the links in pair order.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self
            .candidates
            .iter()
            .map(|id| self.space.pair(id))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Apply one judgment to the learning state (policy evaluation,
    /// Algorithm 1 lines 11–22). When `undo` is supplied
    /// (the trust gate admitting buffered feedback), every mutation is
    /// recorded in it so a later discredit can revert this admission
    /// exactly.
    fn apply_feedback(
        &mut self,
        state: PairId,
        feedback: Feedback,
        mut undo: Option<&mut AdmissionRecord>,
    ) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        // The rest of the step's footprint, for its telemetry record.
        let (mut explored, mut blacklisted, mut rolled_back) = (None, 0, 0);
        let reward = match feedback {
            Feedback::Positive => POSITIVE_REWARD,
            Feedback::Negative => -NEGATIVE_PENALTY,
        };

        // First-visit Monte Carlo credit assignment (§4.4.1): credit the
        // return to every state-action pair that led here (lines 13–15),
        // for the first feedback on this state in the episode only.
        if self.episode.first_visits.insert(state) {
            for (s, a) in self.provenance.ancestor_chain(state) {
                self.qvalues.append_return(s, a, reward);
                self.episode.improvement_states.insert(s);
                if let Some(u) = undo.as_deref_mut() {
                    u.credited.push((s, a));
                    u.reward = reward;
                }
            }
        }

        match feedback {
            Feedback::Positive => {
                let newly_approved = self.approved.insert(state);
                // Positive feedback contradicts any earlier rejection
                // (Appendix C resilience): the vote may unblock the link,
                // and it counts in favor of the action that generated it
                // (offsetting rollback votes).
                let endorsed = self.blacklist.endorse(state);
                let prov_target = self.provenance.record_positive(state);
                self.episode.improvement_states.insert(state);
                // a' = π(s') (line 18): choose a feature and explore around it.
                let actions: Vec<FeatureId> = self
                    .space
                    .feature_set_of(state)
                    .iter()
                    .map(|&(f, _)| f)
                    .collect();
                let (mut added, mut attributed) = (WindowList::default(), BitMask::default());
                if let Some(action) = self.policy.choose(state, &actions, &mut self.rng) {
                    counter!("alex_exploration_actions_total").inc();
                    outcome.action = Some(action);
                    (added, attributed, blacklisted) = self.explore(state, action);
                    explored = Some(added.window);
                }
                outcome.added = added.len();
                if let Some(u) = undo.as_deref_mut() {
                    u.newly_approved = newly_approved;
                    u.endorsed = endorsed;
                    u.prov_target = prov_target;
                    u.action = outcome.action;
                    u.added = added;
                    u.attributed = attributed;
                }
            }
            Feedback::Negative => {
                // Remove the link (line 20) and blacklist it (§6.3).
                let removed_candidate = self.candidates.remove(state);
                if removed_candidate {
                    outcome.removed += 1;
                    counter!("alex_links_removed_total").inc();
                }
                let was_approved = self.approved.remove(state);
                let blacklist_added = self.blacklist.add(state);

                // Rollback (§6.3): tally against the generating state-action
                // pair; past the threshold, remove everything it generated.
                let mut prov_target = None;
                let mut rollback_undo = None;
                if let Some((generator, tally)) = self.provenance.record_negative(state) {
                    prov_target = Some(generator);
                    if self.cfg.use_rollback && tally >= self.cfg.rollback_threshold {
                        outcome.rolled_back = true;
                        counter!("alex_rollbacks_total").inc();
                        // Snapshot the tallies (including the triggering
                        // negative) before take_generated clears them.
                        let votes = self.provenance.votes_of(generator).unwrap_or((0, 0));
                        let links = self.provenance.take_generated(generator);
                        let mut removed = BitMask::default();
                        for (i, &link) in links.iter().enumerate() {
                            // Links that individually received positive
                            // feedback are spared: the paper removes "all
                            // links generated by this state-action pair" but
                            // means not to discard known-correct ones.
                            // Removed links were not individually judged, so
                            // they are NOT blacklisted — they may be correct
                            // and can be rediscovered by a better action.
                            if !self.approved.contains(link) && self.candidates.remove(link) {
                                removed.insert(i);
                            }
                        }
                        rolled_back = removed.len();
                        outcome.removed += rolled_back;
                        if rolled_back > 0 {
                            counter!("alex_links_removed_total").add(rolled_back as u64);
                        }
                        if undo.is_some() {
                            let window = self.generator_window(generator);
                            let Some(links) = WindowList::of_links(&self.space, window, &links)
                            else {
                                panic!("a rolled-back link lies outside its generator's window");
                            };
                            rollback_undo = Some(RollbackUndo {
                                generator,
                                links,
                                votes,
                                removed,
                            });
                        }
                    }
                }
                if let Some(u) = undo {
                    u.removed_candidate = removed_candidate;
                    u.was_approved = was_approved;
                    u.blacklist_added = blacklist_added;
                    u.prov_target = prov_target;
                    u.rollback = rollback_undo;
                }
            }
        }
        emit!({
            let (left, right) = self.space.pair(state);
            Event::FeedbackApplied {
                left: u64::from(left),
                right: u64::from(right),
                positive: feedback == Feedback::Positive,
                window: explored.map(|w| StepWindow {
                    feature: u64::from(w.feature.0),
                    start: u64::from(w.start),
                    end: u64::from(w.end),
                }),
                added: outcome.added as u64,
                removed: outcome.removed as u64,
                blacklisted: blacklisted as u64,
                rolled_back: rolled_back as u64,
            }
        });
        outcome
    }

    /// Process one *attributed* feedback item — the one way a judgment
    /// reaches the agent. Without a trust gate it applies immediately; with
    /// one, the judgment becomes a vote in
    /// the quorum buffer and only applies once trust-weighted agreement
    /// crosses the configured quorum. Deferred votes are buffered, never
    /// dropped. Admissions that a later quorum flip or source discredit
    /// contradicts are revoked by cascading rollback.
    pub fn process_attributed(&mut self, item: FeedbackItem) -> StepOutcome {
        let Some(mut gate) = self.trust.take() else {
            return self.apply_feedback(item.state, item.feedback, None);
        };
        let positive = item.feedback == Feedback::Positive;
        gate.buffer.vote(item.state.0, item.source, positive);
        let decision = gate
            .buffer
            .decide(item.state.0, &gate.cfg, |s| gate.weight(s));
        let Some(adm) = decision else {
            counter!("trust_deferred_total").inc();
            let outcome = StepOutcome {
                trust_deferred: true,
                ..StepOutcome::default()
            };
            self.trust = Some(gate);
            return outcome;
        };
        counter!("trust_admitted_total").inc();

        // The quorum outcome is the reliability signal: every buffered voter
        // either agreed with it (evidence of honesty) or opposed it.
        let votes = gate.buffer.take(item.state.0);
        let mut supporters = Vec::new();
        let mut opposers = Vec::new();
        for (src, vote) in votes {
            gate.model.record(src, vote == adm.positive);
            if vote == adm.positive {
                supporters.push(src);
            } else {
                opposers.push(src);
            }
        }

        // Quorum flip: a live admission of the *opposite* direction on this
        // same link is now contradicted by a stronger quorum. Its supporters
        // were wrong (late-episode precision signal), its opposers right —
        // and its learning-state mutations are revoked before the new
        // direction applies.
        let mut cascades = 0usize;
        if let Some(prev) = gate
            .log
            .iter()
            .rposition(|r| !r.revoked && r.state == item.state && r.positive != adm.positive)
        {
            let sup = gate.log[prev].supporters.clone();
            let opp = gate.log[prev].opposers.clone();
            for s in sup {
                gate.model.record(s, false);
            }
            for s in opp {
                gate.model.record(s, true);
            }
            cascades += self.revoke_admission(&mut gate, prev);
        }

        let mut record = AdmissionRecord::new(item.state, adm.positive);
        record.supporters = supporters;
        record.opposers = opposers;
        let feedback = if adm.positive {
            Feedback::Positive
        } else {
            Feedback::Negative
        };
        let mut outcome = self.apply_feedback(item.state, feedback, Some(&mut record));
        gate.log.push(record);
        cascades += self.sweep_discredited(&mut gate);
        outcome.trust_admitted = true;
        outcome.trust_cascades = cascades;
        self.trust = Some(gate);
        outcome
    }

    /// Revoke admission `idx`: transitively revoke every later live
    /// admission that depends on its footprint (judged the same link, or
    /// touched a link it added or rolled back), then undo its own mutations
    /// in reverse apply order. Returns the number of admissions revoked.
    fn revoke_admission(&mut self, gate: &mut TrustGate, idx: usize) -> usize {
        if gate.log[idx].revoked {
            return 0;
        }
        gate.log[idx].revoked = true;
        counter!("cascading_rollbacks_total").inc();
        let mut count = 1;

        let mut footprint: HashSet<PairId> = HashSet::new();
        footprint.insert(gate.log[idx].state);
        footprint.extend(gate.log[idx].added.links(&self.space));
        if let Some(rb) = &gate.log[idx].rollback {
            footprint.extend(rb.links.links(&self.space));
        }
        // Later admissions are undone first (descending), so each sees the
        // state its own apply left behind; recursion extends the cascade to
        // transitive dependents.
        for j in (idx + 1..gate.log.len()).rev() {
            let depends = {
                let r = &gate.log[j];
                !r.revoked
                    && (footprint.contains(&r.state)
                        || r.added.links(&self.space).any(|l| footprint.contains(&l))
                        || r.rollback.as_ref().is_some_and(|rb| {
                            rb.links.links(&self.space).any(|l| footprint.contains(&l))
                        }))
            };
            if depends {
                count += self.revoke_admission(gate, j);
            }
        }

        let rec = &gate.log[idx];
        if rec.positive {
            // Reverse of the positive apply: un-explore, un-vote, un-endorse,
            // un-approve, un-credit.
            for link in rec.added.links(&self.space).rev() {
                self.candidates.remove(link);
            }
            if let Some(action) = rec.action {
                let slice = self.space.window_slice(rec.added.window);
                let attributed = rec.attributed.select(slice).map(|(_, link)| link);
                self.provenance.retract_all((rec.state, action), attributed);
            }
            if let Some(g) = rec.prov_target {
                self.provenance.retract_vote_positive(g);
            }
            if rec.endorsed {
                self.blacklist.retract_endorse(rec.state);
            }
            if rec.newly_approved {
                self.approved.remove(rec.state);
            }
        } else {
            // Reverse of the negative apply: un-rollback, un-vote, un-strike,
            // re-approve, re-admit, un-credit.
            if let Some(rb) = &rec.rollback {
                let links: Vec<PairId> = rb.links.links(&self.space).collect();
                for link in rb.removed.select(&links).rev() {
                    self.candidates.insert(link);
                }
                self.provenance.restore_generated(rb.generator, links);
                self.provenance
                    .restore_votes(rb.generator, rb.votes.0, rb.votes.1);
            }
            if let Some(g) = rec.prov_target {
                self.provenance.retract_vote_negative(g);
            }
            if rec.blacklist_added {
                self.blacklist.retract_add(rec.state);
            }
            if rec.was_approved {
                self.approved.insert(rec.state);
            }
            if rec.removed_candidate {
                self.candidates.insert(rec.state);
            }
        }
        for &(s, a) in rec.credited.iter().rev() {
            self.qvalues.retract_return(s, a, rec.reward);
        }
        count
    }

    /// Detect newly discredited sources and re-examine every live admission
    /// without their voting weight; admissions that no longer meet the
    /// quorum are revoked (latest first, so each cascade sees consistent
    /// state). Returns the number of admissions revoked.
    fn sweep_discredited(&mut self, gate: &mut TrustGate) -> usize {
        let mut newly = Vec::new();
        for (src, _, _) in gate.model.iter_counts() {
            if !gate.discredited.contains(&src) && gate.model.is_discredited(src, &gate.cfg) {
                newly.push(src);
            }
        }
        if newly.is_empty() {
            return 0;
        }
        for src in newly {
            gate.discredited.insert(src);
            counter!("trust_discredited_total").inc();
        }
        let mut to_revoke = Vec::new();
        for (i, rec) in gate.log.iter().enumerate() {
            if rec.revoked {
                continue;
            }
            let votes: Vec<(SourceId, bool)> = rec
                .supporters
                .iter()
                .map(|&s| (s, rec.positive))
                .chain(rec.opposers.iter().map(|&s| (s, !rec.positive)))
                .collect();
            let support = net_support(&votes, rec.positive, |s| gate.weight(s));
            if support < gate.cfg.quorum {
                to_revoke.push(i);
            }
        }
        let mut count = 0;
        for i in to_revoke.into_iter().rev() {
            if !gate.log[i].revoked {
                count += self.revoke_admission(gate, i);
            }
        }
        count
    }

    /// The trust gate, when this agent runs with trust admission enabled
    /// (read-only view, for inspection and tests).
    pub fn trust_gate(&self) -> Option<&TrustGate> {
        self.trust.as_ref()
    }

    /// Whether the blacklist currently blocks a link from (re-)proposal.
    pub fn blacklist_blocks(&self, id: PairId) -> bool {
        self.blacklist.blocks(id)
    }

    /// Execute the chosen exploration action: add every link whose score for
    /// `action` lies within ±step of this state's score (§4.2). Returns the
    /// added links, one segment of the exploration window, the window
    /// positions among them whose provenance attribution this call created,
    /// and the number of window links the blacklist kept out.
    fn explore(&mut self, state: PairId, action: FeatureId) -> (WindowList, BitMask, usize) {
        let window = self.generator_window((state, action));
        let slice = self.space.window_slice(window);
        let mut added = BitMask::default();
        let mut links = Vec::new();
        let mut blacklisted = 0;
        for (i, &(_, link)) in slice.iter().enumerate() {
            if link == state || self.candidates.contains(link) {
                continue;
            }
            if self.blacklist.blocks(link) {
                blacklisted += 1;
                continue;
            }
            self.candidates.insert(link);
            added.insert(i);
            links.push((i, link));
        }
        let attributed = self.provenance.record_all((state, action), &links);
        if !added.is_empty() {
            counter!("alex_links_added_total").add(added.len() as u64);
        }
        if blacklisted > 0 {
            counter!("alex_blacklist_hits_total").add(blacklisted as u64);
        }
        let mut list = WindowList::new(window);
        list.push(added);
        (list, attributed, blacklisted)
    }

    /// Whether `link` lies in the exploration window of `generator`
    /// ([`Agent::generator_window`]), judged by its score.
    fn in_generator_window(&self, (state, action): (PairId, FeatureId), link: PairId) -> bool {
        let score = |id| crate::feature::feature_score(self.space.feature_set_of(id), action);
        let step = self.cfg.step_size;
        match (score(state), score(link)) {
            (Some(center), Some(x)) => x >= center - step && x <= center + step,
            _ => false,
        }
    }

    /// The exploration window of a state-action pair: the pairs within
    /// ±step of the state's score for the action (§4.2). A generator's
    /// window never changes, so every link it generated lies in it; empty
    /// when the state lacks the feature.
    fn generator_window(&self, (state, action): (PairId, FeatureId)) -> Window {
        match crate::feature::feature_score(self.space.feature_set_of(state), action) {
            Some(center) => self.space.window(action, center, self.cfg.step_size),
            None => Window {
                feature: action,
                ..Window::EMPTY
            },
        }
    }

    /// Policy improvement at the end of an episode (Algorithm 1 lines
    /// 24–33): make the argmax-Q action greedy at every state visited.
    pub fn end_episode(&mut self) {
        for s in self.episode.improvement_states.iter() {
            let actions: Vec<FeatureId> = self
                .space
                .feature_set_of(s)
                .iter()
                .map(|&(f, _)| f)
                .collect();
            if let Some(best) = self.qvalues.argmax(s, &actions) {
                self.policy.improve(s, best);
            }
        }
        self.episode.clear();
        self.episodes_completed += 1;
    }

    /// Run one full episode: collect up to `size` feedback items from
    /// `source` (stopping early if feedback dries up), then improve the
    /// policy. The driver passes each partition its share of the global
    /// episode size.
    pub fn run_episode_sized(
        &mut self,
        source: &mut dyn FeedbackSource,
        size: usize,
    ) -> EpisodeSummary {
        let mut summary = EpisodeSummary::default();
        for _ in 0..size {
            let Some(item) = source.next_item(&self.candidates, &self.space) else {
                break;
            };
            match item.feedback {
                Feedback::Positive => summary.positive += 1,
                Feedback::Negative => summary.negative += 1,
            }
            let outcome = self.process_attributed(item);
            summary.tally(&outcome);
        }
        summary.degraded = source.take_degraded();
        summary.failed = source.take_failed();
        self.end_episode();
        summary
    }

    /// Fingerprint of the link space (after initial-link admission) and
    /// configuration this agent was built over. Durable snapshots pin it so
    /// a resume against different inputs fails loudly.
    pub fn base_fingerprint(&self) -> u64 {
        self.base_fingerprint
    }

    /// Capture the full learning state for a durable snapshot. Must be
    /// called at an episode boundary (the intra-episode bookkeeping is
    /// always empty there and is not captured).
    /// The trust gate's admission log is borrowed, not copied.
    pub fn capture_state(&self) -> AgentState<'_> {
        let approved: Vec<u32> = self.approved.iter().map(|id| id.0).collect();
        let greedy: Vec<(u32, u32)> = self.policy.iter_greedy().map(|(s, a)| (s.0, a.0)).collect();
        let mut returns: Vec<((u32, u32), Vec<f64>)> = self
            .qvalues
            .iter_returns()
            .map(|((s, a), rs)| ((s.0, a.0), rs.to_vec()))
            .collect();
        returns.sort_unstable_by_key(|&(k, _)| k);
        let blacklist_votes: Vec<(u32, u32, u32)> = self
            .blacklist
            .iter_votes()
            .map(|(id, (n, p))| (id.0, n, p))
            .collect();
        let mut generated: Vec<((u32, u32), Vec<u32>)> = self
            .provenance
            .iter_generated()
            .map(|((s, a), links)| ((s.0, a.0), links.iter().map(|l| l.0).collect()))
            .collect();
        generated.sort_unstable_by_key(|&(k, _)| k);
        let mut provenance_votes: Vec<((u32, u32), u32, u32)> = self
            .provenance
            .iter_votes()
            .map(|((s, a), (n, p))| ((s.0, a.0), n, p))
            .collect();
        provenance_votes.sort_unstable();
        AgentState {
            rng: self.rng.state(),
            episodes_completed: self.episodes_completed as u64,
            candidates: self.candidates.iter().map(|id| id.0).collect(),
            approved,
            greedy,
            returns,
            blacklist_votes,
            generated,
            provenance_votes,
            trust: self.trust.as_ref().map(TrustGate::to_state),
        }
    }

    /// Restore learning state captured by [`Agent::capture_state`] onto a
    /// *freshly constructed* agent over the same space, initial links, and
    /// configuration, whose space therefore gives every persisted raw id
    /// the pair it named when captured. The state is consumed: its return
    /// lists and admission log move into the agent.
    pub fn restore_state(&mut self, state: AgentState<'_>) -> Result<(), String> {
        if self.episodes_completed != 0 {
            return Err("restore_state requires a freshly constructed agent".to_string());
        }
        let in_space = |raw: u32| -> Result<PairId, String> {
            if (raw as usize) < self.space.len() {
                Ok(PairId(raw))
            } else {
                Err(format!(
                    "persisted pair id {raw} is outside the rebuilt space ({} pairs); \
                     the state dir does not belong to this run",
                    self.space.len()
                ))
            }
        };
        self.candidates = CandidateSet::new();
        for &raw in &state.candidates {
            self.candidates.insert(in_space(raw)?);
        }
        self.approved = PairSet::new();
        for &raw in &state.approved {
            self.approved.insert(in_space(raw)?);
        }
        self.policy = Policy::new(self.cfg.epsilon);
        for &(s, a) in &state.greedy {
            self.policy.improve(in_space(s)?, FeatureId(a));
        }
        self.qvalues = ActionValue::new();
        for ((s, a), rs) in state.returns {
            self.qvalues.restore_returns(in_space(s)?, FeatureId(a), rs);
        }
        self.blacklist = Blacklist::new(self.cfg.use_blacklist);
        for &(id, n, p) in &state.blacklist_votes {
            self.blacklist.restore_votes(in_space(id)?, n, p);
        }
        self.provenance = Provenance::new();
        for ((s, a), links) in &state.generated {
            let generator = (in_space(*s)?, FeatureId(*a));
            let mut restored = Vec::with_capacity(links.len());
            for &l in links {
                let link = in_space(l)?;
                if !self.in_generator_window(generator, link) {
                    return Err(format!(
                        "persisted link {l} lies outside its generator's exploration window; \
                         the state dir does not belong to this run"
                    ));
                }
                restored.push(link);
            }
            self.provenance.restore_generated(generator, restored);
        }
        for &((s, a), n, p) in &state.provenance_votes {
            self.provenance
                .restore_votes((in_space(s)?, FeatureId(a)), n, p);
        }
        if let Some(ts) = &state.trust {
            for &(link, _) in &ts.pending {
                in_space(link)?;
            }
            for rec in ts.log.iter() {
                rec.check(&self.space)?;
            }
        }
        self.trust = match (self.cfg.trust, state.trust) {
            (Some(cfg), Some(ts)) => Some(TrustGate::from_state(cfg, ts)),
            (Some(cfg), None) => Some(TrustGate::new(cfg)),
            (None, Some(_)) => {
                return Err(
                    "snapshot carries trust state but this run has trust disabled".to_string(),
                );
            }
            (None, None) => None,
        };
        self.rng = StdRng::from_state(state.rng);
        self.episode.clear();
        self.episodes_completed = state.episodes_completed as usize;
        Ok(())
    }

    /// Replay one journaled episode: drive the recorded judgments through
    /// the normal feedback path, then improve the policy — exactly what
    /// [`Agent::run_episode_sized`] did live. Because the agent RNG and
    /// candidate set were restored to their pre-episode state, the
    /// resulting state is byte-identical to the pre-crash one.
    pub fn replay_episode(
        &mut self,
        items: &[(u32, u32, bool, u32)],
    ) -> Result<EpisodeSummary, String> {
        let mut summary = EpisodeSummary::default();
        for &(l, r, positive, source) in items {
            let Some(id) = self.space.id_of(l, r) else {
                return Err(format!(
                    "journaled pair ({l}, {r}) is not in the rebuilt space; \
                     the state dir does not belong to this run"
                ));
            };
            let feedback = if positive {
                Feedback::Positive
            } else {
                Feedback::Negative
            };
            match feedback {
                Feedback::Positive => summary.positive += 1,
                Feedback::Negative => summary.negative += 1,
            }
            let outcome = self.process_attributed(FeedbackItem {
                state: id,
                feedback,
                source: SourceId(source),
            });
            summary.tally(&outcome);
        }
        self.end_episode();
        Ok(summary)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;

    /// Ten entities with exact-match names on the diagonal plus a
    /// non-distinctive type attribute everywhere.
    fn build_space() -> LinkSpace {
        let (left, right) = crate::fixtures::animals(10);
        LinkSpace::build(&left, &right, &SpaceConfig::default())
    }

    fn agent_with_initial(initial: &[(u32, u32)]) -> Agent {
        Agent::new(build_space(), initial, AlexConfig::default())
    }

    #[test]
    fn initial_links_populate_candidates() {
        let agent = agent_with_initial(&[(0, 0), (1, 1)]);
        assert_eq!(agent.candidates().len(), 2);
        let pairs = agent.candidate_pairs();
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
    }

    #[test]
    fn positive_feedback_explores_new_links() {
        let mut agent = agent_with_initial(&[(0, 0)]);
        let id = agent.space().id_of(0, 0).unwrap();
        let before = agent.candidates().len();
        // Run several positive feedback items; at least one exploration
        // around the name feature (score 1.0 ± 0.05) finds the other exact
        // matches, and the type feature finds everything same-typed.
        let mut total_added = 0;
        for _ in 0..10 {
            let out = agent.apply_feedback(id, Feedback::Positive, None);
            total_added += out.added;
        }
        assert!(total_added > 0, "exploration never added a link");
        assert!(agent.candidates().len() > before);
    }

    #[test]
    fn negative_feedback_removes_and_blacklists() {
        let mut agent = agent_with_initial(&[(0, 0), (0, 1)]);
        let wrong = agent.space().id_of(0, 1).unwrap();
        let out = agent.apply_feedback(wrong, Feedback::Negative, None);
        assert_eq!(out.removed, 1);
        assert!(!agent.candidates().contains(wrong));
        // Two strikes block the link permanently (§6.3 with the Appendix C
        // two-strike resilience rule).
        assert_eq!(agent.blacklisted(), 0);
        agent.apply_feedback(wrong, Feedback::Negative, None);
        assert_eq!(agent.blacklisted(), 1);
    }

    #[test]
    fn blacklisted_links_are_not_rediscovered() {
        let mut agent = agent_with_initial(&[(0, 0), (0, 1)]);
        let wrong = agent.space().id_of(0, 1).unwrap();
        agent.apply_feedback(wrong, Feedback::Negative, None);
        agent.apply_feedback(wrong, Feedback::Negative, None); // second strike
        let good = agent.space().id_of(0, 0).unwrap();
        for _ in 0..20 {
            agent.apply_feedback(good, Feedback::Positive, None);
        }
        assert!(
            !agent.candidates().contains(wrong),
            "blacklisted link re-added by exploration"
        );
    }

    #[test]
    fn first_visit_credits_ancestors_once_per_episode() {
        let mut agent = agent_with_initial(&[(0, 0)]);
        let s0 = agent.space().id_of(0, 0).unwrap();
        // Force exploration to attribute some links to (s0, a).
        let mut action = None;
        let mut discovered = Vec::new();
        for _ in 0..10 {
            let out = agent.apply_feedback(s0, Feedback::Positive, None);
            if out.added > 0 {
                action = out.action;
                discovered = agent.candidates().iter().filter(|&id| id != s0).collect();
                break;
            }
        }
        let action = action.expect("exploration should fire");
        let child = *discovered.first().expect("a discovered link");
        let before = agent.qvalues().observations(s0, action);
        agent.apply_feedback(child, Feedback::Positive, None);
        assert_eq!(agent.qvalues().observations(s0, action), before + 1);
        // Second visit in the same episode: no additional return.
        agent.apply_feedback(child, Feedback::Negative, None);
        assert_eq!(agent.qvalues().observations(s0, action), before + 1);
        // New episode: a fresh first visit counts again.
        agent.end_episode();
        // child was removed by the negative feedback; a judgment still
        // credits its ancestors.
        agent.apply_feedback(child, Feedback::Positive, None);
        assert_eq!(agent.qvalues().observations(s0, action), before + 2);
    }

    #[test]
    fn rollback_removes_generated_links() {
        let cfg = AlexConfig {
            rollback_threshold: 2,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(build_space(), &[(0, 0)], cfg);
        let s0 = agent.space().id_of(0, 0).unwrap();
        // Explore until something is added.
        let mut added = 0;
        for _ in 0..20 {
            added += agent.apply_feedback(s0, Feedback::Positive, None).added;
            if added >= 3 {
                break;
            }
        }
        assert!(added >= 3, "needed a few generated links, got {added}");
        let generated: Vec<PairId> = agent.candidates().iter().filter(|&id| id != s0).collect();
        // Two negatives on generated links trigger a rollback of the rest.
        let n_before = agent.candidates().len();
        agent.apply_feedback(generated[0], Feedback::Negative, None);
        let out = agent.apply_feedback(generated[1], Feedback::Negative, None);
        assert!(
            out.rolled_back || agent.candidates().len() < n_before - 2,
            "rollback should fire once the tally reaches the threshold"
        );
        // Only s0 (and approved links) survive among candidates.
        assert!(agent.candidates().contains(s0));
    }

    #[test]
    fn rollback_disabled_keeps_links() {
        let cfg = AlexConfig {
            use_rollback: false,
            rollback_threshold: 1,
            ..AlexConfig::default()
        };
        let mut agent = Agent::new(build_space(), &[(0, 0)], cfg);
        let s0 = agent.space().id_of(0, 0).unwrap();
        let mut added = 0;
        for _ in 0..20 {
            added += agent.apply_feedback(s0, Feedback::Positive, None).added;
            if added >= 3 {
                break;
            }
        }
        let generated: Vec<PairId> = agent.candidates().iter().filter(|&id| id != s0).collect();
        let before = agent.candidates().len();
        let out = agent.apply_feedback(generated[0], Feedback::Negative, None);
        assert!(!out.rolled_back);
        assert_eq!(
            agent.candidates().len(),
            before - 1,
            "only the judged link goes"
        );
    }

    #[test]
    fn policy_improvement_prefers_rewarded_action() {
        let mut agent = agent_with_initial(&[(0, 0)]);
        let s0 = agent.space().id_of(0, 0).unwrap();
        // Generate exploration and feedback so some action accumulates
        // positive returns.
        for _ in 0..5 {
            agent.apply_feedback(s0, Feedback::Positive, None);
        }
        let children: Vec<PairId> = agent.candidates().iter().filter(|&id| id != s0).collect();
        for &c in children.iter().take(3) {
            agent.apply_feedback(c, Feedback::Positive, None);
        }
        agent.end_episode();
        assert_eq!(agent.episodes_completed(), 1);
        if !agent.qvalues().is_empty() {
            assert!(
                agent.policy().greedy_action(s0).is_some(),
                "improvement should set a greedy action for the visited state"
            );
        }
    }

    #[test]
    fn run_episode_sized_respects_its_budget() {
        use crate::feedback::OracleFeedback;
        let mut agent = Agent::new(
            build_space(),
            &[(0, 0), (1, 1), (2, 2)],
            AlexConfig::default(),
        );
        let truth: HashSet<(u32, u32)> = (0..10).map(|i| (i, i)).collect();
        let mut oracle = OracleFeedback::new(truth, 9);
        let summary = agent.run_episode_sized(&mut oracle, 25);
        assert_eq!(summary.feedback_items(), 25);
        assert_eq!(agent.episodes_completed(), 1);
    }

    #[test]
    fn empty_candidates_end_episode_early() {
        use crate::feedback::OracleFeedback;
        let mut agent = Agent::new(build_space(), &[], AlexConfig::default());
        let mut oracle = OracleFeedback::new(HashSet::new(), 9);
        let summary = agent.run_episode_sized(&mut oracle, 10);
        assert_eq!(summary.feedback_items(), 0);
    }

    // -------------------------------------------------------- trust gating

    use alex_trust::TrustConfig;

    fn trusted_agent(initial: &[(u32, u32)]) -> Agent {
        Agent::new(
            build_space(),
            initial,
            AlexConfig {
                trust: Some(TrustConfig::default()),
                ..AlexConfig::default()
            },
        )
    }

    fn vote(agent: &mut Agent, state: PairId, source: u32, positive: bool) -> StepOutcome {
        agent.process_attributed(FeedbackItem {
            state,
            feedback: if positive {
                Feedback::Positive
            } else {
                Feedback::Negative
            },
            source: SourceId(source),
        })
    }

    #[test]
    fn trust_defers_below_quorum_and_admits_past_it() {
        let mut agent = trusted_agent(&[(0, 0), (0, 1)]);
        let wrong = agent.space().id_of(0, 1).unwrap();
        // One fresh source carries weight 0.5 < quorum 1.0: deferred, and
        // the judgment does NOT apply.
        let out = vote(&mut agent, wrong, 1, false);
        assert!(out.trust_deferred && !out.trust_admitted);
        assert_eq!(out.removed, 0);
        assert!(agent.candidates().contains(wrong));
        assert_eq!(agent.trust_gate().unwrap().buffer.pending_votes(), 1);
        // A second agreeing source crosses the quorum: the buffered votes
        // drain and the negative applies.
        let out = vote(&mut agent, wrong, 2, false);
        assert!(out.trust_admitted && !out.trust_deferred);
        assert_eq!(out.removed, 1);
        assert!(!agent.candidates().contains(wrong));
        let gate = agent.trust_gate().unwrap();
        assert_eq!(gate.buffer.pending_votes(), 0);
        assert_eq!(gate.log.len(), 1);
        assert_eq!(gate.log[0].supporters, vec![SourceId(1), SourceId(2)]);
        // Both voters agreed with the outcome: one recorded agreement each.
        assert_eq!(gate.model.observations(SourceId(1)), 1);
        assert_eq!(gate.model.observations(SourceId(2)), 1);
    }

    #[test]
    fn without_trust_process_attributed_applies_immediately() {
        let mut agent = agent_with_initial(&[(0, 0), (0, 1)]);
        let wrong = agent.space().id_of(0, 1).unwrap();
        let out = vote(&mut agent, wrong, 1, false);
        assert!(!out.trust_deferred && !out.trust_admitted);
        assert_eq!(out.removed, 1);
        assert!(agent.trust_gate().is_none());
    }

    #[test]
    fn quorum_flip_revokes_the_contradicted_admission() {
        let mut agent = trusted_agent(&[(0, 0), (0, 1)]);
        let link = agent.space().id_of(0, 1).unwrap();
        // Two sources admit a negative: link removed, blacklist strike.
        vote(&mut agent, link, 1, false);
        let out = vote(&mut agent, link, 2, false);
        assert!(out.trust_admitted);
        assert!(!agent.candidates().contains(link));
        // Two fresh sources then admit the opposite direction (0.5 + 0.5
        // crosses the 1.0 quorum). The flip first revokes the negative
        // admission (restoring the candidate and retracting the strike),
        // then applies the positive.
        let out = vote(&mut agent, link, 3, true);
        assert!(out.trust_deferred);
        let out = vote(&mut agent, link, 4, true);
        assert!(out.trust_admitted);
        assert!(out.trust_cascades >= 1, "flip must revoke the negative");
        assert!(agent.candidates().contains(link));
        assert_eq!(agent.blacklisted(), 0);
        let gate = agent.trust_gate().unwrap();
        assert!(gate.log[0].revoked);
        assert!(!gate.log.last().unwrap().revoked);
        // The old supporters were contradicted by the stronger quorum: one
        // agreement (their own admission) plus one disagreement (the flip)
        // puts them back at the prior mean.
        assert_eq!(gate.model.observations(SourceId(1)), 2);
        assert!((gate.model.trust(SourceId(1), &gate.cfg) - 0.5).abs() < 1e-12);
        assert!((gate.model.trust(SourceId(2), &gate.cfg) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn discredit_sweep_revokes_admissions_that_lose_quorum() {
        let mut agent = trusted_agent(&[(0, 0), (0, 1), (1, 1), (2, 2)]);
        let victim = agent.space().id_of(0, 1).unwrap();
        // Poisoner 9 plus honest 20 admit a negative on the victim link:
        // pivotal admission where 9's weight mattered.
        vote(&mut agent, victim, 9, false);
        let out = vote(&mut agent, victim, 20, false);
        assert!(out.trust_admitted);
        assert!(!agent.candidates().contains(victim));
        // Source 9 then disagrees with a string of settled quorums (four
        // honest voters against it on a fresh link each round), driving its
        // posterior through the discredit floor. Its pivotal agreement
        // raised its weight to 2/3, so four fresh honest voters (2.0 total)
        // are needed to outvote it early on.
        let mut cascades = 0;
        for i in 1..=8u32 {
            let state = agent.space().id_of(i, i).unwrap();
            cascades += vote(&mut agent, state, 9, false).trust_cascades;
            for honest in 10..=13 {
                cascades += vote(&mut agent, state, honest, true).trust_cascades;
            }
        }
        let gate = agent.trust_gate().unwrap();
        assert!(
            gate.discredited.contains(&SourceId(9)),
            "eight disagreements past the floor must discredit the source"
        );
        // With 9's weight zeroed the pivotal admission no longer meets the
        // quorum (honest 20 alone carries < 1.0): it was revoked and the
        // victim link restored.
        assert!(cascades >= 1, "discredit must trigger a cascading rollback");
        assert!(gate.log[0].revoked);
        assert!(
            agent.candidates().contains(victim),
            "revoked admission must restore the candidate it removed"
        );
        assert_eq!(agent.blacklisted(), 0);
    }

    #[test]
    fn trust_state_survives_capture_and_restore() {
        let mut agent = trusted_agent(&[(0, 0), (0, 1), (1, 1)]);
        let link = agent.space().id_of(0, 1).unwrap();
        let good = agent.space().id_of(0, 0).unwrap();
        vote(&mut agent, link, 1, false); // deferred, stays buffered
        vote(&mut agent, good, 2, true);
        vote(&mut agent, good, 3, true); // admitted positive
        agent.end_episode();
        let state = agent.capture_state();
        assert!(state.trust.is_some());

        let mut fresh = trusted_agent(&[(0, 0), (0, 1), (1, 1)]);
        fresh.restore_state(state.clone()).unwrap();
        assert_eq!(fresh.capture_state(), state);
        let gate = fresh.trust_gate().unwrap();
        assert_eq!(gate.buffer.pending_votes(), 1);
        assert_eq!(gate.log.len(), 1);
    }

    #[test]
    fn restore_rejects_trust_ids_outside_the_space() {
        let mut agent = trusted_agent(&[(0, 0), (0, 1), (1, 1)]);
        let link = agent.space().id_of(0, 1).unwrap();
        let good = agent.space().id_of(0, 0).unwrap();
        vote(&mut agent, link, 1, false); // deferred, stays buffered
        vote(&mut agent, good, 2, true);
        vote(&mut agent, good, 3, true); // admitted positive
        agent.end_episode();
        let state = agent.capture_state();

        // A rollback's removals are positions in its own list, so they
        // name no id of their own; the decoder rejects removals outside the
        // list (`persist` tests). Windows are checked against the rebuilt
        // space's score indexes: `window(0)` is empty and always in range.
        fn window(end: u32) -> WindowList {
            WindowList::new(Window {
                feature: FeatureId(0),
                start: 0,
                end,
            })
        }
        fn undo(generator: PairId, links: WindowList) -> Option<RollbackUndo> {
            Some(RollbackUndo {
                generator: (generator, FeatureId(0)),
                links,
                votes: (1, 0),
                removed: BitMask::default(),
            })
        }
        let tampers: [fn(&mut persist::TrustState<'_>, u32); 7] = [
            |t, far| t.pending[0].0 = far,
            |t, far| t.log.to_mut()[0].state = PairId(far),
            |t, far| t.log.to_mut()[0].added = window(far),
            |t, far| t.log.to_mut()[0].credited.push((PairId(far), FeatureId(0))),
            |t, far| t.log.to_mut()[0].prov_target = Some((PairId(far), FeatureId(0))),
            |t, far| t.log.to_mut()[0].rollback = undo(PairId(far), window(0)),
            |t, far| t.log.to_mut()[0].rollback = undo(PairId(0), window(far)),
        ];
        for (i, tamper) in tampers.iter().enumerate() {
            let mut bad = state.clone();
            tamper(bad.trust.as_mut().unwrap(), u32::MAX);
            let mut fresh = trusted_agent(&[(0, 0), (0, 1), (1, 1)]);
            let err = fresh.restore_state(bad).unwrap_err();
            assert!(
                err.contains("does not belong to this run"),
                "tamper {i}: {err}"
            );

            let mut fine = state.clone();
            tamper(fine.trust.as_mut().unwrap(), 0);
            let mut fresh = trusted_agent(&[(0, 0), (0, 1), (1, 1)]);
            assert!(fresh.restore_state(fine).is_ok(), "tamper {i} in range");
        }

        // A segment past the end of its window.
        let mut bad = state.clone();
        let mut mask = BitMask::default();
        mask.insert(0);
        let log = bad.trust.as_mut().unwrap().log.to_mut();
        log[0].added = window(0);
        log[0].added.push(mask);
        let mut fresh = trusted_agent(&[(0, 0), (0, 1), (1, 1)]);
        let err = fresh.restore_state(bad).unwrap_err();
        assert!(err.contains("does not belong to this run"), "{err}");

        // An attributed link outside its generator's exploration window:
        // (0, 0) explored around its exact name match, which other names
        // do not reach.
        let space = agent.space();
        let step = agent.config().step_size;
        let (feature, far) = space
            .feature_set_of(good)
            .iter()
            .find_map(|&(f, score)| {
                let window = space.explore(f, score, step);
                space
                    .pair_ids()
                    .find(|id| !window.contains(id))
                    .map(|id| (f, id))
            })
            .expect("a pair outside one of the state's windows");
        let mut bad = state.clone();
        bad.generated.push(((good.0, feature.0), vec![far.0]));
        let mut fresh = trusted_agent(&[(0, 0), (0, 1), (1, 1)]);
        let err = fresh.restore_state(bad).unwrap_err();
        assert!(
            err.contains("outside its generator's exploration window"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_trust_state_when_trust_is_disabled() {
        let mut gated = trusted_agent(&[(0, 0)]);
        let good = gated.space().id_of(0, 0).unwrap();
        vote(&mut gated, good, 1, true);
        gated.end_episode();
        let state = gated.capture_state();

        let mut plain = agent_with_initial(&[(0, 0)]);
        let err = plain.restore_state(state).unwrap_err();
        assert!(err.contains("trust"), "{err}");
    }
}
