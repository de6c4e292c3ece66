//! Property-based tests for ALEX's core data structures and invariants.

use std::collections::HashSet;

use alex_core::feature::FeatureId;
use alex_core::persist::{self, AgentState, PartitionSnapshot, RunSnapshot, TrustState};
use alex_core::simmatrix::feature_set;
use alex_core::trust_gate::{AdmissionRecord, BitMask, RollbackUndo, WindowList};
use alex_core::values::SideValues;
use alex_core::{
    feature::feature_score, Agent, AlexConfig, CandidateSet, FeatureCatalog, FeatureSet, Feedback,
    FeedbackItem, LinkSpace, PairId, Policy, SourceId, SpaceConfig, TrustConfig,
};
use alex_linking::candidate_pairs;
use alex_rdf::Dataset;
use alex_sim::{prepared_similarity, TokenInterner};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

/// Build a small deterministic space from a name list.
fn space_from_names(names: &[String]) -> LinkSpace {
    let mut left = Dataset::new("L");
    let mut right = Dataset::new("R");
    for (i, name) in names.iter().enumerate() {
        left.add_str(&format!("http://l/{i}"), "http://l/label", name);
        right.add_str(&format!("http://r/{i}"), "http://r/name", name);
    }
    LinkSpace::build(&left, &right, &SpaceConfig::default())
}

proptest! {
    /// CandidateSet behaves exactly like a swap-remove vector: the same
    /// membership answers, the same iteration order and the same seeded
    /// samples. Ids are drawn sparsely from a wide range, so the dense
    /// position slots grow past their length on insert and removals and
    /// lookups hit both absent slots and ids beyond the end.
    #[test]
    fn candidate_set_matches_reference(
        ops in proptest::collection::vec((0u32..5000, 0u8..3), 0..200),
        seed in 0u64..1000,
    ) {
        let mut set = CandidateSet::new();
        let mut reference: Vec<PairId> = Vec::new();
        for (raw, kind) in ops {
            let id = match kind {
                // Remove a present id, so swap-remove reorders the set.
                2 if !reference.is_empty() => reference[raw as usize % reference.len()],
                _ => PairId(raw),
            };
            let pos = reference.iter().position(|&x| x == id);
            prop_assert_eq!(set.contains(id), pos.is_some());
            if kind == 0 {
                prop_assert_eq!(set.insert(id), pos.is_none());
                if pos.is_none() {
                    reference.push(id);
                }
            } else {
                prop_assert_eq!(set.remove(id), pos.is_some());
                if let Some(pos) = pos {
                    reference.swap_remove(pos);
                }
            }
        }
        prop_assert_eq!(set.len(), reference.len());
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), reference.clone());
        let mut sorted = reference.clone();
        sorted.sort_unstable();
        prop_assert_eq!(set.snapshot(), sorted);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            prop_assert_eq!(
                set.sample(&mut rng),
                reference.choose(&mut reference_rng).copied()
            );
        }
    }

    /// ε-greedy probabilities always sum to 1 over the action set and never
    /// assign zero to any action (the continuous-exploration requirement).
    #[test]
    fn policy_probabilities_sum_to_one(
        n_actions in 1u32..12,
        greedy in 0u32..12,
        epsilon in 0.0f64..1.0,
    ) {
        let actions: Vec<FeatureId> = (0..n_actions).map(FeatureId).collect();
        let mut policy = Policy::new(epsilon);
        policy.improve(PairId(0), FeatureId(greedy % n_actions));
        let total: f64 = actions
            .iter()
            .map(|&a| policy.probability(PairId(0), &actions, a))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        if epsilon > 0.0 {
            for &a in &actions {
                prop_assert!(policy.probability(PairId(0), &actions, a) > 0.0);
            }
        }
    }

    /// Indexed exploration agrees with the linear-scan reference for every
    /// feature and arbitrary windows.
    #[test]
    fn explore_agrees_with_scan(
        tokens in proptest::collection::vec("[a-z]{4,8} [a-z]{4,8}", 3..10),
        center in 0.0f64..1.2,
        step in 0.01f64..0.3,
    ) {
        let space = space_from_names(&tokens);
        for (f, _) in space.catalog().iter() {
            let mut a = space.explore(f, center, step);
            let mut b = space.explore_scan(f, center, step);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    /// The indexed/scan agreement survives admission: after `admit`
    /// takes arbitrary links (which splices new entries into the
    /// per-feature score lists and may mint new features), `explore`
    /// still returns exactly what the linear scan finds, for every
    /// feature and window.
    #[test]
    fn explore_agrees_with_scan_after_admit(
        tokens in proptest::collection::vec("[a-z]{4,8} [a-z]{4,8}", 3..10),
        inserts in proptest::collection::vec((0u32..12, 0u32..12), 1..20),
        center in 0.0f64..1.2,
        step in 0.01f64..0.3,
    ) {
        let n = tokens.len() as u32;
        let links: Vec<(u32, u32)> = inserts.iter().map(|&(l, r)| (l % n, r % n)).collect();
        let (space, _) = space_from_names(&tokens).admit(&links);
        for (f, _) in space.catalog().iter() {
            let mut a = space.explore(f, center, step);
            let mut b = space.explore_scan(f, center, step);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    /// Every explored link's score really lies within the window.
    #[test]
    fn explore_respects_window(
        tokens in proptest::collection::vec("[a-z]{4,8} [a-z]{4,8}", 3..10),
        center in 0.0f64..1.0,
        step in 0.01f64..0.2,
    ) {
        let space = space_from_names(&tokens);
        for (f, _) in space.catalog().iter() {
            for id in space.explore(f, center, step) {
                let score = feature_score(space.feature_set_of(id), f)
                    .expect("explored links carry the feature");
                prop_assert!(score >= center - step - 1e-12);
                prop_assert!(score <= center + step + 1e-12);
            }
        }
    }

    /// Agent safety invariants under arbitrary feedback sequences:
    /// candidate count matches reported adds/removes, blacklisted links
    /// (two strikes) stay out, and processing never panics.
    #[test]
    fn agent_invariants_under_arbitrary_feedback(
        feedback in proptest::collection::vec((0u32..8, prop::bool::ANY), 0..80),
    ) {
        let names: Vec<String> = (0..8)
            .map(|i| format!("entity number{i} alpha{i}"))
            .collect();
        let space = space_from_names(&names);
        let initial: Vec<(u32, u32)> = (0..4).map(|i| (i, i)).collect();
        let mut agent = Agent::new(space, &initial, AlexConfig {
            episode_size: 16,
            ..AlexConfig::default()
        });
        let pairs = agent.space().len() as u32;
        for (i, positive) in feedback {
            let state = PairId(i % pairs);
            let feedback = if positive { Feedback::Positive } else { Feedback::Negative };
            agent.process_attributed(FeedbackItem { state, feedback, source: SourceId::ANONYMOUS });
            if agent.episodes_completed() == 0 && i % 4 == 0 {
                agent.end_episode();
            }
        }
        // Negative-judged links are out of the candidate set right after
        // their last rejection unless re-added later; at minimum, the agent
        // never reports a candidate it also blocks.
        for id in agent.candidates().iter() {
            let _ = agent.space().feature_set_of(id); // must not panic
        }
        prop_assert_eq!(agent.candidate_pairs().len(), agent.candidates().len());
    }

    /// Trust-gated agent invariants under arbitrary attributed votes,
    /// including the §6.3 guarantee hardened by cascading rollback: a link
    /// is blocked only while at least two of its negative admissions are
    /// still live — rollback victims are never left blacklisted.
    #[test]
    fn gated_agent_never_blacklists_rollback_victims(
        votes in proptest::collection::vec(
            (0u32..8, 0u32..8, prop::bool::ANY, 1u32..6),
            0..150,
        ),
    ) {
        let names: Vec<String> = (0..8)
            .map(|i| format!("entity number{i} alpha{i}"))
            .collect();
        let space = space_from_names(&names);
        let initial: Vec<(u32, u32)> = (0..4).map(|i| (i, i)).collect();
        let mut agent = Agent::new(space, &initial, AlexConfig {
            episode_size: 16,
            trust: Some(TrustConfig::default()),
            ..AlexConfig::default()
        });
        for (i, &(l, r, positive, source)) in votes.iter().enumerate() {
            let Some(id) = agent.space().id_of(l, r) else { continue };
            let feedback = if positive { Feedback::Positive } else { Feedback::Negative };
            agent.process_attributed(FeedbackItem { state: id, feedback, source: SourceId(source) });
            if i % 10 == 9 {
                agent.end_episode();
            }
        }
        let gate = agent.trust_gate().expect("trust gate");
        let mut live_negative: std::collections::HashMap<PairId, u32> =
            std::collections::HashMap::new();
        let mut seen: HashSet<PairId> = HashSet::new();
        for rec in &gate.log {
            seen.insert(rec.state);
            if !rec.positive && !rec.revoked {
                *live_negative.entry(rec.state).or_insert(0) += 1;
            }
        }
        for &state in &seen {
            if agent.blacklist_blocks(state) {
                prop_assert!(
                    live_negative.get(&state).copied().unwrap_or(0) >= 2,
                    "blocked link {state:?} lacks two live negative admissions"
                );
            }
        }
        prop_assert_eq!(agent.candidate_pairs().len(), agent.candidates().len());
    }

    /// Replaying journaled attributed items through [`Agent::replay_episode`]
    /// reproduces the live run byte-for-byte — links, trust posteriors,
    /// pending buffer, admission log, RNG — even when the sequence triggers
    /// quorum flips and cascading rollbacks.
    #[test]
    fn gated_replay_from_journal_is_byte_identical(
        votes in proptest::collection::vec(
            (0u32..8, 0u32..8, prop::bool::ANY, 1u32..6),
            1..120,
        ),
    ) {
        let names: Vec<String> = (0..8)
            .map(|i| format!("entity number{i} alpha{i}"))
            .collect();
        let space = space_from_names(&names);
        let initial: Vec<(u32, u32)> = (0..4).map(|i| (i, i)).collect();
        let cfg = AlexConfig {
            episode_size: 16,
            trust: Some(TrustConfig::default()),
            ..AlexConfig::default()
        };

        // Live leg: process each vote, journaling exactly what applied.
        let mut live = Agent::new(space.clone(), &initial, cfg.clone());
        let mut journal: Vec<(u32, u32, bool, u32)> = Vec::new();
        for &(l, r, positive, source) in &votes {
            let Some(id) = live.space().id_of(l, r) else { continue };
            let feedback = if positive { Feedback::Positive } else { Feedback::Negative };
            live.process_attributed(FeedbackItem { state: id, feedback, source: SourceId(source) });
            journal.push((l, r, positive, source));
        }
        live.end_episode();

        // Replay leg: a fresh agent fed the journal.
        let mut replayed = Agent::new(space, &initial, cfg);
        replayed.replay_episode(&journal).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(e)
        })?;

        prop_assert_eq!(replayed.capture_state(), live.capture_state());
        prop_assert_eq!(replayed.candidate_pairs(), live.candidate_pairs());
    }

    /// Footprints encoded as windows go through the snapshot codec and
    /// decode, against the space, to exactly the explicit `PairId` lists
    /// they were built from: an exploration's added links with their
    /// attribution flags, and a rollback's cleared list (segments that
    /// restart, as a generator's repeated explorations do) with its removed
    /// links.
    #[test]
    fn window_footprints_decode_to_their_explicit_lists(
        n in 4usize..24,
        feature_pick in 0usize..64,
        center in 0.0f64..1.0,
        step in 0.05f64..0.6,
        seed in 0u64..1_000_000,
    ) {
        let names: Vec<String> = (0..n)
            .map(|i| format!("entity number{} alpha{}", i % 5, i % 3))
            .collect();
        let space = space_from_names(&names);
        let features: Vec<FeatureId> = space.catalog().iter().map(|(f, _)| f).collect();
        prop_assume!(!features.is_empty());
        let window = space.window(features[feature_pick % features.len()], center, step);
        let slice: Vec<PairId> = space.window_slice(window).iter().map(|&(_, id)| id).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;

        // Explicit lists: added links with attribution flags; the cleared
        // list as a few in-order subsequences, one after another.
        let mut added: Vec<(usize, PairId, bool)> = Vec::new();
        for (i, &l) in slice.iter().enumerate() {
            if rng.random_range(0..2) == 0 {
                added.push((i, l, rng.random_range(0..3) != 0));
            }
        }
        let mut cleared: Vec<PairId> = Vec::new();
        for _ in 0..rng.random_range(0..4) {
            cleared.extend(slice.iter().filter(|_| rng.random_range(0..3) == 0));
        }
        let removed: Vec<usize> = (0..cleared.len())
            .filter(|_| rng.random_range(0..2) == 0)
            .collect();

        // The same lists as windows and masks.
        let mut record = AdmissionRecord::new(PairId(0), true);
        let mut added_mask = BitMask::default();
        for &(i, _, attributed) in &added {
            added_mask.insert(i);
            if attributed {
                record.attributed.insert(i);
            }
        }
        record.added = WindowList::new(window);
        record.added.push(added_mask);
        let mut removed_mask = BitMask::default();
        for &i in &removed {
            removed_mask.insert(i);
        }
        record.rollback = Some(RollbackUndo {
            generator: (PairId(0), window.feature),
            links: WindowList::of_links(&space, window, &cleared).expect("links in the window"),
            votes: (2, 1),
            removed: removed_mask,
        });
        let snapshot = RunSnapshot {
            base_fingerprint: 0,
            last_episode: 1,
            completed: false,
            relaxed_converged_at: None,
            episodes: Vec::new(),
            partitions: vec![PartitionSnapshot {
                episodes: Vec::new(),
                agent: AgentState {
                    rng: [0; 4],
                    episodes_completed: 1,
                    candidates: Vec::new(),
                    approved: Vec::new(),
                    greedy: Vec::new(),
                    returns: Vec::new(),
                    blacklist_votes: Vec::new(),
                    generated: Vec::new(),
                    provenance_votes: Vec::new(),
                    trust: Some(TrustState {
                        sources: Vec::new(),
                        discredited: Vec::new(),
                        pending: Vec::new(),
                        log: vec![record].into(),
                    }),
                },
                source_state: Vec::new(),
            }],
        };
        let bytes = persist::encode_snapshot(&snapshot);
        let back = persist::decode_snapshot(&bytes).map_err(TestCaseError::fail)?;
        let trust = back.partitions[0].agent.trust.as_ref().expect("trust state");
        let rec = &trust.log[0];

        let decoded_added: Vec<(PairId, bool)> = rec
            .added
            .entries(&space)
            .map(|(i, l)| (l, rec.attributed.contains(i)))
            .collect();
        let explicit_added: Vec<(PairId, bool)> =
            added.iter().map(|&(_, l, attributed)| (l, attributed)).collect();
        prop_assert_eq!(decoded_added, explicit_added);
        let rb = rec.rollback.as_ref().expect("rollback");
        let decoded_cleared: Vec<PairId> = rb.links.links(&space).collect();
        prop_assert_eq!(&decoded_cleared, &cleared);
        prop_assert_eq!(rb.links.len(), cleared.len());
        let decoded_removed: Vec<PairId> = rb.removed.select(&decoded_cleared).collect();
        let explicit_removed: Vec<PairId> = removed.iter().map(|&i| cleared[i]).collect();
        prop_assert_eq!(decoded_removed, explicit_removed);
    }
}

const WORDS: [&str; 8] = [
    "alpha", "bravo", "carlo", "delta", "echos", "foxtrot", "golfer", "hotel",
];

/// Two data sets over [`WORDS`], so blocking meets many candidates. Each
/// row `(a, b, c)` is one entity. Left entity 0 comes first and shares no
/// token with anything, so no built pair starts with it and `(0, 0)`
/// sorts before every built pair.
fn word_pair(
    left_rows: &[(usize, usize, usize)],
    right_rows: &[(usize, usize, usize)],
) -> (Dataset, Dataset) {
    let mut left = Dataset::new("L");
    let mut right = Dataset::new("R");
    left.add_str("http://l/0", "http://l/label", "zulu quebec");
    for (i, &(a, b, c)) in left_rows.iter().enumerate() {
        let s = format!("http://l/{}", i + 1);
        left.add_str(&s, "http://l/label", &format!("{} {}", WORDS[a], WORDS[b]));
        left.add_str(&s, "http://l/alias", &format!("{} x{c}", WORDS[b]));
    }
    for (i, &(a, b, c)) in right_rows.iter().enumerate() {
        let s = format!("http://r/{i}");
        right.add_str(&s, "http://r/name", &format!("{} {}", WORDS[a], WORDS[b]));
        right.add_str(&s, "http://r/title", &format!("x{c} {}", WORDS[a]));
    }
    (left, right)
}

/// The link space as plain data, scored directly per pair with
/// `simmatrix::feature_set`: the built candidates that keep a feature,
/// then each admitted pair.
struct SpaceReference {
    lv: SideValues,
    rv: SideValues,
    theta: f64,
    pairs: Vec<(u32, u32)>,
    catalog: FeatureCatalog,
    sets: Vec<FeatureSet>,
}

impl SpaceReference {
    fn build(left: &Dataset, right: &Dataset, theta: f64) -> SpaceReference {
        let (li, ri) = (left.entity_index(), right.entity_index());
        let mut interner = TokenInterner::new();
        let lv = SideValues::build(left, &li, &mut interner);
        let rv = SideValues::build(right, &ri, &mut interner);
        let blocking = SpaceConfig::default().blocking;
        let mut reference = SpaceReference {
            lv,
            rv,
            theta,
            pairs: Vec::new(),
            catalog: FeatureCatalog::new(),
            sets: Vec::new(),
        };
        for (l, r) in candidate_pairs(left, &li, right, &ri, &blocking) {
            let sf = reference.feature_set(l, r);
            if !sf.is_empty() {
                reference.pairs.push((l, r));
                reference.sets.push(sf);
            }
        }
        reference
    }

    fn feature_set(&mut self, l: u32, r: u32) -> FeatureSet {
        let (lv, rv) = (&self.lv, &self.rv);
        feature_set(
            lv.attrs(l),
            rv.attrs(r),
            self.theta,
            |a, b| prepared_similarity(lv.value(a), rv.value(b)),
            &mut self.catalog,
        )
    }

    /// One link of `LinkSpace::admit`: the pair's id, admitting it when
    /// new.
    fn admit(&mut self, l: u32, r: u32) -> PairId {
        if let Some(i) = self.pairs.iter().position(|&p| p == (l, r)) {
            return PairId(i as u32);
        }
        let sf = self.feature_set(l, r);
        self.pairs.push((l, r));
        self.sets.push(sf);
        PairId(self.pairs.len() as u32 - 1)
    }

    /// `LinkSpace::fingerprint`, recomputed from the reference's data.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.pairs.len() as u64);
        for &(l, r) in &self.pairs {
            mix(u64::from(l));
            mix(u64::from(r));
        }
        for (f, fp) in self.catalog.iter() {
            mix(u64::from(f.0));
            mix(fp.left.index() as u64);
            mix(fp.right.index() as u64);
        }
        mix(self.theta.to_bits());
        h
    }

    /// Whether `space` holds exactly the reference's pairs, feature sets
    /// (scores bitwise) and fingerprint, and finds every pair by id.
    fn check(&self, space: &LinkSpace) -> Result<(), TestCaseError> {
        prop_assert_eq!(space.len(), self.pairs.len());
        prop_assert_eq!(space.catalog().len(), self.catalog.len());
        prop_assert_eq!(space.fingerprint(), self.fingerprint());
        for (i, (&(l, r), sf)) in self.pairs.iter().zip(&self.sets).enumerate() {
            let id = PairId(i as u32);
            prop_assert_eq!(space.pair(id), (l, r));
            prop_assert_eq!(space.id_of(l, r), Some(id));
            let bits = |sf: &[(FeatureId, f64)]| -> Vec<(u32, u64)> {
                sf.iter().map(|&(f, s)| (f.0, s.to_bits())).collect()
            };
            prop_assert_eq!(bits(space.feature_set_of(id)), bits(sf));
        }
        Ok(())
    }
}

/// `explore` finds exactly what the linear scan finds, for every feature
/// and a window around every score the space holds.
fn check_explore(space: &LinkSpace, step: f64) -> Result<(), TestCaseError> {
    for (f, _) in space.catalog().iter() {
        let centers = space
            .pair_ids()
            .filter_map(|id| feature_score(space.feature_set_of(id), f));
        for center in centers.chain([0.0, 0.5, 1.0]) {
            let mut a = space.explore(f, center, step);
            let mut b = space.explore_scan(f, center, step);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The columnar space equals a per-candidate reference at 1 and 4
    /// threads: the same pairs, feature sets and fingerprint. `id_of`
    /// round-trips for built pairs and for the pairs `admit` adds (the
    /// first of which sorts before every built pair), `admit` returns each
    /// link's id in link order, and `explore` agrees with the scan after
    /// the admissions.
    #[test]
    fn columnar_space_matches_per_pair_reference(
        left_rows in proptest::collection::vec((0usize..8, 0usize..8, 0usize..4), 4..30),
        right_rows in proptest::collection::vec((0usize..8, 0usize..8, 0usize..4), 4..30),
        theta_pick in 0usize..3,
        admits in proptest::collection::vec((0u32..40, 0u32..40), 0..8),
        step in 0.01f64..0.3,
    ) {
        let (left, right) = word_pair(&left_rows, &right_rows);
        let theta = [0.0, 0.3, 0.6][theta_pick];
        let cfg = SpaceConfig { theta, ..SpaceConfig::default() };
        for threads in [1, 4] {
            alex_parallel::set_threads(threads);
            let space = LinkSpace::build(&left, &right, &cfg);
            let mut reference = SpaceReference::build(&left, &right, theta);
            reference.check(&space)?;
            prop_assert!(space.pair_ids().all(|id| space.pair(id).0 != 0));
            prop_assert_eq!(space.id_of(0, 0), None);

            let (nl, nr) = (left_rows.len() as u32 + 1, right_rows.len() as u32);
            let admitted: Vec<(u32, u32)> = std::iter::once((0, 0))
                .chain(admits.iter().map(|&(l, r)| (l % nl, r % nr)))
                .collect();
            let built = space.len();
            let (space, ids) = space.admit(&admitted);
            let want: Vec<PairId> = admitted.iter().map(|&(l, r)| reference.admit(l, r)).collect();
            prop_assert_eq!(ids, want);
            prop_assert_eq!(space.pair(PairId(built as u32)), (0, 0));
            reference.check(&space)?;
            check_explore(&space, step)?;
        }
        alex_parallel::set_threads(0);
    }
}
