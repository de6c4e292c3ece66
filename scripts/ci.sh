#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> panic-free gate (unwrap/expect banned in federation, alex-core, alex-store, alex-fault, the alex CLI)"
# The federation modules, the probe answer cache among them, carry
# #[deny(clippy::unwrap_used, clippy::expect_used)] (see
# crates/sparql/src/federation/mod.rs), and alex-core / alex-store deny
# the same lints crate-wide (see their lib.rs); these runs fail the build
# if a new unwrap/expect sneaks into the fault-handling, durability, or
# caching paths.
cargo clippy -p alex-sparql -- -D warnings
# The `alex` binary denies the same lints outside its tests (see
# src/bin/alex.rs), so user input can never reach a panic in the CLI layer.
cargo clippy -p alex --bin alex -- -D warnings
cargo clippy -p alex-core -- -D warnings
cargo clippy -p alex-store -- -D warnings
# The fault plan every injector reads (spec parser, content-keyed draw)
# denies the same lints crate-wide (see crates/fault/src/lib.rs).
cargo clippy -p alex-fault -- -D warnings
# The profiling layer (timeline/trace/attribution/report modules) carries
# the same per-module deny, so the exporter and aggregators stay panic-free.
cargo clippy -p alex-telemetry -- -D warnings
# The trust subsystem gates every feedback-driven mutation; it must stay
# panic-free too (crate-wide unwrap/expect deny, see crates/trust/src/lib.rs).
cargo clippy -p alex-trust -- -D warnings
# The similarity kernels and the deterministic pool are the alignment hot
# path: the bit-parallel/interned kernels and the pool's claim loop must
# stay warning-free.
cargo clippy -p alex-sim -- -D warnings
cargo clippy -p alex-parallel -- -D warnings
# The supervisor layer (budgets, breach policy, degraded bookkeeping) and
# the paper-experiment harness complete the crate-by-crate -D warnings
# coverage.
cargo clippy -p alex-guard -- -D warnings
cargo clippy -p alex-bench -- -D warnings

echo "==> cargo doc (workspace, broken and private intra-doc links are errors)"
# A deleted or renamed item must not leave a dangling doc link behind, and
# public docs must not link to private items (rustdoc renders those dead).
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --workspace --no-deps -q

echo "==> cargo test (ALEX_THREADS=1: deterministic pool runs inline)"
ALEX_THREADS=1 cargo test --workspace -q

echo "==> cargo test (ALEX_THREADS=4: same suite, parallel pool)"
# The pool's ordered reduction makes results byte-identical at any width,
# so the whole suite must pass unchanged with 4 workers.
ALEX_THREADS=4 cargo test --workspace -q

echo "==> federated_feedback example (its assertions run nowhere else)"
# The user-judged Fig. 1 loop: a rejected answer removes its link and an
# approved one explores, so the rerun query answers correctly.
cargo run -q --example federated_feedback > /dev/null

echo "==> kernel equivalence properties (token pattern ≡ string kernels, dispatch symmetry, myers ≡ DP, interned ≡ string jaccard)"
# The fast kernels must stay bitwise-equal to their slow oracles: the
# prebuilt-pattern token kernel to Jaro-Winkler and Levenshtein on strings
# (exhaustively on short strings, across the 64-byte limit and on
# non-ASCII tokens), Myers to the DP including multi-block (>64 chars) and
# combining-mark inputs, and interned to string Jaccard. Prepared value
# similarity must be bitwise symmetric for every pair of value kinds, as
# its single dispatch assumes, and PARIS alignment must stay byte-identical
# across thread counts and equal to a per-attribute-pair transcription.
cargo test -p alex-sim --test properties -q
cargo test -p alex-linking --test properties -q

echo "==> golden linker and link-space digests, score-table differential (ALEX_THREADS=1 and 4)"
# PARIS and label-baseline links (term pairs and score bits) on a generated
# and a hand-built pair must match the digests pinned before both linkers
# moved onto the shared value-score table.
ALEX_THREADS=1 cargo test --test link_golden -q
ALEX_THREADS=4 cargo test --test link_golden -q
# Pairs, feature ids and score bits of three generated spaces, full and in
# 27 partitions from one shared preparation, must match the pinned digests
# at any pool width. Spaces read from the shared value-pair score table
# must equal direct per-candidate scoring at θ from 0 to 1, and the
# partitions sharing one table must equal standalone partition builds.
ALEX_THREADS=1 cargo test --test space_golden -q
ALEX_THREADS=4 cargo test --test space_golden -q
ALEX_THREADS=1 cargo test --test space_scores -q
ALEX_THREADS=4 cargo test --test space_scores -q

echo "==> golden run digests and learning-state properties (ALEX_THREADS=1 and 4)"
# Report, per-partition and link digests of partitioned runs, and the
# trust-gated run's final links, persisted agent state and admission log,
# must match the pinned digests at any pool width: a change to the agent's
# learning state (candidate set, approvals, blacklist, provenance) stays
# byte-identical or updates a digest on purpose. The candidate set must
# match a swap-remove vector in membership, order and seeded samples.
ALEX_THREADS=1 cargo test --test run_golden -q
ALEX_THREADS=4 cargo test --test run_golden -q
ALEX_THREADS=1 cargo test -p alex-core --test properties -q
ALEX_THREADS=4 cargo test -p alex-core --test properties -q

echo "==> paper figure digests (release experiments, ALEX_THREADS=2)"
# Every figure's output, minus fig10's wall-time lines, must match its
# committed sha256: a change to the driver, the agent or the kernels either
# keeps the paper figures byte-identical or updates the digest on purpose.
cargo build --release -q -p alex-bench --bin experiments
grep -v '^#' scripts/paper_digests.txt | while read -r name digest; do
  got=$(ALEX_THREADS=2 target/release/experiments "$name" 2>/dev/null \
    | grep -v 'slowest partition' | sha256sum | cut -d' ' -f1)
  if [ "$got" != "$digest" ]; then
    echo "paper digest mismatch for $name: got $got, expected $digest" >&2
    exit 1
  fi
done

echo "==> e2e benchmark unit tests (separate package, own target dir)"
cargo test --offline -q --manifest-path e2e-bench/Cargo.toml

echo "==> chaos suite (seeded fault injection over the full improve loop, ALEX_THREADS=1 and 4)"
# Every fault suite below shares tests/harness (one CLI kill-and-resume
# table, one disturbed-vs-reference runner) and reads one alex-fault plan;
# each runs at both pool widths.
ALEX_THREADS=1 cargo test --test chaos_federation -q
ALEX_THREADS=4 cargo test --test chaos_federation -q
# The simulation sweep: seeded random plans over pool, store and endpoint
# faults with random kill points must recover to the undisturbed reference.
ALEX_THREADS=1 cargo test --test crash_resume -q
ALEX_THREADS=4 cargo test --test crash_resume -q

echo "==> cache differential suite (cached vs uncached byte-identity, shadow-oracle staleness)"
# The answer cache must be behaviorally invisible: improve/query output is
# compared cached-vs-uncached across --threads 1/4 and fault profiles, and
# random link-mutation sequences are checked against a from-scratch oracle
# (no cached probe answer may go stale when links change).
ALEX_THREADS=1 cargo test --test cache_differential -q
ALEX_THREADS=4 cargo test --test cache_differential -q

echo "==> SPARQL fuzz (fixed seed budget: ~4k structured + ~6k mutated inputs)"
# Seeds are hard-coded in the test file, so this budget is deterministic;
# no-panic and parse/serialize fixpoint (UNION included) properties.
cargo test --test fuzz_sparql -q

echo "==> smarter-federation differential + recall suites (ALEX_THREADS=1 and 4)"
# Catalog-pruned dispatch must be byte-identical to broadcast across seeds,
# cache settings, and fault profiles, in-process and through the CLI; and
# the recall/traffic experiment must show recall rising with the closure
# while pruned traffic stays below broadcast (>= 30% reduction at full
# closure).
ALEX_THREADS=1 cargo test --test federation_differential -q
ALEX_THREADS=4 cargo test --test federation_differential -q
ALEX_THREADS=1 cargo test --test federation_recall -q
ALEX_THREADS=4 cargo test --test federation_recall -q
# Batched endpoint requests must be invisible: an engine sending each
# endpoint's job list as one request must match one sending a call per
# probe (answers, skip sets, retry/circuit tallies, breaker states, fault
# schedule) across seeds, fault profiles and --threads 1/4.
ALEX_THREADS=1 cargo test --test request_differential -q
ALEX_THREADS=4 cargo test --test request_differential -q
# `--catalog probe` scans endpoints under retries and the breaker: the CLI
# run survives transient faults and still refuses a catalog on an outage.
cargo test --test cli -q catalog_probe_survives_transient_faults

echo "==> trace & report suite (--trace validity, PARIS worker nesting, alex report)"
cargo test --test trace_report -q

echo "==> adversarial-feedback suite (trust gate vs seeded poisoners, quorum deferral, thread invariance)"
# A 30% targeted-poisoner mix must not move the gated run's F while the
# ungated run collapses; deferred votes stay buffered; output is
# byte-identical across thread counts and the trust counters export.
cargo test --test adversarial_trust -q

echo "==> panic-chaos suite (quarantined chunk panics + WAL replay, byte-identity at 1 and 4 threads)"
# Seeded chunk panics are quarantined by the pool and re-executed
# sequentially; a suspended run is resumed through the WAL. Output must be
# byte-identical to the undisturbed reference at every pool width (the
# test itself sweeps --threads 1/2/4/8; the env var pins the default width
# for everything around it).
ALEX_THREADS=1 cargo test --test panic_chaos -q
ALEX_THREADS=4 cargo test --test panic_chaos -q

echo "==> composed-chaos suite (storage faults + poisoners + faulty federation, crash & resume)"
# All fault domains in one durable loop: a torn journal write kills
# the run mid-attack, recovery + resume must land on the uninterrupted
# reference's exact links, admission log, and trust posteriors — plus the
# chaos gate (chunk panics + stalls + silent store faults + flaky
# federation under quarantine) and the CLI SIGKILL legs.
ALEX_THREADS=1 cargo test --test composed_chaos -q
ALEX_THREADS=4 cargo test --test composed_chaos -q

echo "==> kill-and-resume smoke (SIGKILL mid-run, --resume, diff vs reference)"
# An improve run is SIGKILLed at an episode commit, resumed with --resume,
# and its final links must be byte-identical to an uninterrupted reference.
cargo build -q --bin alex
ALEX=target/debug/alex
SMOKE=$(mktemp -d -t alex-ci-resume.XXXXXX)
trap 'rm -rf "$SMOKE"' EXIT
"$ALEX" gen --out-dir "$SMOKE" --pair nba --seed 7
improve() {
  "$ALEX" improve "$SMOKE/left.nt" "$SMOKE/right.nt" \
    --links "$SMOKE/truth.nt" --truth "$SMOKE/truth.nt" \
    --episodes 6 --episode-size 30 --error-rate 0.1 "$@"
}
improve --state-dir "$SMOKE/state-ref" --out "$SMOKE/ref.nt" --threads 1
# `kill -9` at the 2nd commit: the run must die by signal, not exit cleanly.
if improve --state-dir "$SMOKE/state-cut" --kill-after 2 --threads 4; then
  echo "kill-and-resume smoke: run survived --kill-after 2" >&2
  exit 1
fi
improve --state-dir "$SMOKE/state-cut" --resume --out "$SMOKE/resumed.nt" --threads 4
cmp "$SMOKE/ref.nt" "$SMOKE/resumed.nt" \
  || { echo "kill-and-resume smoke: resumed links differ from reference" >&2; exit 1; }
echo "resumed links byte-identical to uninterrupted reference"
# The same cut on a trust-gated run: the snapshot it resumes from carries a
# non-empty admission log. At error rate 0.3 the run lasts 5 episodes, so
# the kill at the 3rd commit lands after snapshot 2.
gated() {
  "$ALEX" improve "$SMOKE/left.nt" "$SMOKE/right.nt" \
    --links "$SMOKE/truth.nt" --truth "$SMOKE/truth.nt" \
    --episodes 6 --episode-size 30 --error-rate 0.3 \
    --trust --sources 5 --adversary-profile flipper:0.2 --snapshot-every 2 "$@"
}
gated --state-dir "$SMOKE/gated-ref" --out "$SMOKE/gated-ref.nt" --threads 1
if gated --state-dir "$SMOKE/gated-cut" --kill-after 3 --threads 4; then
  echo "kill-and-resume smoke: gated run survived --kill-after 3" >&2
  exit 1
fi
gated --state-dir "$SMOKE/gated-cut" --resume --out "$SMOKE/gated-resumed.nt" --threads 4
cmp "$SMOKE/gated-ref.nt" "$SMOKE/gated-resumed.nt" \
  || { echo "kill-and-resume smoke: gated resumed links differ from reference" >&2; exit 1; }
echo "gated resumed links byte-identical to uninterrupted reference"
# The final snapshot (format 6: footprints as score-index windows plus bit
# masks, lengths and windows in LEB128) must be the same bytes at any pool
# width, uninterrupted or resumed, and no larger than the 8,046 bytes the
# format-5 build wrote for this command line.
gated --state-dir "$SMOKE/gated-ref4" --out "$SMOKE/gated-ref4.nt" --threads 4
final_snapshot() { ls "$1"/snap-*.bin | tail -n 1; }
ref_snap=$(final_snapshot "$SMOKE/gated-ref")
for dir in gated-ref4 gated-cut; do
  cmp "$ref_snap" "$(final_snapshot "$SMOKE/$dir")" \
    || { echo "kill-and-resume smoke: $dir final snapshot differs from the --threads 1 reference" >&2; exit 1; }
done
snap_bytes=$(wc -c < "$ref_snap")
if [ "$snap_bytes" -gt 8046 ]; then
  echo "kill-and-resume smoke: gated final snapshot takes $snap_bytes bytes, more than format 5's 8046" >&2
  exit 1
fi
echo "gated final snapshot byte-identical at --threads 1 and 4 and after resume ($snap_bytes bytes)"
# Telemetry on: the same links, only the current event kinds (one
# feedback_applied record per applied step, no per-link events), and a
# log and metrics dump that `alex report` reads.
gated --state-dir "$SMOKE/gated-tel" --out "$SMOKE/gated-tel.nt" --threads 1 \
  --telemetry "$SMOKE/gated.jsonl" --metrics-dump "$SMOKE/gated.prom"
cmp "$SMOKE/gated-ref.nt" "$SMOKE/gated-tel.nt" \
  || { echo "telemetry smoke: links differ with --telemetry on" >&2; exit 1; }
if grep -Eq '"type":"(link_added|link_removed|blacklist_hit|exploration_action|rollback)"' \
  "$SMOKE/gated.jsonl"; then
  echo "telemetry smoke: the log holds a removed event kind" >&2
  exit 1
fi
"$ALEX" report "$SMOKE/gated.jsonl" --metrics "$SMOKE/gated.prom" > /dev/null
echo "telemetry smoke: links identical, $(wc -l < "$SMOKE/gated.jsonl") event lines, report ok"

echo "==> memory ceiling and exact work (full-scale DBpedia-NYTimes batch run, 27 partitions, release build)"
# The batch run's resident set is its 27 link spaces and two triple
# stores. On a 2-vCPU host the episode-end VmRSS of this run read 58-59 MiB
# with a heap vector per pair and POS/OSP built at load, and 33-34 MiB
# with the columnar link space and on-demand POS/OSP indexes. The ceiling
# sits between the two, so a return to the old layout breaches it.
cargo build --release -q --bin alex
mkdir -p "$SMOKE/full"
target/release/alex gen --out-dir "$SMOKE/full" --pair dbpedia-nytimes --seed 20160501 > /dev/null 2>&1
target/release/alex link "$SMOKE/full/left.nt" "$SMOKE/full/right.nt" \
  --out "$SMOKE/full/links.nt" --threads 2 2> /dev/null
target/release/alex improve "$SMOKE/full/left.nt" "$SMOKE/full/right.nt" \
  --links "$SMOKE/full/links.nt" --truth "$SMOKE/full/truth.nt" \
  --partitions 27 --threads 2 --max-rss-mb 45 --budget-policy continue \
  --out "$SMOKE/full/improved.nt" --metrics-dump "$SMOKE/full/metrics.prom" \
  > /dev/null 2> "$SMOKE/ceiling.err"
grep -q "^supervision: 0 breach(es)" "$SMOKE/ceiling.err" \
  || { grep "breach" "$SMOKE/ceiling.err" >&2; echo "memory ceiling: the run breached 45 MB" >&2; exit 1; }
echo "memory ceiling: 0 breaches of 45 MB"
# The score pass decides most value pairs from token-pair bounds instead of
# the similarity kernels. Scoring every token pair took 3,721,641 kernel
# calls on this run; the gate allows half of that, and the links must stay
# those of the unbounded pass.
token_pairs=$(awk '$1 == "space_token_pairs_scored_total" { print $2 }' "$SMOKE/full/metrics.prom")
[ -n "$token_pairs" ] && [ "$token_pairs" -le 1860820 ] \
  || { echo "exact work: ${token_pairs:-no} token pairs scored, above 1,860,820" >&2; exit 1; }
links_sha=$(sha256sum "$SMOKE/full/improved.nt" | cut -d' ' -f1)
[ "$links_sha" = 5ae22306ecdb97ec7b1755b47e1248d5703afc8111a581a7aa2693dcbc0d7d7e ] \
  || { echo "exact work: the full-scale links changed (sha256 $links_sha)" >&2; exit 1; }
echo "exact work: $token_pairs token pairs scored, links unchanged"
# The memory watch, the budget policy and the metrics dump only observe:
# the same command line without them writes the same links.
target/release/alex improve "$SMOKE/full/left.nt" "$SMOKE/full/right.nt" \
  --links "$SMOKE/full/links.nt" --truth "$SMOKE/full/truth.nt" \
  --partitions 27 --threads 2 --out "$SMOKE/full/plain.nt" > /dev/null 2>&1
cmp "$SMOKE/full/improved.nt" "$SMOKE/full/plain.nt" \
  || { echo "observers: the budget and metrics flags changed the full-scale links" >&2; exit 1; }
echo "observers: the plain full-scale run writes the same links"

echo "==> trace-schema smoke (--trace under --threads 1 and 4, oracle and query feedback, validated via alex report)"
# The emitted Chrome trace must pass structural validation: balanced B/E
# per thread and every pool chunk span enclosed by its dispatch span. At
# one thread the caller runs every chunk inside its own dispatch span.
for threads in 1 4; do
  improve --out "$SMOKE/traced-$threads.nt" --threads "$threads" \
    --trace "$SMOKE/trace-$threads.json" --profile 2> "$SMOKE/profile.err"
  grep -q "phase" "$SMOKE/profile.err" \
    || { echo "trace-schema smoke: --profile printed no attribution table" >&2; exit 1; }
  "$ALEX" report --check-trace "$SMOKE/trace-$threads.json"
done
# Query feedback runs the same builder: its space build must nest under
# improve_partitioned/build_spaces, its trace must validate, and both
# widths must write the same links.
for threads in 1 4; do
  "$ALEX" improve "$SMOKE/left.nt" "$SMOKE/right.nt" \
    --links "$SMOKE/truth.nt" --truth "$SMOKE/truth.nt" \
    --feedback query --episodes 4 --episode-size 40 --queries 30 \
    --out "$SMOKE/query-$threads.nt" --threads "$threads" \
    --trace "$SMOKE/query-trace-$threads.json" --verbose 2> "$SMOKE/query.err"
  grep -q "^improve_partitioned/build_spaces " "$SMOKE/query.err" \
    || { echo "trace-schema smoke: query feedback's space build is outside improve_partitioned" >&2; exit 1; }
  "$ALEX" report --check-trace "$SMOKE/query-trace-$threads.json"
done
cmp "$SMOKE/query-1.nt" "$SMOKE/query-4.nt" \
  || { echo "trace-schema smoke: query-feedback links differ across --threads" >&2; exit 1; }

echo "CI OK"
