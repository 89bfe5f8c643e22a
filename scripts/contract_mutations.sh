#!/usr/bin/env bash
# The cross-engine contract, the determinism guards, the lock discipline and
# golden-gate emission safety are carried by the toolchain and the test suite
# (DESIGN.md, "Enforced by the compiler"). This script proves they still
# are: copy the workspace, apply one-line mutations in turn, and
# require the named command to FAIL each one with the expected error — and
# to pass on the unmutated copy.
#
#   cargo check
#     new FailureKind / Fault variant   -> E0004 (non-exhaustive match)
#     new YarnConfig field              -> E0063 / E0027 (literal / destructuring)
#     new RunReport counter             -> E0027 in crates/chaos/src/analyze.rs
#                                          (`analyze`, the one place an outcome
#                                          is built from the run)
#     new SimReport counter             -> E0027 in crates/chaos/src/analyze.rs
#                                          (`analyze_sim` classifies the
#                                          simulator's own fields)
#     new JobReport counter             -> E0027 in crates/chaos/src/campaign.rs
#                                          (the runtime campaign classifies the
#                                          runtime's own fields)
#   cargo check -p alm-types
#     new Fault variant                 -> E0004 in crates/types/src/failure.rs
#                                          (`FaultPlan::arm`, the one place a
#                                          fault becomes a trigger; the
#                                          workspace-wide case may stop at
#                                          whichever crate errors first)
#   cargo check -p alm-sim / cargo check -p alm-runtime
#     new fault Trigger variant         -> E0004 in crates/sim/src/engine.rs /
#                                          crates/runtime/src/am.rs (each
#                                          engine's one `match` on what
#                                          `FaultTimeline` fires)
#     new AM Command variant            -> E0004 in crates/sim/src/engine.rs /
#                                          crates/runtime/src/am.rs (each
#                                          engine's one `match` on what
#                                          `alm_core::Am` dispatches)
#   cargo check -p alm-sim and cargo check -p alm-runtime, both
#     new fetch Step variant            -> E0004 in crates/sim/src/engine.rs and
#                                          crates/runtime/src/reducetask.rs
#                                          (each reducer's one `match` on what
#                                          `alm_core::FetchCore` decides)
#   cargo check -p alm-core
#     new RecoveryMode variant          -> E0004 in crates/core/src/sfm/policy.rs
#                                          (`schedule_recovery`, the one place
#                                          a mode decides recovery)
#     new SchedAction variant /
#     new AM Decision variant           -> E0004 in crates/core/src/am.rs
#                                          (`Am::apply`, the one place a
#                                          decision and its actions are
#                                          queued)
#     new fetch Outcome variant         -> E0004 in crates/core/src/fetch.rs
#                                          (`FetchCore`, the one place what a
#                                          reducer observes is decided on)
#   cargo check -p alm-shuffle
#     an `unsafe {}` block in crates/shuffle/src/codec.rs
#                                       -> unsafe_code (the crate denies it;
#                                          its one allowance is the call into
#                                          the CRC kernel in frame.rs)
#   cargo check -p alm-workloads
#     a compare_keys override           -> E0407 in crates/workloads/src/terasort.rs
#                                          (keys sort bytewise: the sort buffer's
#                                          8-byte prefix order relies on there
#                                          being no comparator to override)
#   cargo clippy --workspace --all-targets -- -D warnings   (root clippy.toml)
#     a HashMap field iterated in crates/sim -> clippy::disallowed_types
#     a HashMap field in crates/des          -> clippy::disallowed_types (the
#                                               kernel holds no exemption)
#     a HashMap field in crates/core/src/am.rs -> clippy::disallowed_types (the
#                                               AM's order fixes the order of
#                                               failure records and launches)
#     an Instant::now() in crates/des        -> clippy::disallowed_methods
#   cargo check --tests
#     SmallRng::from_entropy() in a chaos test -> E0599 (the in-repo `rand`
#                                                 has no entropy source)
#   cargo test -p alm-shuffle   (debug: the parking_lot shim's lock check is on)
#     a lock taken while MemFs holds its own  -> "nested lock" panic
#     the MPQ's reader-index tie-break reversed -> equal_keys_pop_in_reader_order
#                                                 fails (merges are stable)
#     the spill's key-byte re-sort of prefix ties dropped
#                                               -> keys_tied_on_their_prefix_sort_by_their_bytes
#                                                 fails (the packed sort key
#                                                 holds only 8 key bytes)
#     a CRC fold constant changed              -> crc32_matches_reference_on_random_buffers
#                                                 fails (the carry-less kernel
#                                                 must equal the bitwise CRC)
#   cargo test -p alm-des
#     virtual time's rounding tie taken downward (`> 0.5`)
#                                               -> secs_to_nanos_edges and
#                                                 secs_to_nanos_matches_round
#                                                 fail (the truncating
#                                                 conversion must equal
#                                                 f64::round, halves included)
#     FlowPool::add's back-scan stopping one slot early
#                                               -> matches_tree_pool_bit_for_bit
#                                                 fails (a short flow added
#                                                 behind long ones must land
#                                                 at the head, as in the
#                                                 B-tree pool)
#   cargo test -p alm-types
#     a `Both` heal that removes only the (a, b) direction
#                                               -> firing_in_steps_matches_firing_once
#                                                 fails (once everything is
#                                                 due, every window has
#                                                 healed)
#   cargo test -p alm-sim
#     the armed kill list skipping map kills  -> reports_match_their_pinned_values
#                                                 fails (a pinned run kills a map)
#     the ledger's expiry dropping attempts without recording their
#     NodeCrash failures                      -> fig3_temporal_amplification_exists_in_baseline
#                                                 fails (Fig. 3's repeats are
#                                                 counted on the trace)
#   cargo test -p alm-core
#     the AM's fail recording only failures of incomplete tasks
#                                               -> ledger_keeps_the_books fails
#                                                 (a finished map's running
#                                                 sibling still fails on the
#                                                 record)
#     dispatch pushing an unplaceable map to the back of the queue, or
#     placement ignoring a node's slot capacity
#                                               -> dispatch_with_every_map_slot_taken_keeps_the_queue_in_place
#                                                 fails (the queue keeps its
#                                                 order; a full node takes
#                                                 nothing)
#     FCM attempts counted against FCM_cap on nodes the AM knows are down
#                                               -> an_fcm_attempt_on_a_node_known_down_leaves_fcm_cap
#                                                 fails (the AM's own view of
#                                                 liveness decides)
#   cargo test -p alm-sched
#     the view sync keeping a drained head job at the head of its tenant's entry
#                                               -> slots_left_when_the_head_job_drains_go_to_the_next_oldest_job
#                                                 fails (the kept view's head
#                                                 is looked up again only when
#                                                 the head job stops being
#                                                 runnable)
#     the view sync dropped from crash detection
#                                               -> incremental_bookkeeping_matches_a_recomputation
#                                                 fails (the kept views must
#                                                 equal fresh ones after every
#                                                 event)
#     a task table iterated in reverse index order
#                                               -> task_table_answers_as_the_btreemap_it_replaced
#                                                 fails (crash handling walks
#                                                 tasks in index order; no
#                                                 report shows that order, as
#                                                 a job's tasks of one kind
#                                                 are interchangeable)
#   cargo test -p alm-workloads
#     the reference executor's sort made key-only (the line is replaced)
#                                               -> values_tied_on_their_key_reduce_in_value_order
#                                                 fails (the oracle's records
#                                                 sort by key, then value)
#   cargo test -p alm-dfs
#     a replica's CRC check made always true  -> damaged_bytes_at_every_offset_are_never_served
#                                                 fails (replicas share the written
#                                                 bytes, so the CRC check is all
#                                                 that keeps a rotten one unserved)
#   cargo test -p alm-bench --test campaign_gate
#     an unconditional canonical_json key     -> golden key-set assertion
#
# The rest-free `validate()` destructurings list only fields an engine reads
# (YarnConfig 14, MemConfig 4, SchedConfig 3); the YarnConfig mutation
# anchors on the struct header, not on any one field.
#
# 42 mutations. CI-only (not tier-1). Usage: scripts/contract_mutations.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
# The file a mutation is applied to, while it is; an exit before the undo
# (a mutation that was not rejected) puts its original back.
mutated=""
trap 'if [ -n "$mutated" ]; then mv "$mutated.orig" "$mutated"; fi; rm -rf "$work"' EXIT
# One copy and one target dir for the whole run: only the mutated crate and
# its dependents rebuild between mutations.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
mkdir "$work/ws"
# Fresh mtimes (-m): a shared CARGO_TARGET_DIR may hold a mutant's artifacts
# from a run that stopped before its undo, and cargo rebuilds only what is
# newer than its last artifact.
(cd "$root" && tar -cf - --exclude=./target --exclude=./benchmark --exclude=./.git .) | tar -xmf - -C "$work/ws"

check() {
    (cd "$work/ws" && cargo check --offline --workspace 2>&1)
}

check_types() {
    (cd "$work/ws" && cargo check --offline -p alm-types 2>&1)
}

check_sim() {
    (cd "$work/ws" && cargo check --offline -p alm-sim 2>&1)
}

check_runtime() {
    (cd "$work/ws" && cargo check --offline -p alm-runtime 2>&1)
}

# The two reducers, each on its own: fails only when both fail.
check_reducers() {
    local out status=1
    out="$(check_sim)" && status=0
    echo "$out"
    out="$(check_runtime)" && status=0
    echo "$out"
    return $status
}

check_core() {
    (cd "$work/ws" && cargo check --offline -p alm-core 2>&1)
}

check_shuffle() {
    (cd "$work/ws" && cargo check --offline -p alm-shuffle 2>&1)
}

check_workloads() {
    (cd "$work/ws" && cargo check --offline -p alm-workloads 2>&1)
}

check_tests() {
    (cd "$work/ws" && cargo check --offline --workspace --tests 2>&1)
}

clippy() {
    (cd "$work/ws" && cargo clippy --offline --workspace --all-targets -- -D warnings 2>&1)
}

test_shuffle() {
    (cd "$work/ws" && cargo test --offline -p alm-shuffle 2>&1)
}

test_types() {
    (cd "$work/ws" && cargo test --offline -p alm-types 2>&1)
}

test_des() {
    (cd "$work/ws" && cargo test --offline -p alm-des 2>&1)
}

test_sim() {
    (cd "$work/ws" && cargo test --offline -p alm-sim 2>&1)
}

test_core() {
    (cd "$work/ws" && cargo test --offline -p alm-core 2>&1)
}

test_sched() {
    (cd "$work/ws" && cargo test --offline -p alm-sched 2>&1)
}

test_workloads() {
    (cd "$work/ws" && cargo test --offline -p alm-workloads 2>&1)
}

test_dfs() {
    (cd "$work/ws" && cargo test --offline -p alm-dfs 2>&1)
}

test_gate() {
    (cd "$work/ws" && cargo test --offline -p alm-bench --test campaign_gate 2>&1)
}

# expect_fail <label> <runner> <file> <anchor line (fixed string)> <line inserted after it> <error (egrep)> [<paths the error must name, space-separated>]
expect_fail() {
    mutate_and_expect after "$@"
}

# expect_fail_replacing: as expect_fail, but the new line replaces the anchor.
expect_fail_replacing() {
    mutate_and_expect replace "$@"
}

mutate_and_expect() {
    local how="$1" label="$2" runner="$3" file="$4" anchor="$5" insert="$6" want="$7" site="${8:-}"
    local target="$work/ws/$file"
    if [ "$(grep -cxF -- "$anchor" "$target")" != 1 ]; then
        echo "FAIL [$label]: anchor '$anchor' not found exactly once in $file" >&2
        exit 1
    fi
    cp "$target" "$target.orig"
    mutated="$target"
    awk -v a="$anchor" -v i="$insert" -v how="$how" \
        '$0 != a { print; next } how == "after" { print } { print i }' "$target.orig" > "$target"
    local out
    if out="$($runner)"; then
        echo "FAIL [$label]: $runner passed on the mutated tree" >&2
        exit 1
    fi
    if ! grep -Eq "$want" <<<"$out"; then
        echo "FAIL [$label]: $runner failed, but not with $want:" >&2
        echo "$out" >&2
        exit 1
    fi
    local path
    for path in $site; do
        if ! grep -A4 -E "$want" <<<"$out" | grep -qF -- "$path"; then
            echo "FAIL [$label]: no $want error points at $path:" >&2
            echo "$out" >&2
            exit 1
        fi
    done
    echo "ok   [$label]: $runner rejected it with $(grep -Eo "$want" <<<"$out" | sort -u | tr '\n' ' ')"
    # Undo, with a fresh mtime: cargo only rebuilds what is newer than its
    # last artifact, and a crate downstream of the error compiled the mutant.
    mv "$target.orig" "$target"
    mutated=""
    touch "$target"
}

# Before the mutations, and again after the last one is undone (which also
# leaves a shared CARGO_TARGET_DIR holding no mutant artifact).
expect_pass() {
    local runner out
    for runner in check check_tests clippy test_shuffle test_types test_des test_sim test_core test_sched test_workloads test_dfs test_gate; do
        if ! out="$($runner)"; then
            echo "FAIL [$1]: $runner fails on the unmutated copy:" >&2
            echo "$out" >&2
            exit 1
        fi
        echo "ok   [$1]: $runner passes"
    done
}

expect_pass "unmutated"

expect_fail "FailureKind variant" check crates/types/src/failure.rs \
    "pub enum FailureKind {" "    RackLoss," "error\[E0004\]"
expect_fail "Fault variant" check crates/types/src/failure.rs \
    "pub enum Fault {" "    DrainNode { node: NodeId }," "error\[E0004\]"
expect_fail "Fault variant armed once" check_types crates/types/src/failure.rs \
    "pub enum Fault {" "    DrainNode { node: NodeId }," "error\[E0004\]" crates/types/src/failure.rs
expect_fail "fault Trigger variant carried out by the sim" check_sim crates/types/src/failure.rs \
    "pub enum Trigger {" "    Drain(NodeId)," "error\[E0004\]" crates/sim/src/engine.rs
expect_fail "fault Trigger variant carried out by the runtime" check_runtime crates/types/src/failure.rs \
    "pub enum Trigger {" "    Drain(NodeId)," "error\[E0004\]" crates/runtime/src/am.rs
expect_fail "AM Command variant executed by the sim" check_sim crates/core/src/am.rs \
    "pub enum Command {" "    Suspend(AttemptId)," "error\[E0004\]" crates/sim/src/engine.rs
expect_fail "AM Command variant executed by the runtime" check_runtime crates/core/src/am.rs \
    "pub enum Command {" "    Suspend(AttemptId)," "error\[E0004\]" crates/runtime/src/am.rs
expect_fail "fetch Step variant acted on by both reducers" check_reducers crates/core/src/fetch.rs \
    "pub enum Step {" "    Pause," "error\[E0004\]" "crates/sim/src/engine.rs crates/runtime/src/reducetask.rs"
expect_fail "fetch Outcome variant decided once" check_core crates/core/src/fetch.rs \
    "pub enum Outcome {" "    TimedOut," "error\[E0004\]" crates/core/src/fetch.rs
expect_fail "SchedAction variant queued once" check_core crates/core/src/sfm/policy.rs \
    "pub enum SchedAction {" "    SuspendReduce { task: TaskId }," "error\[E0004\]" crates/core/src/am.rs
expect_fail "AM Decision variant matched once" check_core crates/core/src/am.rs \
    "enum Decision {" "    Suspend," "error\[E0004\]" crates/core/src/am.rs
expect_fail "RecoveryMode variant decided once" check_core crates/types/src/config.rs \
    "pub enum RecoveryMode {" "    Lineage," "error\[E0004\]" crates/core/src/sfm/policy.rs
expect_fail "unsafe block outside the CRC kernel" check_shuffle crates/shuffle/src/codec.rs \
    "use crate::error::{Result, ShuffleError};" "pub fn unchecked() { unsafe {} }" \
    "usage of an \`unsafe\` block" crates/shuffle/src/codec.rs
expect_fail "compare_keys override in a Workload" check_workloads crates/workloads/src/terasort.rs \
    "impl Workload for Terasort {" "    fn compare_keys(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering { a.cmp(b) }" \
    "error\[E0407\]" crates/workloads/src/terasort.rs
expect_fail "YarnConfig field" check crates/types/src/config.rs \
    "pub struct YarnConfig {" "    pub speculative_slots: u32," "error\[(E0063|E0027)\]" crates/types/src/config.rs
expect_fail "RunReport counter" check crates/types/src/trace.rs \
    "pub struct RunCounters {" "    pub phantom_completions: u32," "error\[E0027\]" crates/chaos/src/analyze.rs
expect_fail "JobReport counter" check crates/runtime/src/report.rs \
    "pub struct JobReport {" "    pub phantom_completions: u32," "error\[E0027\]" crates/chaos/src/campaign.rs
expect_fail "SimReport counter" check crates/sim/src/trace.rs \
    "pub struct SimReport {" "    pub phantom_completions: u32," "error\[E0027\]" crates/chaos/src/analyze.rs

expect_fail "HashMap field iterated in the sim" clippy crates/sim/src/engine.rs \
    "use crate::trace::SimReport;" \
    "pub struct Leak { pub m: std::collections::HashMap<u32, u32> } impl Leak { pub fn order(&self) -> Vec<u32> { self.m.keys().copied().collect() } }" \
    "use of a disallowed type" crates/sim/src/engine.rs
expect_fail "HashMap field in the DES kernel" clippy crates/des/src/queue.rs \
    "use crate::time::{SimDuration, SimTime};" \
    "pub struct SideTable { pub payloads: std::collections::HashMap<u64, u64> }" \
    "use of a disallowed type" crates/des/src/queue.rs
expect_fail "HashMap field in the AM" clippy crates/core/src/am.rs \
    "use crate::sfm::policy::{schedule_recovery, ExecMode, PolicyCtx, SchedAction};" \
    "pub struct ByAttempt { pub nodes: std::collections::HashMap<AttemptId, NodeId> }" \
    "use of a disallowed type" crates/core/src/am.rs
expect_fail "Instant::now() in the DES kernel" clippy crates/des/src/queue.rs \
    "    pub fn now(&self) -> SimTime {" "        let _host = std::time::Instant::now();" \
    "use of a disallowed method" crates/des/src/queue.rs
expect_fail "from_entropy() in a chaos test" check_tests crates/chaos/tests/determinism.rs \
    "use alm_sim::experiment::run_one;" \
    "#[test] fn ambient() { use rand::SeedableRng; let _ = rand::rngs::SmallRng::from_entropy(); }" \
    "error\[E0599\]" crates/chaos/tests/determinism.rs

expect_fail "nested lock in MemFs" test_shuffle crates/shuffle/src/localfs.rs \
    "        let mut files = self.files.lock();" "        let _ = self.total_bytes();" \
    "nested lock: this thread already holds a parking_lot::Mutex"
expect_fail "MPQ tie-break reversed" test_shuffle crates/shuffle/src/mpq.rs \
    "        let tie = a.cmp(&b);" "        let tie = tie.reverse();" \
    "test mpq::tests::equal_keys_pop_in_reader_order \.\.\. FAILED"
expect_fail "spill tie re-sort dropped" test_shuffle crates/shuffle/src/kvbuffer.rs \
    "            if tied.len() > 1 {" "                continue;" \
    "test kvbuffer::tests::keys_tied_on_their_prefix_sort_by_their_bytes \.\.\. FAILED"
expect_fail_replacing "CRC fold constant changed" test_shuffle crates/shuffle/src/frame.rs \
    "    const K1: i64 = 0x1_5444_2BD4;" "    const K1: i64 = 0x1_5444_2BD5;" \
    "test frame::tests::crc32_matches_reference_on_random_buffers \.\.\. FAILED"
expect_fail_replacing "unplaceable map requeued at the back" test_core crates/core/src/am.rs \
    "                    self.queued_maps.push_front(task);" "                    self.queued_maps.push_back(task);" \
    "test am::tests::dispatch_with_every_map_slot_taken_keeps_the_queue_in_place \.\.\. FAILED"
expect_fail_replacing "placement ignores slot capacity" test_core crates/core/src/am.rs \
    "        self.is_live(node) && self.free_slots(node, kind) > 0" "        self.is_live(node)" \
    "test am::tests::dispatch_with_every_map_slot_taken_keeps_the_queue_in_place \.\.\. FAILED"
expect_fail_replacing "FCM_cap counts FCM attempts on nodes known down" test_core crates/core/src/am.rs \
    "        self.running.values().filter(|&&(n, mode)| mode == ExecMode::Fcm && self.is_live(n)).count()" \
    "        self.running.values().filter(|&&(_, mode)| mode == ExecMode::Fcm).count()" \
    "test am::tests::an_fcm_attempt_on_a_node_known_down_leaves_fcm_cap \.\.\. FAILED"
expect_fail_replacing "map kills left out of the armed list" test_sim crates/sim/src/engine.rs \
    "            attempt.number == 0 && attempt.task.index < tasks" \
    "            attempt.number == 0 && attempt.task.index < tasks && attempt.task.is_reduce()" \
    "test reports_match_their_pinned_values \.\.\. FAILED"
expect_fail_replacing "rounding tie taken downward" test_des crates/des/src/time.rs \
    "    let up = ns - whole as f64 >= 0.5;" "    let up = ns - whole as f64 > 0.5;" \
    "test time::tests::secs_to_nanos_(edges|matches_round) \.\.\. FAILED"
expect_fail_replacing "flow slot back-scan stopping one slot early" test_des crates/des/src/flow.rs \
    "        while at > 0 && !self.flows[at - 1].before(entry.target, id) {" \
    "        while at > 1 && !self.flows[at - 1].before(entry.target, id) {" \
    "test flow::tests::matches_tree_pool_bit_for_bit \.\.\. FAILED"
expect_fail "Both heal that keeps the reverse direction cut" test_types crates/types/src/failure.rs \
    "            match op {" "                LinkOp::Heal if direction == LinkDirection::Both && key == (b, a) => {}" \
    "test failure::tests::firing_in_steps_matches_firing_once \.\.\. FAILED"
expect_fail_replacing "expiry records no NodeCrash failure" test_sim crates/core/src/am.rs \
    "                self.end(at_ns, a, TraceKind::Failed(FailureKind::NodeCrash));" \
    "                self.running.remove(&a);" \
    "test experiment::tests::fig3_temporal_amplification_exists_in_baseline \.\.\. FAILED"
expect_fail_replacing "failures of complete tasks go unrecorded" test_core crates/core/src/am.rs \
    "        let Some(node) = self.end(at_ns, attempt, TraceKind::Failed(kind)) else {" \
    "        let Some(node) = (if self.is_complete(attempt.task) { self.running.remove(&attempt).map(|(n, _)| n) } else { self.end(at_ns, attempt, TraceKind::Failed(kind)) }) else {" \
    "test ledger_keeps_the_books \.\.\. FAILED"
expect_fail_replacing "drained head job kept at the head" test_sched crates/sched/src/engine.rs \
    "            } else if now == 0 && entry.head_arrival_seq == seq {" "            } else if false {" \
    "test engine::tests::slots_left_when_the_head_job_drains_go_to_the_next_oldest_job \.\.\. FAILED"
expect_fail_replacing "view sync dropped from detection" test_sched crates/sched/src/engine.rs \
    "            self.sync_views(job);" "            // the view sync, dropped" \
    "test engine::tests::incremental_bookkeeping_matches_a_recomputation \.\.\. FAILED"
expect_fail_replacing "task table iterated in reverse" test_sched crates/sched/src/engine.rs \
    "        self.slots.iter().enumerate().filter_map(|(i, t)| Some((i as u32, t.as_ref()?)))" \
    "        self.slots.iter().enumerate().rev().filter_map(|(i, t)| Some((i as u32, t.as_ref()?)))" \
    "test engine::tests::task_table_answers_as_the_btreemap_it_replaced \.\.\. FAILED"
expect_fail_replacing "reference sort made key-only" test_workloads crates/workloads/src/reference.rs \
    "            part.sort_unstable();" "            part.sort_unstable_by(|a, b| a.key.cmp(&b.key));" \
    "test reference::tests::values_tied_on_their_key_reduce_in_value_order \.\.\. FAILED"
expect_fail_replacing "DFS replica health made unconditional" test_dfs crates/dfs/src/cluster.rs \
    "        self.payload.len() as u64 == len && crc == self.crc" "        let _ = (len, crc); true" \
    "test cluster::tests::damaged_bytes_at_every_offset_are_never_served \.\.\. FAILED"
expect_fail "unconditional canonical_json key" test_gate crates/chaos/src/campaign.rs \
    '                    ("corruption_refetches", Value::U64(o.corruption_refetches as u64)),' \
    '                    ("phantom_counter", Value::U64(0)),' \
    "per-outcome keys differ from the golden baseline"

expect_pass "mutations undone"
echo "contract_mutations: all mutations rejected"
