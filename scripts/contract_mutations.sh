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
#     new JobReport / SimReport counter -> E0027 in crates/chaos/src/analyze.rs
#   cargo check -p alm-types
#     new Fault variant                 -> E0004 in crates/types/src/failure.rs
#                                          (`FaultPlan::arm`, the one place a
#                                          fault becomes a trigger; the
#                                          workspace-wide case may stop at
#                                          whichever crate errors first)
#   cargo check -p alm-sim / cargo check -p alm-runtime
#     new FaultTimeline list            -> E0027 in crates/sim/src/engine.rs /
#                                          crates/runtime/src/am.rs (each
#                                          engine destructures the armed
#                                          timeline with no `..`)
#     new SchedAction variant           -> E0004 in crates/sim/src/engine.rs /
#                                          crates/runtime/src/am.rs (each
#                                          engine's one `execute_actions`)
#   cargo check -p alm-core
#     new RecoveryMode variant          -> E0004 in crates/core/src/sfm/policy.rs
#                                          (`schedule_recovery`, the one place
#                                          a mode decides recovery)
#   cargo check -p alm-workloads
#     a compare_keys override           -> E0407 in crates/workloads/src/terasort.rs
#                                          (keys sort bytewise: the sort buffer's
#                                          8-byte prefix order relies on there
#                                          being no comparator to override)
#   cargo clippy --workspace --all-targets -- -D warnings   (root clippy.toml)
#     a HashMap field iterated in crates/sim -> clippy::disallowed_types
#     a HashMap field in crates/des          -> clippy::disallowed_types (the
#                                               kernel holds no exemption)
#     an Instant::now() in crates/des        -> clippy::disallowed_methods
#   cargo check --tests
#     SmallRng::from_entropy() in a chaos test -> E0599 (the in-repo `rand`
#                                                 has no entropy source)
#   cargo test -p alm-shuffle   (debug: the parking_lot shim's lock check is on)
#     a lock taken while MemFs holds its own  -> "nested lock" panic
#   cargo test -p alm-bench --test campaign_gate
#     an unconditional canonical_json key     -> golden key-set assertion
#
# The rest-free `validate()` destructurings list only fields an engine reads
# (YarnConfig 14, MemConfig 4, SchedConfig 3); the YarnConfig mutation
# anchors on the struct header, not on any one field.
#
# 18 mutations. CI-only (not tier-1). Usage: scripts/contract_mutations.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# One copy and one target dir for the whole run: only the mutated crate and
# its dependents rebuild between mutations.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
mkdir "$work/ws"
(cd "$root" && tar -cf - --exclude=./target --exclude=./benchmark --exclude=./.git .) | tar -xf - -C "$work/ws"

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

check_core() {
    (cd "$work/ws" && cargo check --offline -p alm-core 2>&1)
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

test_gate() {
    (cd "$work/ws" && cargo test --offline -p alm-bench --test campaign_gate 2>&1)
}

# expect_fail <label> <runner> <file> <anchor line (fixed string)> <line inserted after it> <error (egrep)> [<path the error must name>]
expect_fail() {
    local label="$1" runner="$2" file="$3" anchor="$4" insert="$5" want="$6" site="${7:-}"
    local target="$work/ws/$file"
    if [ "$(grep -cxF -- "$anchor" "$target")" != 1 ]; then
        echo "FAIL [$label]: anchor '$anchor' not found exactly once in $file" >&2
        exit 1
    fi
    cp "$target" "$target.orig"
    awk -v a="$anchor" -v i="$insert" '{ print } $0 == a { print i }' "$target.orig" > "$target"
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
    if [ -n "$site" ] && ! grep -A4 -E "$want" <<<"$out" | grep -qF -- "$site"; then
        echo "FAIL [$label]: no $want error points at $site:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "ok   [$label]: $runner rejected it with $(grep -Eo "$want" <<<"$out" | sort -u | tr '\n' ' ')"
    # Undo, with a fresh mtime: cargo only rebuilds what is newer than its
    # last artifact, and a crate downstream of the error compiled the mutant.
    mv "$target.orig" "$target"
    touch "$target"
}

# Before the mutations, and again after the last one is undone (which also
# leaves a shared CARGO_TARGET_DIR holding no mutant artifact).
expect_pass() {
    local runner out
    for runner in check check_tests clippy test_shuffle test_gate; do
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
expect_fail "FaultTimeline list drained by the sim" check_sim crates/types/src/failure.rs \
    "pub struct FaultTimeline {" "    pub drains: Vec<(u64, NodeId)>," "error\[E0027\]" crates/sim/src/engine.rs
expect_fail "FaultTimeline list drained by the runtime" check_runtime crates/types/src/failure.rs \
    "pub struct FaultTimeline {" "    pub drains: Vec<(u64, NodeId)>," "error\[E0027\]" crates/runtime/src/am.rs
expect_fail "SchedAction variant executed by the sim" check_sim crates/core/src/sfm/policy.rs \
    "pub enum SchedAction {" "    SuspendReduce { task: TaskId }," "error\[E0004\]" crates/sim/src/engine.rs
expect_fail "SchedAction variant executed by the runtime" check_runtime crates/core/src/sfm/policy.rs \
    "pub enum SchedAction {" "    SuspendReduce { task: TaskId }," "error\[E0004\]" crates/runtime/src/am.rs
expect_fail "RecoveryMode variant decided once" check_core crates/types/src/config.rs \
    "pub enum RecoveryMode {" "    Lineage," "error\[E0004\]" crates/core/src/sfm/policy.rs
expect_fail "compare_keys override in a Workload" check_workloads crates/workloads/src/terasort.rs \
    "impl Workload for Terasort {" "    fn compare_keys(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering { a.cmp(b) }" \
    "error\[E0407\]" crates/workloads/src/terasort.rs
expect_fail "YarnConfig field" check crates/types/src/config.rs \
    "pub struct YarnConfig {" "    pub speculative_slots: u32," "error\[(E0063|E0027)\]" crates/types/src/config.rs
expect_fail "JobReport counter" check crates/runtime/src/report.rs \
    "pub struct JobReport {" "    pub phantom_completions: u32," "error\[E0027\]" crates/chaos/src/analyze.rs
expect_fail "SimReport counter" check crates/sim/src/trace.rs \
    "pub struct SimReport {" "    pub phantom_completions: u32," "error\[E0027\]" crates/chaos/src/analyze.rs

expect_fail "HashMap field iterated in the sim" clippy crates/sim/src/engine.rs \
    "use crate::trace::{SimFailure, SimReport};" \
    "pub struct Leak { pub m: std::collections::HashMap<u32, u32> } impl Leak { pub fn order(&self) -> Vec<u32> { self.m.keys().copied().collect() } }" \
    "use of a disallowed type" crates/sim/src/engine.rs
expect_fail "HashMap field in the DES kernel" clippy crates/des/src/queue.rs \
    "use crate::time::{SimDuration, SimTime};" \
    "pub struct SideTable { pub payloads: std::collections::HashMap<u64, u64> }" \
    "use of a disallowed type" crates/des/src/queue.rs
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
expect_fail "unconditional canonical_json key" test_gate crates/chaos/src/campaign.rs \
    '                    ("corruption_refetches", Value::U64(o.corruption_refetches as u64)),' \
    '                    ("phantom_counter", Value::U64(0)),' \
    "per-outcome keys differ from the golden baseline"

expect_pass "mutations undone"
echo "contract_mutations: all mutations rejected"
