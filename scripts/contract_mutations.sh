#!/usr/bin/env bash
# The cross-engine contract is carried by the compiler (DESIGN.md, "Enforced
# by the compiler"). This script proves it still is: copy the workspace,
# apply one-line mutations in turn, and require `cargo check` to FAIL each
# one with the expected error code — and to pass on the unmutated copy.
#
#   new FailureKind / Fault variant  -> E0004 (non-exhaustive match)
#   new YarnConfig field             -> E0063 / E0027 (literal / destructuring)
#   new JobReport / SimReport counter -> E0027 in crates/chaos/src/analyze.rs
#
# The rest-free `validate()` destructurings list only fields an engine reads
# (YarnConfig 14, MemConfig 4, SchedConfig 3); the YarnConfig mutation
# anchors on the struct header, not on any one field.
#
# CI-only (not tier-1). Usage: scripts/contract_mutations.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# One target dir across all copies: only the mutated crate and its
# dependents re-check between mutations.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

fresh_copy() {
    rm -rf "$work/ws"
    mkdir "$work/ws"
    (cd "$root" && tar -cf - --exclude=./target --exclude=./benchmark --exclude=./.git .) | tar -xf - -C "$work/ws"
}

check() {
    (cd "$work/ws" && cargo check --offline --workspace 2>&1)
}

# expect_fail <label> <file> <anchor line (fixed string)> <line inserted after it> <codes (egrep)> [<path the error must name>]
expect_fail() {
    local label="$1" file="$2" anchor="$3" insert="$4" codes="$5" site="${6:-}"
    fresh_copy
    local target="$work/ws/$file"
    if [ "$(grep -cxF -- "$anchor" "$target")" != 1 ]; then
        echo "FAIL [$label]: anchor '$anchor' not found exactly once in $file" >&2
        exit 1
    fi
    awk -v a="$anchor" -v i="$insert" '{ print } $0 == a { print i }' "$target" > "$target.mut"
    mv "$target.mut" "$target"
    local out
    if out="$(check)"; then
        echo "FAIL [$label]: cargo check passed on the mutated tree" >&2
        exit 1
    fi
    if ! grep -Eq "error\[($codes)\]" <<<"$out"; then
        echo "FAIL [$label]: build broke, but not with $codes:" >&2
        echo "$out" >&2
        exit 1
    fi
    if [ -n "$site" ] && ! grep -A4 -E "error\[($codes)\]" <<<"$out" | grep -qF -- "$site"; then
        echo "FAIL [$label]: no $codes error points at $site:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "ok   [$label]: rejected with $(grep -Eo "error\[($codes)\]" <<<"$out" | sort -u | tr '\n' ' ')"
}

fresh_copy
if ! out="$(check)"; then
    echo "FAIL [unmutated]: the pristine copy does not build:" >&2
    echo "$out" >&2
    exit 1
fi
echo "ok   [unmutated]: cargo check passes"

expect_fail "FailureKind variant" crates/types/src/failure.rs \
    "pub enum FailureKind {" "    RackLoss," "E0004"
expect_fail "Fault variant" crates/types/src/failure.rs \
    "pub enum Fault {" "    DrainNode { node: NodeId }," "E0004"
expect_fail "YarnConfig field" crates/types/src/config.rs \
    "pub struct YarnConfig {" "    pub speculative_slots: u32," "E0063|E0027" crates/types/src/config.rs
expect_fail "JobReport counter" crates/runtime/src/report.rs \
    "pub struct JobReport {" "    pub phantom_completions: u32," "E0027" crates/chaos/src/analyze.rs
expect_fail "SimReport counter" crates/sim/src/trace.rs \
    "pub struct SimReport {" "    pub phantom_completions: u32," "E0027" crates/chaos/src/analyze.rs

echo "contract_mutations: all mutations rejected by the compiler"
