//! Per-rule corpus tests: for each rule, a minimal violating source, the
//! clean counterparts, and the annotation escape hatch — all run through the
//! library API on in-memory workspaces so the behavior is pinned at the
//! precision of a single line.

use alm_lint::rules::{GoldenEmission, LockOrder, RngCollision, Rule};
use alm_lint::{Linter, Workspace};

fn run(rule: Box<dyn Rule>, sources: &[(&str, &str)]) -> Vec<alm_lint::Diagnostic> {
    Linter::with_rules(vec![rule]).run(&Workspace::from_sources(sources))
}

fn run_aux(rule: Box<dyn Rule>, sources: &[(&str, &str)], aux: &[(&str, &str)]) -> Vec<alm_lint::Diagnostic> {
    Linter::with_rules(vec![rule]).run(&Workspace::from_sources_with_aux(sources, aux))
}

// ---------------- L1 lock-order ----------------

fn l1_rule() -> Box<LockOrder> {
    Box::new(LockOrder { scopes: vec!["crates/runtime/src/".to_string()] })
}

const L1_STRUCT: &str = "use parking_lot::Mutex;\n\
                         pub struct S {\n    a: Mutex<u32>,\n    b: Mutex<u32>,\n}\n";

#[test]
fn l1_flags_opposite_order_acquisition() {
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let ga = self.a.lock();\n        \
         let gb = self.b.lock();\n    }}\n    fn g(&self) {{\n        let gb = self.b.lock();\n        \
         let ga = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert_eq!(diags.len(), 2, "both sides of the inversion are sites: {diags:?}");
    assert!(diags.iter().all(|d| d.code == "L1"));
    assert!(diags[0].message.contains("->"), "{}", diags[0].message);
}

#[test]
fn l1_consistent_order_is_clean() {
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let ga = self.a.lock();\n        \
         let gb = self.b.lock();\n    }}\n    fn g(&self) {{\n        let ga = self.a.lock();\n        \
         let gb = self.b.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l1_drop_releases_the_guard() {
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let ga = self.a.lock();\n        \
         drop(ga);\n        let gb = self.b.lock();\n    }}\n    fn g(&self) {{\n        \
         let gb = self.b.lock();\n        let ga = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l1_self_relock_is_a_cycle() {
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let g1 = self.a.lock();\n        \
         let g2 = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("non-reentrant"));
}

#[test]
fn l1_follows_calls_one_level_deep() {
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn outer(&self) {{\n        let ga = self.a.lock();\n        \
         self.inner();\n    }}\n    fn inner(&self) {{\n        let ga = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert_eq!(diags.len(), 1, "holding `a` while calling a fn that locks `a`: {diags:?}");
}

#[test]
fn l1_out_of_scope_crates_are_ignored() {
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let g1 = self.a.lock();\n        \
         let g2 = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/metrics/src/a.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l1_follows_calls_transitively() {
    // outer holds `a` and calls mid -> leaf, where only leaf locks `a`:
    // invisible to one-level call edges, caught by the transitive closure.
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn outer(&self) {{\n        let ga = self.a.lock();\n        \
         self.mid();\n    }}\n    fn mid(&self) {{\n        self.leaf();\n    }}\n    \
         fn leaf(&self) {{\n        let ga = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert_eq!(diags.len(), 1, "two-hop self-relock must be found: {diags:?}");
    assert!(diags[0].message.contains("mid -> leaf"), "report names the call chain: {}", diags[0].message);
}

#[test]
fn l1_transitive_closure_is_cycle_safe() {
    // mutually recursive helpers must not hang the closure, and the lock
    // at the bottom is still found through the recursion.
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn outer(&self) {{\n        let ga = self.a.lock();\n        \
         self.ping();\n    }}\n    fn ping(&self) {{\n        self.pong();\n    }}\n    \
         fn pong(&self) {{\n        self.ping();\n        self.leaf();\n    }}\n    \
         fn leaf(&self) {{\n        let ga = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn l1_call_chains_beyond_depth_bound_are_not_followed() {
    // A 9-hop chain to the lock exceeds MAX_CALL_DEPTH (8): conservative
    // silence rather than unbounded closure.
    let mut src = format!(
        "{L1_STRUCT}impl S {{\n    fn outer(&self) {{\n        let ga = self.a.lock();\n        \
         self.h1();\n    }}\n"
    );
    for i in 1..=9 {
        src.push_str(&format!("    fn h{i}(&self) {{\n        self.h{}();\n    }}\n", i + 1));
    }
    src.push_str("    fn h10(&self) {\n        let ga = self.a.lock();\n    }\n}\n");
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert!(diags.is_empty(), "depth-bounded: {diags:?}");
}

#[test]
fn l1_drop_releases_only_the_named_guard() {
    // drop(ga) must not release gb: the b -> a edge from f() still pairs
    // with g()'s a -> b edge into a cycle.
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let ga = self.a.lock();\n        \
         let gb = self.b.lock();\n        drop(ga);\n        let ga2 = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    // a -> b (line 9, a still held) and b -> a (line 11, b survived the drop)
    // close the cycle; crucially there is no a-while-holding-a self-relock,
    // which proves drop(ga) released exactly ga.
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("`a` while holding `b`")), "{diags:?}");
    assert!(diags.iter().all(|d| !d.message.contains("`a` while holding `a`")), "{diags:?}");
}

#[test]
fn l1_identifiers_ending_in_drop_do_not_release() {
    // The old scan matched `drop(` anywhere in the line, so `undrop(ga)`
    // released the guard — this case locks in the fixed false negative.
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let ga = self.a.lock();\n        \
         undrop(ga);\n        let gb = self.b.lock();\n    }}\n    fn g(&self) {{\n        \
         let gb = self.b.lock();\n        let ga = self.a.lock();\n    }}\n}}\n"
    );
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert_eq!(diags.len(), 2, "undrop() must not count as drop(): {diags:?}");
}

#[test]
fn l1_multiple_drops_on_one_line_all_release() {
    let src = format!(
        "{L1_STRUCT}impl S {{\n    fn f(&self) {{\n        let ga = self.a.lock();\n        \
         let gb = self.b.lock();\n        drop(gb); drop(ga);\n        \
         let gb2 = self.b.lock();\n        let ga2 = self.a.lock();\n    }}\n    \
         fn g(&self) {{\n        let ga = self.a.lock();\n        let gb = self.b.lock();\n    }}\n}}\n"
    );
    // After both drops, f() re-acquires in b -> a order while g() uses
    // a -> b: exactly that inversion is reported, not a self-relock.
    let diags = run(l1_rule(), &[("crates/runtime/src/a.rs", &src)]);
    assert!(!diags.is_empty(), "{diags:?}");
    assert!(diags.iter().all(|d| !d.message.contains("a -> a") && !d.message.contains("b -> b")));
}

// ---------------- G1 golden-emission ----------------

fn g1_rule() -> Box<GoldenEmission> {
    Box::new(GoldenEmission::default())
}

const G1_BASELINE: &str =
    "{\n  \"name\": \"gate\",\n  \"outcomes\": [\n    {\n      \"scenario\": \"baseline\",\n      \"succeeded\": true\n    }\n  ]\n}\n";

fn g1_src(body: &str) -> String {
    format!(
        "pub struct Report;\nimpl Report {{\n    pub fn canonical_json(&self) -> String {{\n        \
         use serde_json::Value;\n{body}        String::new()\n    }}\n}}\n"
    )
}

#[test]
fn g1_unguarded_novel_key_is_flagged() {
    let src = g1_src(
        "        let mut fields = vec![\n            (\"scenario\", Value::Str(self.scenario.clone())),\n            (\"stall_ratio\", Value::U64(self.stall_ratio as u64)),\n        ];\n",
    );
    let diags = run_aux(
        g1_rule(),
        &[("crates/chaos/src/campaign.rs", &src)],
        &[("crates/bench/golden/campaign_gate.json", G1_BASELINE)],
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "G1");
    assert!(diags[0].message.contains("stall_ratio"));
    assert!(!diags[0].message.contains("scenario\" "), "baseline keys are clean");
}

#[test]
fn g1_guarded_novel_key_is_clean() {
    let src = g1_src(
        "        let mut fields = vec![\n            (\"succeeded\", Value::Bool(self.succeeded)),\n        ];\n        if self.stall_ratio > 0 {\n            fields.push((\"stall_ratio\", Value::U64(self.stall_ratio as u64)));\n        }\n",
    );
    let diags = run_aux(
        g1_rule(),
        &[("crates/chaos/src/campaign.rs", &src)],
        &[("crates/bench/golden/campaign_gate.json", G1_BASELINE)],
    );
    assert!(diags.is_empty(), "the non-zero-only idiom is the sanctioned path: {diags:?}");
}

#[test]
fn g1_if_let_guard_also_counts() {
    let src = g1_src(
        "        let mut fields = vec![\n            (\"succeeded\", Value::Bool(self.succeeded)),\n        ];\n        if let Some(v) = self.verdict {\n            fields.push((\"verdict\", Value::Bool(v)));\n        }\n",
    );
    let diags = run_aux(
        g1_rule(),
        &[("crates/chaos/src/campaign.rs", &src)],
        &[("crates/bench/golden/campaign_gate.json", G1_BASELINE)],
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn g1_allow_marks_an_intended_rebless() {
    let src = g1_src(
        "        let mut fields = vec![\n            // alm-lint: allow(golden-emission) — baseline re-bless lands with this PR\n            (\"stall_ratio\", Value::U64(self.stall_ratio as u64)),\n        ];\n",
    );
    let diags = run_aux(
        g1_rule(),
        &[("crates/chaos/src/campaign.rs", &src)],
        &[("crates/bench/golden/campaign_gate.json", G1_BASELINE)],
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn g1_missing_baseline_is_itself_a_finding() {
    let src = g1_src("");
    let diags = run_aux(g1_rule(), &[("crates/chaos/src/campaign.rs", &src)], &[]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("golden baseline"));
}

#[test]
fn g1_missing_serializer_is_itself_a_finding() {
    let diags = run_aux(
        g1_rule(),
        &[("crates/chaos/src/campaign.rs", "pub fn to_json() -> String { String::new() }\n")],
        &[("crates/bench/golden/campaign_gate.json", G1_BASELINE)],
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("canonical_json"));
}

// ---------------- R1 rng-collision ----------------

fn r1_rule() -> Box<RngCollision> {
    Box::new(RngCollision)
}

#[test]
fn r1_flags_same_seed_same_label_shape() {
    let src = "pub fn a(seed: u64, i: u64) -> u64 {\n    \
               let mut r = alm_des::rng::stream(seed, &format!(\"jitter/{}\", i));\n    r.next_u64()\n}\n\
               pub fn b(seed: u64, j: u64) -> u64 {\n    \
               let mut r = alm_des::rng::stream(seed, &format!(\"jitter/{}\", j));\n    r.next_u64()\n}\n";
    let diags = run(r1_rule(), &[("crates/sched/src/a.rs", src)]);
    assert_eq!(diags.len(), 2, "both colliding sites are reported: {diags:?}");
    assert!(diags.iter().all(|d| d.code == "R1"));
    assert!(diags[0].message.contains("jitter/{}"), "{}", diags[0].message);
}

#[test]
fn r1_distinct_labels_and_distinct_seeds_are_clean() {
    let src = "pub fn a(seed: u64) -> u64 {\n    \
               let mut r = alm_des::rng::stream(seed, \"input-sizes\");\n    r.next_u64()\n}\n\
               pub fn b(seed: u64) -> u64 {\n    \
               let mut r = alm_des::rng::stream(seed, \"arrival-gaps\");\n    r.next_u64()\n}\n\
               pub fn c(seed: u64) -> u64 {\n    \
               let mut r = alm_des::rng::stream(seed ^ 1, \"input-sizes\");\n    r.next_u64()\n}\n";
    let diags = run(r1_rule(), &[("crates/sched/src/a.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r1_same_shape_across_crates_is_clean() {
    // Stream namespaces are per-crate by convention; identical labels in
    // different crates draw from different engines.
    let a = "pub fn a(seed: u64) -> u64 {\n    let mut r = alm_des::rng::stream(seed, \"jitter\");\n    r.next_u64()\n}\n";
    let diags = run(r1_rule(), &[("crates/sched/src/a.rs", a), ("crates/sim/src/b.rs", a)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r1_flags_loop_label_omitting_loop_variable() {
    let src = "pub fn shuffle(seed: u64, xs: &[u64]) -> u64 {\n    let mut acc = 0;\n    \
               for x in xs {\n        let mut r = alm_des::rng::stream(seed, \"shuffle-order\");\n        \
               acc += r.next_u64() ^ x;\n    }\n    acc\n}\n";
    let diags = run(r1_rule(), &[("crates/sched/src/a.rs", src)]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("omits enclosing loop variable `x`"), "{}", diags[0].message);
}

#[test]
fn r1_loop_label_naming_the_variable_is_clean() {
    let src = "pub fn shuffle(seed: u64, xs: &[u64]) -> u64 {\n    let mut acc = 0;\n    \
               for x in xs {\n        let mut r = alm_des::rng::stream(seed, &format!(\"shuffle-order/{x}\"));\n        \
               acc += r.next_u64();\n    }\n    acc\n}\n";
    let diags = run(r1_rule(), &[("crates/sched/src/a.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r1_loop_variable_in_the_seed_expression_also_counts() {
    let src = "pub fn shuffle(seed: u64, xs: &[u64]) -> u64 {\n    let mut acc = 0;\n    \
               for x in xs {\n        let mut r = alm_des::rng::stream(seed ^ x, \"shuffle-order\");\n        \
               acc += r.next_u64();\n    }\n    acc\n}\n";
    let diags = run(r1_rule(), &[("crates/sched/src/a.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r1_resolves_labels_bound_to_a_nearby_format() {
    let src = "pub fn a(seed: u64, k: u64) -> u64 {\n    \
               let label = format!(\"degraded-loss/{k}\");\n    \
               let mut r = alm_des::rng::stream(seed, &label);\n    r.next_u64()\n}\n\
               pub fn b(seed: u64, k: u64) -> u64 {\n    \
               let label = format!(\"degraded-loss/{k}\");\n    \
               let mut r = alm_des::rng::stream(seed, &label);\n    r.next_u64()\n}\n";
    let diags = run(r1_rule(), &[("crates/sim/src/a.rs", src)]);
    assert_eq!(diags.len(), 2, "variable labels resolve through let-bindings: {diags:?}");
}

#[test]
fn r1_allow_with_reason_suppresses() {
    let src = "pub fn shuffle(seed: u64, xs: &[u64]) -> u64 {\n    let mut acc = 0;\n    \
               for x in xs {\n        // alm-lint: allow(rng-collision) — one stream across the loop is the fairness model\n        \
               let mut r = alm_des::rng::stream(seed, \"shuffle-order\");\n        \
               acc += r.next_u64() ^ x;\n    }\n    acc\n}\n";
    let diags = run(r1_rule(), &[("crates/sched/src/a.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r1_test_code_may_reuse_streams() {
    // Determinism tests deliberately derive the same stream twice.
    let src = "#[cfg(test)]\nmod tests {\n    fn t(seed: u64) {\n        \
               let a = alm_des::rng::stream(seed, \"replay\");\n        \
               let b = alm_des::rng::stream(seed, \"replay\");\n    }\n}\n";
    let diags = run(r1_rule(), &[("crates/des/src/a.rs", src)]);
    assert!(diags.is_empty(), "{diags:?}");
}
