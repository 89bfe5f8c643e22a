//! Chain determinism: an in-memory iterative chain is a pure function of
//! (workload, spec, crash plan). Two guarantees are property-tested here:
//!
//! 1. **Run-to-run**: the same chain run twice on the sim engine yields
//!    byte-identical [`ChainReport`]s (serialized comparison — wall time in
//!    the sim is virtual, so even `job_secs` must match exactly).
//! 2. **Capacity invariance**: the resident-store budget changes *cost*
//!    (hits/evictions), never *results* — the final state bytes and the
//!    convergence point are identical across capacities.
//!
//! Plus a fixed-seed cross-engine check: a mid-chain node crash recovers
//! identically on repeat runs in both engines and both [`MemMode`]s, and
//! both engines agree on the final state. Runtime wall time and cache
//! traffic are thread-timing dependent, so the runtime engine is compared
//! by recovery protocol (iterations completed/lost, durable restores,
//! replay runs), not by durations.

use proptest::prelude::*;
use std::sync::Arc;

use alm_mem::{run_chain, ChainReport, CrashPlan, IterativeSpec, RuntimeChainEngine, SimChainEngine};
use alm_types::{MemConfig, MemMode};
use alm_workloads::{Pagerank, WorkloadKind};

fn spec(seed: u64, capacity_bytes: u64, mode: MemMode, iterations: u32) -> IterativeSpec {
    let mem = MemConfig {
        mem_resident_capacity_bytes: capacity_bytes,
        mem_mode: mode,
        mem_max_chain_iterations: iterations,
        // Tight threshold: the chain always runs its full iteration budget,
        // so every case exercises the same amount of work.
        mem_convergence_epsilon_micro: 1,
    };
    IterativeSpec { workload: Arc::new(Pagerank::small()), num_reduces: 3, seed, mem }
}

fn sim_chain(s: &IterativeSpec, crash: Option<CrashPlan>) -> ChainReport {
    let mut engine = SimChainEngine::paper(WorkloadKind::Pagerank, s);
    run_chain(&mut engine, s, crash)
}

/// The recovery protocol of a report — the part that must be deterministic
/// even on the threaded runtime engine.
fn protocol(r: &ChainReport) -> String {
    let runs: Vec<(u32, bool, bool)> =
        r.runs.iter().map(|o| (o.iteration, o.replay, o.run.succeeded)).collect();
    format!(
        "completed={} lost={} restores={} replays={} runs={runs:?}",
        r.iterations_completed,
        r.iterations_lost,
        r.durable_restores,
        r.replay_runs(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Same spec, same crash, two independent sim chains: identical bytes.
    #[test]
    fn sim_chain_is_byte_identical_across_runs(
        seed in 0u64..10_000,
        crash_iter in 1u32..4,
        mode_pick in 0u8..2,
    ) {
        let mode = if mode_pick == 0 { MemMode::LineageReplay } else { MemMode::AlgFcm };
        let s = spec(seed, 256 * 1024, mode, 4);
        let crash = Some(CrashPlan { node: 1, iteration: crash_iter });
        let a = serde_json::to_string(&sim_chain(&s, crash)).expect("report serialises");
        let b = serde_json::to_string(&sim_chain(&s, crash)).expect("report serialises");
        prop_assert_eq!(a, b, "chain divergence under {} crash@{}", mode, crash_iter);
    }

    /// The resident budget never changes what a chain computes: a store
    /// large enough to hold everything and one that thrashes produce the
    /// same final state at the same convergence point.
    #[test]
    fn final_state_is_capacity_invariant(
        seed in 0u64..10_000,
        small_capacity in 1_024u64..8_192,
    ) {
        let roomy = sim_chain(&spec(seed, 64 * 1024 * 1024, MemMode::AlgFcm, 3), None);
        let tight = sim_chain(&spec(seed, small_capacity, MemMode::AlgFcm, 3), None);
        prop_assert_eq!(&roomy.final_state, &tight.final_state);
        prop_assert_eq!(roomy.iterations_completed, tight.iterations_completed);
        prop_assert_eq!(roomy.converged_at, tight.converged_at);
    }
}

/// A mid-chain node crash recovers identically on repeat runs — in both
/// engines, under both failure semantics — and the engines agree on the
/// final state bytes.
#[test]
fn mid_chain_crash_recovers_identically_in_both_engines() {
    let crash = Some(CrashPlan { node: 1, iteration: 2 });
    for mode in [MemMode::LineageReplay, MemMode::AlgFcm] {
        let s = spec(42, 256 * 1024, mode, 4);

        let sim_a = sim_chain(&s, crash);
        let sim_b = sim_chain(&s, crash);
        assert_eq!(
            serde_json::to_string(&sim_a).expect("report serialises"),
            serde_json::to_string(&sim_b).expect("report serialises"),
            "sim chain must be byte-identical under {mode}"
        );

        let run_once = || {
            let mut engine = RuntimeChainEngine::new(5, &s);
            run_chain(&mut engine, &s, crash)
        };
        let rt_a = run_once();
        let rt_b = run_once();
        assert_eq!(protocol(&rt_a), protocol(&rt_b), "runtime recovery protocol under {mode}");
        assert_eq!(rt_a.final_state, rt_b.final_state, "runtime final state under {mode}");

        assert_eq!(sim_a.final_state, rt_a.final_state, "engines disagree under {mode}");
        assert_eq!(sim_a.iterations_lost, rt_a.iterations_lost, "lost iterations under {mode}");
        match mode {
            MemMode::LineageReplay => assert!(sim_a.iterations_lost > 0, "crash must cost replay"),
            MemMode::AlgFcm => assert_eq!(sim_a.iterations_lost, 0, "ALG+FCM must lose nothing"),
        }
    }
}
