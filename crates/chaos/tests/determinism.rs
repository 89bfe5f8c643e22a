//! DES determinism under chaos scenarios: the simulator is a pure function
//! of (spec, env, faults). For any seeded [`ChaosScenario`] drawn from a
//! [`FaultSpace`], running the lowered scenario twice must produce
//! **byte-identical traces** — the serialized [`SimReport`]s compare equal
//! as strings, not merely as values.

use proptest::prelude::*;

use alm_chaos::{ChaosScenario, FaultSpace, LoweringProfile};
use alm_sim::experiment::run_one;
use alm_sim::{ExperimentEnv, SimJobSpec};
use alm_types::units::GB;
use alm_types::{ClusterSpec, JobId, RecoveryMode};
use alm_workloads::WorkloadKind;

fn trace_of(scenario: &ChaosScenario, mode: RecoveryMode) -> String {
    let mut env = ExperimentEnv::paper(mode);
    env.cluster = ClusterSpec { nodes: 9, ..ClusterSpec::default() };
    let spec = SimJobSpec::new(WorkloadKind::Terasort, 2 * GB, 6, 17);
    let plan = scenario.lower(JobId(0), &LoweringProfile::simulator(&env.cluster));
    let report = run_one(&spec, &env, plan);
    serde_json::to_string(&report).expect("SimReport serialises")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Same seed, same scenario, two independent runs: identical bytes.
    #[test]
    fn same_seed_same_scenario_byte_identical_traces(seed in 0u64..10_000, pick in 0usize..6) {
        let space = FaultSpace::paper_like(8, 2, 16, 6);
        let scenario = &space.sample(6, seed)[pick];
        for mode in [RecoveryMode::Baseline, RecoveryMode::SfmAlg] {
            let a = trace_of(scenario, mode);
            let b = trace_of(scenario, mode);
            prop_assert_eq!(&a, &b, "trace divergence under {:?} for {:?}", mode, scenario);
        }
    }

    /// The sweep itself is deterministic: resampling the space with the
    /// same seed reproduces the exact scenario list.
    #[test]
    fn fault_space_resampling_is_stable(seed in 0u64..1_000_000) {
        let space = FaultSpace::paper_like(20, 2, 80, 20);
        prop_assert_eq!(space.sample(10, seed), space.sample(10, seed));
    }
}
