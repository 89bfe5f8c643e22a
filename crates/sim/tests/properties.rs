//! Property-based tests of the simulation engine: under *arbitrary* fault
//! plans the simulator must terminate, stay internally consistent, and
//! preserve the qualitative guarantees of each recovery mode.

use proptest::prelude::*;

use alm_sim::{ExperimentEnv, SimJobSpec, Simulation};
use alm_types::units::GB;
use alm_types::{FailureKind, Fault, FaultPlan, JobId, NodeId, RecoveryMode, TaskId, TaskKind};
use alm_workloads::WorkloadKind;

fn arb_mode() -> impl Strategy<Value = RecoveryMode> {
    prop_oneof![
        Just(RecoveryMode::Baseline),
        Just(RecoveryMode::Alg),
        Just(RecoveryMode::Sfm),
        Just(RecoveryMode::SfmAlg),
    ]
}

fn arb_workload() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        Just(WorkloadKind::Terasort),
        Just(WorkloadKind::Wordcount),
        Just(WorkloadKind::SecondarySort),
    ]
}

fn arb_fault(reduces: u32) -> impl Strategy<Value = Fault> {
    let kill = |task, at_progress| Fault::KillTask { task, attempt_number: 0, at_progress };
    prop_oneof![
        (0..reduces, 0.01f64..0.99).prop_map(move |(r, p)| kill(TaskId::reduce(JobId(0), r), p)),
        (0u32..40, 0.01f64..0.99).prop_map(move |(m, p)| kill(TaskId::map(JobId(0), m), p)),
        (0u32..20, 1_000u64..300_000).prop_map(|(n, ms)| Fault::CrashNodeAtMs { node: NodeId(n), at_ms: ms }),
        (0u32..20, 0..reduces, 0.01f64..0.99).prop_map(|(n, r, p)| Fault::CrashNodeAtReduceProgress {
            node: NodeId(n),
            reduce_index: r,
            at_progress: p
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Whatever we throw at it (up to two arbitrary faults), the simulation
    /// terminates with a consistent report: time-ordered failures, progress
    /// samples in [0,1], attempt counts covering every task at least once,
    /// and success implying a full set of completed reducers.
    #[test]
    fn any_fault_plan_yields_consistent_report(
        kind in arb_workload(),
        mode in arb_mode(),
        gb in 5u64..30,
        reduces in 1u32..16,
        faults in proptest::collection::vec(arb_fault(16), 0..3),
    ) {
        let faults: Vec<Fault> = faults
            .into_iter()
            .map(|f| match f {
                Fault::KillTask { task, attempt_number, at_progress } if task.is_reduce() => Fault::KillTask {
                    task: TaskId::reduce(task.job, task.index % reduces),
                    attempt_number,
                    at_progress,
                },
                Fault::CrashNodeAtReduceProgress { node, reduce_index, at_progress } =>
                    Fault::CrashNodeAtReduceProgress { node, reduce_index: reduce_index % reduces, at_progress },
                other => other,
            })
            .collect();
        let crash_count = faults
            .iter()
            .filter(|f| matches!(f, Fault::CrashNodeAtMs { .. } | Fault::CrashNodeAtReduceProgress { .. }))
            .count();
        let spec = SimJobSpec::new(kind, gb * GB, reduces, 7);
        let report = Simulation::new(spec, ExperimentEnv::paper(mode), FaultPlan { faults }).run();

        // Termination with a bounded event count (no livelock).
        prop_assert!(report.events < 10_000_000, "event explosion: {}", report.events);

        // The trace is time-ordered and its failures fall within the run.
        let run = &report.run;
        prop_assert_eq!(run.trace.check(), Ok(()));
        for f in run.trace.failures() {
            prop_assert!(f.at_ns <= run.job_ns);
        }

        // Progress samples stay in [0, 1].
        for samples in run.progress.values() {
            for &(t, p) in samples {
                prop_assert!((0.0..=1.0).contains(&p));
                prop_assert!(t <= run.job_ns);
            }
        }

        // Attempt accounting: at least one attempt per task.
        prop_assert!(run.trace.launches(TaskKind::Reduce) >= reduces);

        // Crashing at most 2 of 20 nodes must never sink the job.
        if crash_count <= 2 {
            prop_assert!(run.succeeded, "job failed: {:?}", run.trace);
            for r in 0..reduces {
                let samples = run.progress.get(&r).expect("sampled");
                prop_assert!(samples.last().unwrap().1 >= 1.0 - 1e-9, "reduce {r} unfinished");
            }
        }
    }

    /// SFM modes never let a reducer die of fetch failures — the defining
    /// anti-amplification guarantee — under any single node crash.
    #[test]
    fn sfm_never_amplifies_under_single_crash(
        node in 0u32..20,
        at in prop_oneof![
            (1_000u64..200_000).prop_map(|ms| (true, ms, 0.0)),
            (0.05f64..0.95).prop_map(|p| (false, 0, p)),
        ],
        mode in prop_oneof![Just(RecoveryMode::Sfm), Just(RecoveryMode::SfmAlg)],
    ) {
        let fault = match at {
            (true, ms, _) => FaultPlan::crash_node_at_ms(NodeId(node), ms),
            (false, _, p) => FaultPlan::crash_node_at_reduce_progress(NodeId(node), 0, p),
        };
        let spec = SimJobSpec::new(WorkloadKind::Terasort, 20 * GB, 8, 3);
        let run = Simulation::new(spec, ExperimentEnv::paper(mode), fault).run().run;
        prop_assert!(run.succeeded, "{:?}", run.trace);
        let fetch_deaths = run.trace.failures().filter(|f| f.kind == FailureKind::FetchFailureLimit).count();
        prop_assert_eq!(fetch_deaths, 0, "SFM must prevent fetch-failure preemption: {:?}", run.trace);
    }
}
