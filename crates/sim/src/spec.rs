//! Experiment inputs.

use alm_types::{
    AlmConfig, ClusterSpec, CorruptTarget, Fault, FaultPlan, LinkDirection, RecoveryMode, YarnConfig,
};
use alm_workloads::WorkloadKind;
use serde::Serialize;

/// The job to simulate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimJobSpec {
    pub workload: WorkloadKind,
    pub input_bytes: u64,
    pub num_reduces: u32,
    pub seed: u64,
}

impl SimJobSpec {
    pub fn new(workload: WorkloadKind, input_bytes: u64, num_reduces: u32, seed: u64) -> SimJobSpec {
        SimJobSpec { workload, input_bytes, num_reduces, seed }
    }

    /// The paper's §V-B instance of this workload (Terasort 100 GB /
    /// Wordcount 10 GB with 1 reducer / Secondarysort 10 GB); the
    /// iterative kinds model one 10 GB chain step at Terasort-like widths.
    pub fn paper(workload: WorkloadKind, seed: u64) -> SimJobSpec {
        let gb = alm_types::units::GB;
        match workload {
            WorkloadKind::Terasort => SimJobSpec::new(workload, 100 * gb, 20, seed),
            WorkloadKind::Wordcount => SimJobSpec::new(workload, 10 * gb, 1, seed),
            WorkloadKind::SecondarySort => SimJobSpec::new(workload, 10 * gb, 8, seed),
            WorkloadKind::Pagerank => SimJobSpec::new(workload, 10 * gb, 20, seed),
            WorkloadKind::KMeans => SimJobSpec::new(workload, 10 * gb, 8, seed),
        }
    }
}

/// A fault to inject, in virtual time or at a progress trigger.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SimFault {
    /// Fail attempt 0 of the given reduce task with an injected OOM once
    /// its overall progress reaches the fraction.
    KillReduceAtProgress { reduce_index: u32, at_progress: f64 },
    /// Fail attempt 0 of the given map task at a fraction of its work.
    KillMapAtProgress { map_index: u32, at_progress: f64 },
    /// Crash a node at an absolute virtual time.
    CrashNodeAtSecs { node: u32, at_secs: f64 },
    /// Crash a node once the given reduce task's reduce-phase progress
    /// reaches the fraction (how §V places node failures).
    CrashNodeAtReduceProgress { node: u32, reduce_index: u32, at_progress: f64 },
    /// Degrade a node's compute speed by `factor` (>= 1) from `at_secs` on;
    /// the node keeps heartbeating (faulty-but-alive slow node, §IV-B).
    /// Applies to CPU phases started after activation.
    SlowNodeAtSecs { node: u32, at_secs: f64, factor: f64 },
    /// Sever the data-plane link between two (alive, heartbeating) nodes
    /// from `from_secs` until `heal_secs`, in the given direction(s). Fetch
    /// admission across a severed direction parks instead of burning retry
    /// budget — the transient-fault half of §II-C's amplification story. An
    /// asymmetric direction leaves the reverse path (and heartbeats) healthy.
    PartitionLinkAtSecs { a: u32, b: u32, direction: LinkDirection, from_secs: f64, heal_secs: f64 },
    /// Gray-degrade the link between two alive nodes from `from_secs` until
    /// `heal_secs`: fetch transfers crossing a degraded direction are
    /// stretched by `factor` and each completion is dropped (and
    /// transparently re-fetched, never charged to the retry budget) with
    /// probability `loss`.
    DegradedLinkAtSecs {
        a: u32,
        b: u32,
        direction: LinkDirection,
        from_secs: f64,
        heal_secs: f64,
        factor: f64,
        loss: f64,
    },
    /// Rot one durable artifact at `at_secs` (checksummed recovery path).
    CorruptDataAtSecs { node: u32, target: CorruptTarget, at_secs: f64 },
}

impl SimFault {
    /// Lower one engine-neutral [`Fault`] onto this engine's trigger
    /// vocabulary. Map/reduce kills split by task kind; absolute
    /// millisecond triggers become virtual seconds. Kills of attempts
    /// other than 0 have no simulator equivalent (the simulator's kill
    /// triggers fire once, on the first attempt) and lower to nothing. A
    /// flapping partition expands into one sever→heal window per cycle via
    /// the *shared* `FaultPlan::partition_windows` expansion, so the two
    /// engines' timelines cannot drift.
    pub fn lower(fault: &Fault) -> Vec<SimFault> {
        match fault {
            Fault::KillTask { task, attempt_number: 0, at_progress } => vec![if task.is_reduce() {
                SimFault::KillReduceAtProgress { reduce_index: task.index, at_progress: *at_progress }
            } else {
                SimFault::KillMapAtProgress { map_index: task.index, at_progress: *at_progress }
            }],
            Fault::KillTask { .. } => vec![],
            Fault::CrashNodeAtMs { node, at_ms } => {
                vec![SimFault::CrashNodeAtSecs { node: node.0, at_secs: *at_ms as f64 / 1000.0 }]
            }
            Fault::CrashNodeAtReduceProgress { node, reduce_index, at_progress } => {
                vec![SimFault::CrashNodeAtReduceProgress {
                    node: node.0,
                    reduce_index: *reduce_index,
                    at_progress: *at_progress,
                }]
            }
            Fault::SlowNode { node, at_ms, factor } => vec![SimFault::SlowNodeAtSecs {
                node: node.0,
                at_secs: *at_ms as f64 / 1000.0,
                factor: *factor,
            }],
            Fault::PartitionLink { .. } => FaultPlan { faults: vec![fault.clone()] }
                .partition_windows()
                .into_iter()
                .map(|w| SimFault::PartitionLinkAtSecs {
                    a: w.a.0,
                    b: w.b.0,
                    direction: w.direction,
                    from_secs: w.from_ms as f64 / 1000.0,
                    heal_secs: w.heal_ms.max(w.from_ms) as f64 / 1000.0,
                })
                .collect(),
            Fault::DegradedLink { a, b, direction, from_ms, heal_ms, factor, loss } => {
                vec![SimFault::DegradedLinkAtSecs {
                    a: a.0,
                    b: b.0,
                    direction: *direction,
                    from_secs: *from_ms as f64 / 1000.0,
                    heal_secs: *heal_ms as f64 / 1000.0,
                    factor: *factor,
                    loss: *loss,
                }]
            }
            Fault::CorruptData { node, target, at_ms } => vec![SimFault::CorruptDataAtSecs {
                node: node.0,
                target: *target,
                at_secs: *at_ms as f64 / 1000.0,
            }],
        }
    }

    /// Lower a whole shared [`FaultPlan`] (dropping faults with no
    /// simulator equivalent and expanding flap schedules — see
    /// [`SimFault::lower`]).
    pub fn lower_plan(plan: &FaultPlan) -> Vec<SimFault> {
        plan.faults.iter().flat_map(SimFault::lower).collect()
    }
}

/// The full environment of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentEnv {
    pub cluster: ClusterSpec,
    pub yarn: YarnConfig,
    pub alm: AlmConfig,
}

impl ExperimentEnv {
    /// Paper testbed + Table I + a recovery mode.
    pub fn paper(mode: RecoveryMode) -> ExperimentEnv {
        ExperimentEnv {
            cluster: ClusterSpec::default(),
            yarn: YarnConfig::default(),
            alm: AlmConfig::with_mode(mode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs() {
        let t = SimJobSpec::paper(WorkloadKind::Terasort, 1);
        assert_eq!(t.num_reduces, 20, "Table II / Fig. 4 use 20 reducers");
        let w = SimJobSpec::paper(WorkloadKind::Wordcount, 1);
        assert_eq!(w.num_reduces, 1, "Figs. 3/10 use a single reducer");
    }

    #[test]
    fn env_modes() {
        let e = ExperimentEnv::paper(RecoveryMode::Baseline);
        assert_eq!(e.cluster.nodes, 21);
        assert!(!e.alm.mode.sfm_enabled());
    }

    #[test]
    fn lowering_the_shared_plan() {
        use alm_types::{JobId, NodeId, TaskId};
        let job = JobId(0);
        let plan = FaultPlan::kill_task(TaskId::reduce(job, 3), 0.8)
            .and(FaultPlan::kill_task(TaskId::map(job, 1), 0.5))
            .and(FaultPlan::crash_node_at_ms(NodeId(2), 30_000))
            .and(FaultPlan::crash_node_at_reduce_progress(NodeId(4), 0, 0.3))
            .and(FaultPlan::slow_node(NodeId(5), 10_000, 2.0))
            .and(FaultPlan::partition_link(NodeId(0), NodeId(6), 5_000, 45_000))
            .and(FaultPlan::degraded_link(NodeId(2), NodeId(3), LinkDirection::AToB, 8_000, 20_000, 3.0, 0.1))
            .and(FaultPlan::corrupt_data(
                NodeId(1),
                CorruptTarget::MofPartition { map_index: 2, partition: 7 },
                12_000,
            ));
        let lowered = SimFault::lower_plan(&plan);
        assert_eq!(
            lowered,
            vec![
                SimFault::KillReduceAtProgress { reduce_index: 3, at_progress: 0.8 },
                SimFault::KillMapAtProgress { map_index: 1, at_progress: 0.5 },
                SimFault::CrashNodeAtSecs { node: 2, at_secs: 30.0 },
                SimFault::CrashNodeAtReduceProgress { node: 4, reduce_index: 0, at_progress: 0.3 },
                SimFault::SlowNodeAtSecs { node: 5, at_secs: 10.0, factor: 2.0 },
                SimFault::PartitionLinkAtSecs {
                    a: 0,
                    b: 6,
                    direction: LinkDirection::Both,
                    from_secs: 5.0,
                    heal_secs: 45.0,
                },
                SimFault::DegradedLinkAtSecs {
                    a: 2,
                    b: 3,
                    direction: LinkDirection::AToB,
                    from_secs: 8.0,
                    heal_secs: 20.0,
                    factor: 3.0,
                    loss: 0.1,
                },
                SimFault::CorruptDataAtSecs {
                    node: 1,
                    target: CorruptTarget::MofPartition { map_index: 2, partition: 7 },
                    at_secs: 12.0,
                },
            ]
        );
    }

    #[test]
    fn later_attempt_kills_have_no_sim_equivalent() {
        use alm_types::{JobId, TaskId};
        let f = Fault::KillTask { task: TaskId::reduce(JobId(0), 0), attempt_number: 1, at_progress: 0.5 };
        assert_eq!(SimFault::lower(&f), vec![]);
    }

    #[test]
    fn flapping_partition_lowers_to_one_window_per_cycle() {
        use alm_types::{FlapSchedule, NodeId};
        let flap = FlapSchedule { seed: 9, cycles: 3, period_ms: 20_000, down_ms: 10_000 };
        let plan = FaultPlan::flapping_link(NodeId(1), NodeId(4), LinkDirection::BToA, 5_000, flap);
        let lowered = SimFault::lower_plan(&plan);
        let windows = plan.partition_windows();
        assert_eq!(lowered.len(), 3, "one sim window per flap cycle");
        for (f, w) in lowered.iter().zip(&windows) {
            match f {
                SimFault::PartitionLinkAtSecs { a, b, direction, from_secs, heal_secs } => {
                    assert_eq!((*a, *b), (1, 4));
                    assert_eq!(*direction, LinkDirection::BToA);
                    assert!((from_secs * 1000.0 - w.from_ms as f64).abs() < 1e-6);
                    assert!((heal_secs * 1000.0 - w.heal_ms as f64).abs() < 1e-6);
                }
                other => panic!("unexpected lowering: {other:?}"),
            }
        }
    }
}
