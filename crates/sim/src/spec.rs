//! Experiment inputs.

use alm_types::{AlmConfig, ClusterSpec, FaultPlan, RecoveryMode, YarnConfig};
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

/// Uninhabited stand-in for the simulator's retired second fault
/// vocabulary: [`crate::Simulation::new`] arms a [`FaultPlan`] directly.
/// It exists only because the frozen `benchmark/` harness still calls its
/// `lower_plan`, and goes with the benchmark's next revision (ROADMAP,
/// "Benchmark revision 2"). No workspace code may call it.
pub enum SimFault {}

impl SimFault {
    /// The plan unchanged: the simulator consumes [`FaultPlan`] as is.
    pub fn lower_plan(plan: &FaultPlan) -> FaultPlan {
        plan.clone()
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
}
