//! Chain engine over the discrete-event simulator.
//!
//! The simulator is analytic — it costs phases, it does not move bytes —
//! so this adapter splits each iteration in two, the same twin structure
//! `alm-chaos` uses for differential checks:
//!
//! * **timing/failures** come from a full [`Simulation`] run at paper
//!   scale with `with_resident_mofs()` (resident shuffle hits skip the
//!   source-disk stage) and the chain's dead nodes re-injected as
//!   crash-at-zero faults (the sim builds a fresh cluster per job; the
//!   chain's cluster persists);
//! * **state bytes** come from the reference executor over the
//!   instantiated workload — the trivially-correct in-process evaluation
//!   both engines must agree with.
//!
//! Durability under [`MemMode::AlgFcm`] is modeled as an in-engine ALG
//! checkpoint map (the analytic stand-in for the runtime adapter's real
//! DFS write); [`MemMode::LineageReplay`] persists nothing — that is the
//! M3R-style baseline being measured.

use crate::chain::{ChainEngine, EngineRun, IterativeSpec};
use crate::store::ResidentStore;
use alm_runtime::ResidentCache;
use alm_sim::{ExperimentEnv, SimJobSpec, Simulation};
use alm_types::{FaultPlan, MemMode, NodeId};
use alm_workloads::reference::reference_output;
use alm_workloads::{Workload, WorkloadKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Analytic chain engine: paper-scale timing, reference-executor bytes.
pub struct SimChainEngine {
    kind: WorkloadKind,
    input_bytes: u64,
    num_reduces: u32,
    seed: u64,
    mode: MemMode,
    env: ExperimentEnv,
    store: Arc<ResidentStore>,
    dead: BTreeSet<u32>,
    /// Modeled ALG checkpoint log: generation -> encoded state.
    alg_log: BTreeMap<u32, Vec<u8>>,
}

impl SimChainEngine {
    /// Engine for `spec`, costing each iteration as a `kind` job over
    /// `input_bytes` on the paper testbed.
    pub fn new(kind: WorkloadKind, input_bytes: u64, spec: &IterativeSpec) -> SimChainEngine {
        let mode = spec.mem.mem_mode;
        SimChainEngine {
            kind,
            input_bytes,
            num_reduces: spec.num_reduces,
            seed: spec.seed,
            mode,
            env: ExperimentEnv::paper(mode.recovery_mode()),
            store: ResidentStore::shared(spec.mem.mem_resident_capacity_bytes),
            dead: BTreeSet::new(),
            alg_log: BTreeMap::new(),
        }
    }

    /// Paper-scale engine: 10 GB per iteration, the scale the iterative
    /// workloads' `paper_input_gb` declares.
    pub fn paper(kind: WorkloadKind, spec: &IterativeSpec) -> SimChainEngine {
        const GB: u64 = 1 << 30;
        SimChainEngine::new(kind, 10 * GB, spec)
    }
}

impl ChainEngine for SimChainEngine {
    fn run_iteration(
        &mut self,
        iteration: u32,
        workload: &Arc<dyn Workload>,
        num_maps: u32,
        crash: Option<u32>,
    ) -> EngineRun {
        // The chain's cluster outlives any one sim run: nodes that died in
        // earlier iterations start this job dead.
        let mut faults = self
            .dead
            .iter()
            .fold(FaultPlan::none(), |p, &node| p.and(FaultPlan::crash_node_at_ms(NodeId(node), 0)));
        if let Some(node) = crash {
            faults = faults.and(FaultPlan::crash_node_at_reduce_progress(NodeId(node), 0, 0.5));
        }
        let seed = self.seed ^ u64::from(iteration);
        let job = SimJobSpec::new(self.kind, self.input_bytes, self.num_reduces, seed);
        let report = Simulation::new(job, self.env.clone(), faults).with_resident_mofs().run();
        let outputs = reference_output(workload.as_ref(), num_maps, self.num_reduces, seed)
            .into_iter()
            .flatten()
            .collect();
        EngineRun {
            job_secs: report.job_secs,
            failures: report.failures.len() as u32,
            resident_hits: report.resident_fetch_hits,
            succeeded: report.succeeded,
            outputs,
        }
    }

    fn mark_dead(&mut self, node: u32) {
        if self.dead.insert(node) {
            self.store.invalidate_node(NodeId(node));
        }
    }

    fn alive_nodes(&self) -> Vec<u32> {
        (0..self.env.cluster.nodes).filter(|n| !self.dead.contains(n)).collect()
    }

    fn store(&self) -> &Arc<ResidentStore> {
        &self.store
    }

    fn save_durable(&mut self, generation: u32, bytes: &[u8]) {
        match self.mode {
            // M3R-style lineage mode keeps nothing durable — losing RAM
            // means losing the iteration history.
            MemMode::LineageReplay => {}
            // ALG+FCM checkpoints every generation into the analytics log.
            MemMode::AlgFcm => {
                self.alg_log.insert(generation, bytes.to_vec());
            }
        }
    }

    fn load_durable(&self, generation: u32) -> Option<Vec<u8>> {
        self.alg_log.get(&generation).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{run_chain, CrashPlan};
    use alm_types::MemConfig;
    use alm_workloads::{KMeans, Pagerank};

    fn spec(mode: MemMode) -> IterativeSpec {
        let mut mem = MemConfig::scaled_for_tests();
        mem.mem_mode = mode;
        mem.mem_max_chain_iterations = 4;
        mem.mem_convergence_epsilon_micro = 1;
        IterativeSpec { workload: Arc::new(Pagerank::small()), num_reduces: 3, seed: 42, mem }
    }

    #[test]
    fn sim_chain_is_deterministic_per_mode() {
        for mode in [MemMode::LineageReplay, MemMode::AlgFcm] {
            let s = spec(mode);
            let mut e1 = SimChainEngine::paper(WorkloadKind::Pagerank, &s);
            let mut e2 = SimChainEngine::paper(WorkloadKind::Pagerank, &s);
            let crash = Some(CrashPlan { node: 1, iteration: 1 });
            let r1 = run_chain(&mut e1, &s, crash);
            let r2 = run_chain(&mut e2, &s, crash);
            assert_eq!(r1, r2, "identical seeds must replay identically under {mode}");
        }
    }

    #[test]
    fn crash_loses_more_under_lineage_than_alg_fcm() {
        let crash = Some(CrashPlan { node: 1, iteration: 2 });
        let s_lineage = spec(MemMode::LineageReplay);
        let s_alg = spec(MemMode::AlgFcm);
        let mut e_lineage = SimChainEngine::paper(WorkloadKind::Pagerank, &s_lineage);
        let mut e_alg = SimChainEngine::paper(WorkloadKind::Pagerank, &s_alg);
        let r_lineage = run_chain(&mut e_lineage, &s_lineage, crash);
        let r_alg = run_chain(&mut e_alg, &s_alg, crash);
        assert!(
            r_lineage.iterations_lost > r_alg.iterations_lost,
            "lineage {} vs alg+fcm {}",
            r_lineage.iterations_lost,
            r_alg.iterations_lost
        );
        assert_eq!(r_lineage.final_state, r_alg.final_state, "modes agree on the math");
        assert!(r_lineage.total_job_secs() > r_alg.total_job_secs(), "replayed iterations cost sim time");
    }

    #[test]
    fn kmeans_chain_runs_on_the_sim_engine() {
        let mut mem = MemConfig::scaled_for_tests();
        mem.mem_max_chain_iterations = 3;
        mem.mem_convergence_epsilon_micro = 1;
        let s = IterativeSpec { workload: Arc::new(KMeans::small()), num_reduces: 2, seed: 7, mem };
        let mut engine = SimChainEngine::paper(WorkloadKind::KMeans, &s);
        let report = run_chain(&mut engine, &s, None);
        assert_eq!(report.iterations_completed, 3);
        assert_eq!(report.iterations_lost, 0);
        assert!(report.runs.iter().all(|r| r.succeeded));
        assert!(report.store.hits > 0, "state stripes reload from RAM each iteration");
    }
}
