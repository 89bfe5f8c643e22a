//! Chain engine over the threaded mini-YARN runtime — real bytes end to
//! end.
//!
//! Unlike the sim adapter, one [`MiniCluster`] persists across the whole
//! chain: MOFs admitted into the [`ResidentStore`] by iteration *k*'s
//! shuffle survive into iteration *k+1*, crashed nodes stay dead, and the
//! store is installed into the cluster so `try_fetch` consults it before
//! any disk path and `crash_node` invalidates it. Each iteration runs as a
//! real job (fresh sequential [`JobId`] so MOF registrations and DFS
//! output paths never collide, including lineage replays); the next state
//! is folded from the committed reduce outputs read back off the DFS.
//!
//! Durability under [`MemMode::AlgFcm`] is a real DFS write per
//! generation — the ALG checkpoint of the chain state — while
//! [`MemMode::LineageReplay`] persists nothing and must re-execute on
//! loss.

use crate::chain::{ChainEngine, EngineRun, IterativeSpec};
use crate::store::ResidentStore;
use alm_runtime::am::run_job;
use alm_runtime::{FaultPlan, JobDef, MiniCluster, ResidentCache};
use alm_types::{AlmConfig, JobId, MemMode, NodeId, ReplicationLevel};
use alm_workloads::{Record, Workload};
use bytes::Bytes;
use std::sync::Arc;

/// Threaded chain engine: one persistent mini-cluster, real shuffle bytes,
/// resident MOF cache wired into the fetch path.
pub struct RuntimeChainEngine {
    cluster: Arc<MiniCluster>,
    num_reduces: u32,
    seed: u64,
    mode: MemMode,
    store: Arc<ResidentStore>,
    /// Next engine job id; every run (including replays) gets a fresh one.
    next_job: u32,
}

impl RuntimeChainEngine {
    pub fn new(nodes: u32, spec: &IterativeSpec) -> RuntimeChainEngine {
        let cluster = Arc::new(MiniCluster::for_tests(nodes));
        let store = ResidentStore::shared(spec.mem.mem_resident_capacity_bytes);
        cluster.set_resident(Some(store.clone() as Arc<dyn ResidentCache>));
        RuntimeChainEngine {
            cluster,
            num_reduces: spec.num_reduces,
            seed: spec.seed,
            mode: spec.mem.mem_mode,
            store,
            next_job: 0,
        }
    }

    pub fn cluster(&self) -> &Arc<MiniCluster> {
        &self.cluster
    }

    /// DFS path of the chain's ALG state checkpoint for `generation`.
    fn checkpoint_path(generation: u32) -> String {
        format!("/memchain/state-{generation:05}")
    }

    /// Read a job's committed reduce outputs back off the DFS.
    fn committed_outputs(&self, job: &JobDef) -> Vec<Record> {
        let mut out = Vec::new();
        for r in 0..job.num_reduces {
            let Ok(data) = self.cluster.dfs.read(&job.output_path(r)) else { continue };
            let mut off = 0usize;
            while let Ok(Some((key, value, next))) = alm_shuffle::codec::decode_at(&data, off) {
                out.push(Record::new(key.to_vec(), value.to_vec()));
                off = next;
            }
        }
        out
    }
}

impl ChainEngine for RuntimeChainEngine {
    fn run_iteration(
        &mut self,
        iteration: u32,
        workload: &Arc<dyn Workload>,
        num_maps: u32,
        crash: Option<u32>,
    ) -> EngineRun {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let mut alm = AlmConfig::with_mode(self.mode.recovery_mode());
        alm.logging_interval_ms = 1;
        // Input seed depends on the chain iteration, not the job id, so a
        // lineage replay of iteration i regenerates identical input.
        let seed = self.seed ^ u64::from(iteration);
        let job = JobDef::new(id, workload.clone(), num_maps, self.num_reduces, seed, alm);
        let plan = match crash {
            Some(node) => FaultPlan::crash_node_at_reduce_progress(NodeId(node), 0, 0.5),
            None => FaultPlan::none(),
        };
        let run = run_job(self.cluster.clone(), job.clone(), plan).run;
        EngineRun { run, outputs: self.committed_outputs(&job) }
    }

    fn mark_dead(&mut self, node: u32) {
        // The fault plan already crashed the node mid-job (which wiped its
        // resident entries via the cluster hook); this only covers
        // chain-level kills outside a run.
        let id = NodeId(node);
        if self.cluster.node(id).is_alive() {
            self.cluster.crash_node(id);
        }
    }

    fn alive_nodes(&self) -> Vec<u32> {
        self.cluster.alive_nodes().into_iter().map(|n| n.0).collect()
    }

    fn store(&self) -> &Arc<ResidentStore> {
        &self.store
    }

    fn save_durable(&mut self, generation: u32, bytes: &[u8]) {
        match self.mode {
            // M3R-style lineage mode: RAM is the only copy.
            MemMode::LineageReplay => {}
            // ALG+FCM: checkpoint the generation to the DFS at the same
            // replication level ALG uses for reduce-side logs.
            MemMode::AlgFcm => {
                let writer = self.alive_nodes().first().map_or(NodeId(0), |&n| NodeId(n));
                let _ = self.cluster.dfs.write(
                    &Self::checkpoint_path(generation),
                    Bytes::from(bytes.to_vec()),
                    writer,
                    ReplicationLevel::Rack,
                );
            }
        }
    }

    fn load_durable(&self, generation: u32) -> Option<Vec<u8>> {
        self.cluster.dfs.read(&Self::checkpoint_path(generation)).ok().map(|b| b.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{run_chain, CrashPlan};
    use alm_types::MemConfig;
    use alm_workloads::reference::{canonicalize, reference_output};
    use alm_workloads::Pagerank;

    fn spec(mode: MemMode) -> IterativeSpec {
        let mut mem = MemConfig::scaled_for_tests();
        mem.mem_mode = mode;
        mem.mem_max_chain_iterations = 3;
        mem.mem_convergence_epsilon_micro = 1;
        IterativeSpec { workload: Arc::new(Pagerank::small()), num_reduces: 3, seed: 42, mem }
    }

    #[test]
    fn runtime_chain_matches_reference_evaluation() {
        let s = spec(MemMode::AlgFcm);
        let mut engine = RuntimeChainEngine::new(5, &s);
        let report = run_chain(&mut engine, &s, None);
        assert_eq!(report.iterations_completed, 3);
        assert!(report.runs.iter().all(|r| r.run.succeeded));
        // Evolve the same chain through the reference executor.
        let mut state = s.workload.initial_state();
        for i in 0..3u32 {
            let w = s.workload.instantiate(&state);
            let parts = reference_output(w.as_ref(), s.workload.num_maps(), s.num_reduces, 42 ^ u64::from(i));
            state = s.workload.fold(&state, &canonicalize(&parts));
        }
        assert_eq!(report.final_state, state, "real bytes agree with the reference executor");
    }

    #[test]
    fn shuffle_serves_resident_state_hits() {
        let s = spec(MemMode::AlgFcm);
        let mut engine = RuntimeChainEngine::new(5, &s);
        let report = run_chain(&mut engine, &s, None);
        // The chain itself hits the store when reloading state stripes.
        assert!(report.store.hits > 0);
        assert_eq!(report.store.invalidated, 0, "no crash, no invalidation");
    }

    #[test]
    fn mid_chain_crash_recovers_per_mode() {
        let crash = Some(CrashPlan { node: 1, iteration: 1 });
        let s_lineage = spec(MemMode::LineageReplay);
        let s_alg = spec(MemMode::AlgFcm);
        let mut e_lineage = RuntimeChainEngine::new(5, &s_lineage);
        let mut e_alg = RuntimeChainEngine::new(5, &s_alg);
        let r_lineage = run_chain(&mut e_lineage, &s_lineage, crash);
        let r_alg = run_chain(&mut e_alg, &s_alg, crash);
        assert!(r_lineage.runs.iter().all(|r| r.run.succeeded));
        assert!(r_alg.runs.iter().all(|r| r.run.succeeded));
        assert_eq!(r_lineage.final_state, r_alg.final_state);
        assert!(
            r_lineage.iterations_lost > r_alg.iterations_lost,
            "lineage {} vs alg+fcm {}",
            r_lineage.iterations_lost,
            r_alg.iterations_lost
        );
        assert!(r_alg.durable_restores >= 1);
        assert!(r_lineage.store.invalidated > 0, "crash wiped resident entries");
    }
}
