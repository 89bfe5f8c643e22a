//! Partition-stable job chains: the iterative driver that keeps reduce
//! state memory-resident between jobs.
//!
//! A chain runs an [`IterativeWorkload`] to convergence (or a fixed
//! iteration budget) as a sequence of MapReduce jobs on one engine. The
//! discipline that makes the chain honest is that **the driver holds no
//! inter-iteration state in its own variables**: after each job it folds
//! the next state from (a) the job's reduce outputs and (b) the *resident*
//! copy of the previous state, re-read from the [`ResidentStore`]. State is
//! striped across reduce partitions and each stripe lives on its
//! partition-stable home node — so a node crash genuinely loses that
//! node's stripes, and what happens next is exactly the design split this
//! subsystem exists to measure ([`MemMode`]):
//!
//! * **Lineage replay** (M3R-style): nothing durable exists; the chain
//!   re-executes every completed iteration from the initial state to
//!   reconstruct the lost stripes. `iterations_lost` counts those re-runs —
//!   the RAM-resident form of the paper's failure amplification.
//! * **ALG + FCM**: each generation is also persisted as an analytics-log
//!   checkpoint; recovery is a single durable restore (`iterations_lost`
//!   stays 0) and the in-flight job recovers in-job via SFM+ALG.
//!
//! The engine behind the chain is abstracted as [`ChainEngine`] with two
//! implementations: [`crate::sim_chain::SimChainEngine`] (analytic timing
//! at paper scale) and [`crate::runtime_chain::RuntimeChainEngine`] (real
//! bytes on the threaded mini-YARN). Both produce byte-identical state
//! trajectories for the same spec, which the differential tests assert.

use crate::store::{ResidentStore, StoreStats};
use alm_types::{JobId, MemConfig, MemMode, NodeId, RunReport};
use alm_workloads::{decode_state, encode_state, state_delta_micro, IterativeWorkload, Record, Workload};
use serde::Serialize;
use std::sync::Arc;

/// Job-id namespace for chain state stripes in the resident store. Real
/// engine jobs use small sequential ids; state generations use this
/// sentinel with `map_index = generation`, `partition = stripe`.
pub const STATE_JOB: JobId = JobId(u32::MAX);

/// One iterative computation to run as a chain.
pub struct IterativeSpec {
    pub workload: Arc<dyn IterativeWorkload>,
    pub num_reduces: u32,
    /// Input-generation seed; each iteration derives `seed ^ iteration` so
    /// replayed iterations regenerate byte-identical inputs.
    pub seed: u64,
    pub mem: MemConfig,
}

/// Crash `node` while iteration `iteration`'s job is in flight (at reduce 0,
/// 50% progress). The node stays dead for the rest of the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct CrashPlan {
    pub node: u32,
    pub iteration: u32,
}

/// What one engine job run reported back to the chain.
pub struct EngineRun {
    pub run: RunReport,
    /// The job's reduce outputs (all partitions, flattened) — the bytes the
    /// chain folds into the next state generation.
    pub outputs: Vec<Record>,
}

/// One engine job run in the chain's history, including lineage replays.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct IterationOutcome {
    pub iteration: u32,
    /// True if this run re-executed an already-completed iteration to
    /// reconstruct lost resident state.
    pub replay: bool,
    pub run: RunReport,
}

/// Full account of a chain run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ChainReport {
    pub mode: MemMode,
    /// Every engine job run, in execution order (replays interleaved).
    pub runs: Vec<IterationOutcome>,
    /// Distinct chain iterations folded (excluding replays).
    pub iterations_completed: u32,
    /// Completed iterations that had to be re-executed after state loss —
    /// the chain-level amplification metric.
    pub iterations_lost: u32,
    /// Recoveries served from the durable ALG checkpoint instead.
    pub durable_restores: u32,
    /// Generation at which the state delta dropped under the epsilon, if
    /// the chain converged before the iteration budget.
    pub converged_at: Option<u32>,
    pub final_state: Vec<u64>,
    pub store: StoreStats,
}

impl ChainReport {
    /// Total engine time across all runs, replays included.
    pub fn total_job_secs(&self) -> f64 {
        self.runs.iter().map(|r| r.run.job_secs()).sum()
    }

    /// Engine runs that were lineage replays.
    pub fn replay_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.replay).count()
    }
}

/// The engine half of a chain: runs one iteration as a full MapReduce job
/// and owns the engine-side residency and durability plumbing.
pub trait ChainEngine {
    /// Execute iteration `iteration`'s job over `workload` (already
    /// instantiated with the current state). `crash` injects a mid-job
    /// node crash; the engine must keep that node dead for later runs.
    fn run_iteration(
        &mut self,
        iteration: u32,
        workload: &Arc<dyn Workload>,
        num_maps: u32,
        crash: Option<u32>,
    ) -> EngineRun;

    /// Record a node death decided outside a run (chain-level bookkeeping;
    /// engines also invalidate the node's resident entries here if their
    /// crash path did not already).
    fn mark_dead(&mut self, node: u32);

    /// Nodes currently able to host resident stripes.
    fn alive_nodes(&self) -> Vec<u32>;

    /// The resident store shared with this engine's fetch path.
    fn store(&self) -> &Arc<ResidentStore>;

    /// Persist generation `generation`'s encoded state durably — a no-op
    /// in lineage mode, an ALG checkpoint under ALG+FCM.
    fn save_durable(&mut self, generation: u32, bytes: &[u8]);

    /// Read back a durable generation, if one was persisted.
    fn load_durable(&self, generation: u32) -> Option<Vec<u8>>;
}

/// Contiguous stripe of the state vector owned by reduce partition `p`.
fn stripe_bounds(state_len: usize, p: u32, num_reduces: u32) -> (usize, usize) {
    let r = num_reduces.max(1) as usize;
    let p = p as usize;
    (state_len * p / r, state_len * (p + 1) / r)
}

/// Partition-stable home for stripe `p`: prefer node `p % N`, walking the
/// ring past dead nodes so a stripe re-homes deterministically after loss.
fn home_node(p: u32, alive: &[u32], total_nodes: u32) -> Option<u32> {
    if alive.is_empty() || total_nodes == 0 {
        return None;
    }
    let start = p % total_nodes;
    (0..total_nodes).map(|i| (start + i) % total_nodes).find(|n| alive.contains(n))
}

fn put_state<E: ChainEngine>(engine: &mut E, spec: &IterativeSpec, generation: u32, state: &[u64]) {
    let alive = engine.alive_nodes();
    let total = alive.iter().copied().max().map_or(0, |m| m + 1);
    // Only the newest generation — the hot set the next iteration is
    // guaranteed to read — stays pinned; older stripes become ordinary
    // reclaimable cache.
    engine.store().unpin_all();
    for p in 0..spec.num_reduces {
        let (lo, hi) = stripe_bounds(state.len(), p, spec.num_reduces);
        let Some(node) = home_node(p, &alive, total) else { continue };
        engine.store().put(NodeId(node), STATE_JOB, generation, p, &encode_state(&state[lo..hi]), true);
    }
}

fn load_state<E: ChainEngine>(engine: &E, spec: &IterativeSpec, generation: u32) -> Option<Vec<u64>> {
    let mut state = Vec::with_capacity(spec.workload.state_len());
    for p in 0..spec.num_reduces {
        let (_, bytes) = engine.store().get(STATE_JOB, generation, p)?;
        state.extend(decode_state(&bytes));
    }
    (state.len() == spec.workload.state_len()).then_some(state)
}

/// Reconstruct generation `generation`'s state after resident loss, per the
/// chain's [`MemMode`]: durable restore if a checkpoint exists, otherwise
/// lineage replay of the whole prefix. The recovered state is re-put into
/// residency so subsequent loads hit.
fn recover_state<E: ChainEngine>(
    engine: &mut E,
    spec: &IterativeSpec,
    generation: u32,
    report: &mut ChainReport,
) -> Vec<u64> {
    if let Some(bytes) = engine.load_durable(generation) {
        report.durable_restores += 1;
        let state = decode_state(&bytes);
        put_state(engine, spec, generation, &state);
        return state;
    }
    // No durable checkpoint (M3R-style lineage mode): re-execute the chain
    // prefix from the initial state. Each replay is a real engine job.
    let mut state = spec.workload.initial_state();
    for i in 0..generation {
        let w = spec.workload.instantiate(&state);
        let EngineRun { run, outputs } = engine.run_iteration(i, &w, spec.workload.num_maps(), None);
        report.runs.push(IterationOutcome { iteration: i, replay: true, run });
        state = spec.workload.fold(&state, &outputs);
        report.iterations_lost += 1;
    }
    put_state(engine, spec, generation, &state);
    state
}

/// Drive `spec` to convergence (or the iteration budget) on `engine`,
/// optionally crashing a node mid-chain.
pub fn run_chain<E: ChainEngine>(
    engine: &mut E,
    spec: &IterativeSpec,
    crash: Option<CrashPlan>,
) -> ChainReport {
    spec.mem.validate().expect("chain mem config");
    let mut report = ChainReport {
        mode: spec.mem.mem_mode,
        runs: Vec::new(),
        iterations_completed: 0,
        iterations_lost: 0,
        durable_restores: 0,
        converged_at: None,
        final_state: spec.workload.initial_state(),
        store: StoreStats::default(),
    };
    // Seed generation 0 into residency and (mode permitting) durability.
    let initial = spec.workload.initial_state();
    put_state(engine, spec, 0, &initial);
    engine.save_durable(0, &encode_state(&initial));

    let mut generation = 0u32;
    while generation < spec.mem.mem_max_chain_iterations {
        // Pre-run: the working state comes from residency, recovering if a
        // previous crash (or cache pressure) lost it.
        let state = match load_state(engine, spec, generation) {
            Some(s) => s,
            None => recover_state(engine, spec, generation, &mut report),
        };
        let workload = spec.workload.instantiate(&state);
        let crash_now = crash.filter(|c| c.iteration == generation).map(|c| c.node);
        let EngineRun { run, outputs } =
            engine.run_iteration(generation, &workload, spec.workload.num_maps(), crash_now);
        if let Some(node) = crash_now {
            engine.mark_dead(node);
        }
        report.runs.push(IterationOutcome { iteration: generation, replay: false, run });
        // Post-run: fold from the *resident* copy, not a chain variable —
        // if the crash wiped stripes of this generation, recovery happens
        // here and is charged to the mode.
        let base = match load_state(engine, spec, generation) {
            Some(s) => s,
            None => recover_state(engine, spec, generation, &mut report),
        };
        let next = spec.workload.fold(&base, &outputs);
        let delta = state_delta_micro(&base, &next);
        generation += 1;
        put_state(engine, spec, generation, &next);
        engine.save_durable(generation, &encode_state(&next));
        report.final_state = next;
        if delta <= spec.mem.mem_convergence_epsilon_micro {
            report.converged_at = Some(generation);
            break;
        }
    }
    report.iterations_completed = generation;
    report.store = engine.store().stats();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_runtime::ResidentCache;
    use alm_types::MemConfig;
    use alm_workloads::Pagerank;
    use std::collections::BTreeMap;

    /// In-process engine that evaluates jobs with the reference executor —
    /// exercises the chain protocol without either real engine.
    struct LocalEngine {
        store: Arc<ResidentStore>,
        mode: MemMode,
        durable: BTreeMap<u32, Vec<u8>>,
        dead: Vec<u32>,
        nodes: u32,
        num_reduces: u32,
        seed: u64,
    }

    impl LocalEngine {
        fn new(spec: &IterativeSpec, nodes: u32) -> LocalEngine {
            LocalEngine {
                store: ResidentStore::shared(spec.mem.mem_resident_capacity_bytes),
                mode: spec.mem.mem_mode,
                durable: BTreeMap::new(),
                dead: Vec::new(),
                nodes,
                num_reduces: spec.num_reduces,
                seed: spec.seed,
            }
        }
    }

    impl ChainEngine for LocalEngine {
        fn run_iteration(
            &mut self,
            iteration: u32,
            workload: &Arc<dyn Workload>,
            num_maps: u32,
            crash: Option<u32>,
        ) -> EngineRun {
            let outputs = alm_workloads::reference::reference_output(
                workload.as_ref(),
                num_maps,
                self.num_reduces,
                self.seed ^ u64::from(iteration),
            )
            .into_iter()
            .flatten()
            .collect();
            if let Some(n) = crash {
                self.dead.push(n);
                self.store.invalidate_node(NodeId(n));
            }
            let run = RunReport { succeeded: true, job_ns: 1_000_000_000, ..RunReport::default() };
            EngineRun { run, outputs }
        }

        fn mark_dead(&mut self, node: u32) {
            if !self.dead.contains(&node) {
                self.dead.push(node);
                self.store.invalidate_node(NodeId(node));
            }
        }

        fn alive_nodes(&self) -> Vec<u32> {
            (0..self.nodes).filter(|n| !self.dead.contains(n)).collect()
        }

        fn store(&self) -> &Arc<ResidentStore> {
            &self.store
        }

        fn save_durable(&mut self, generation: u32, bytes: &[u8]) {
            match self.mode {
                MemMode::LineageReplay => {}
                MemMode::AlgFcm => {
                    self.durable.insert(generation, bytes.to_vec());
                }
            }
        }

        fn load_durable(&self, generation: u32) -> Option<Vec<u8>> {
            self.durable.get(&generation).cloned()
        }
    }

    fn spec(mode: MemMode) -> IterativeSpec {
        let mut mem = MemConfig::scaled_for_tests();
        mem.mem_mode = mode;
        mem.mem_max_chain_iterations = 4;
        // Epsilon low enough that 4 iterations never converge — the tests
        // below want a fixed-length chain.
        mem.mem_convergence_epsilon_micro = 1;
        IterativeSpec { workload: Arc::new(Pagerank::small()), num_reduces: 3, seed: 42, mem }
    }

    #[test]
    fn fault_free_chain_completes_and_keeps_state_resident() {
        let s = spec(MemMode::AlgFcm);
        let mut engine = LocalEngine::new(&s, 5);
        let report = run_chain(&mut engine, &s, None);
        assert_eq!(report.iterations_completed, 4);
        assert_eq!(report.iterations_lost, 0);
        assert_eq!(report.durable_restores, 0);
        assert_eq!(report.runs.len(), 4, "no replays");
        assert_eq!(report.final_state.len(), 800);
        // Latest generation's stripes are resident.
        assert!(load_state(&engine, &s, 4).is_some());
    }

    #[test]
    fn stripes_and_homes_partition_the_state_stably() {
        assert_eq!(stripe_bounds(10, 0, 3), (0, 3));
        assert_eq!(stripe_bounds(10, 1, 3), (3, 6));
        assert_eq!(stripe_bounds(10, 2, 3), (6, 10));
        let alive = [0, 2, 3, 4];
        assert_eq!(home_node(0, &alive, 5), Some(0));
        assert_eq!(home_node(1, &alive, 5), Some(2), "dead node 1 re-homes to next live");
        assert_eq!(home_node(6, &alive, 5), Some(2), "ring wraps");
        assert_eq!(home_node(0, &[], 5), None);
    }

    #[test]
    fn crash_under_lineage_replay_reexecutes_the_prefix() {
        let s = spec(MemMode::LineageReplay);
        let mut engine = LocalEngine::new(&s, 3);
        // With 3 reduces on 3 nodes every node hosts a stripe; crashing
        // node 1 during iteration 2 must lose generation 2's stripe.
        let report = run_chain(&mut engine, &s, Some(CrashPlan { node: 1, iteration: 2 }));
        assert_eq!(report.iterations_completed, 4);
        assert_eq!(report.iterations_lost, 2, "iterations 0 and 1 re-ran");
        assert_eq!(report.durable_restores, 0);
        assert_eq!(report.replay_runs(), 2);
        assert_eq!(report.runs.len(), 6);
    }

    #[test]
    fn crash_under_alg_fcm_restores_durably_losing_nothing() {
        let s = spec(MemMode::AlgFcm);
        let mut engine = LocalEngine::new(&s, 3);
        let report = run_chain(&mut engine, &s, Some(CrashPlan { node: 1, iteration: 2 }));
        assert_eq!(report.iterations_completed, 4);
        assert_eq!(report.iterations_lost, 0, "ALG checkpoint absorbs the loss");
        assert!(report.durable_restores >= 1);
        assert_eq!(report.replay_runs(), 0);
    }

    #[test]
    fn modes_agree_on_final_state_despite_crash() {
        let crash = Some(CrashPlan { node: 1, iteration: 1 });
        let s1 = spec(MemMode::LineageReplay);
        let s2 = spec(MemMode::AlgFcm);
        let mut e1 = LocalEngine::new(&s1, 3);
        let mut e2 = LocalEngine::new(&s2, 3);
        let r1 = run_chain(&mut e1, &s1, crash);
        let r2 = run_chain(&mut e2, &s2, crash);
        assert_eq!(r1.final_state, r2.final_state, "recovery path must not change results");
        assert!(r1.iterations_lost > r2.iterations_lost);
    }

    #[test]
    fn tiny_capacity_changes_cost_but_not_results() {
        let s_big = spec(MemMode::AlgFcm);
        let mut s_small = spec(MemMode::AlgFcm);
        // Too small for any state stripe: every load misses, every
        // generation restores from the ALG checkpoint.
        s_small.mem.mem_resident_capacity_bytes = 1024;
        let mut e_big = LocalEngine::new(&s_big, 5);
        let mut e_small = LocalEngine::new(&s_small, 5);
        let r_big = run_chain(&mut e_big, &s_big, None);
        let r_small = run_chain(&mut e_small, &s_small, None);
        assert_eq!(r_big.final_state, r_small.final_state, "eviction is semantically invisible");
        assert!(r_small.durable_restores > 0);
        assert_eq!(r_big.durable_restores, 0);
    }

    #[test]
    fn converges_when_delta_drops_under_epsilon() {
        let mut s = spec(MemMode::AlgFcm);
        s.mem.mem_max_chain_iterations = 50;
        s.mem.mem_convergence_epsilon_micro = 200_000;
        let mut engine = LocalEngine::new(&s, 5);
        let report = run_chain(&mut engine, &s, None);
        let at = report.converged_at.expect("loose epsilon converges");
        assert!(at < 50, "converged before the budget");
        assert_eq!(report.iterations_completed, at);
    }
}
