//! Chain campaigns: amplification measurement for the in-memory iterative
//! mode (`alm-mem`) across both engines.
//!
//! A [`ChainCampaign`] runs the same fixed-seed iterative pagerank chain —
//! with the same mid-chain node crash — under both [`MemMode`]s on both
//! engines, flattens every engine job run (replays included) into
//! per-iteration [`ScenarioOutcome`]s, and checks the
//! **`mem-amplification-bounded`** differential invariant:
//!
//! * under ALG+FCM the chain loses **zero** completed iterations (every
//!   recovery is a durable checkpoint restore, the in-flight job recovers
//!   in-job via SFM+ALG);
//! * under M3R-style lineage replay the same crash re-executes the whole
//!   completed prefix — strictly more iterations lost;
//! * both modes, on both engines, still converge to **byte-identical**
//!   final state.
//!
//! The per-mode rows render as the iterations-lost table in
//! EXPERIMENTS.md.

use alm_mem::{run_chain, ChainReport, CrashPlan, IterativeSpec, RuntimeChainEngine, SimChainEngine};
use alm_types::{MemConfig, MemMode};
use alm_workloads::{Pagerank, WorkloadKind};
use serde::Serialize;
use std::sync::Arc;

use crate::analyze::{analyze, EngineKind, ScenarioOutcome};
use crate::differential::Invariant;

/// One fixed-seed iterative chain, crashed mid-flight, on both engines
/// under both memory modes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChainCampaign {
    pub num_reduces: u32,
    pub seed: u64,
    /// Chain length (convergence disabled: the campaign wants fixed-length
    /// chains so iteration counts are comparable across modes).
    pub iterations: u32,
    /// Node to crash and the iteration whose job is in flight when it dies.
    pub crash_node: u32,
    pub crash_iteration: u32,
    /// Threaded-runtime cluster size (the simulator runs at paper scale).
    pub nodes: u32,
}

impl Default for ChainCampaign {
    fn default() -> ChainCampaign {
        // Crash at iteration 2 of 4: two completed generations at risk,
        // node 1 hosts a state stripe (3 reduces ring over 5 nodes).
        ChainCampaign { num_reduces: 3, seed: 42, iterations: 4, crash_node: 1, crash_iteration: 2, nodes: 5 }
    }
}

/// Per (engine, mode) summary — one row of the iterations-lost table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChainModeRow {
    pub engine: EngineKind,
    pub mode: MemMode,
    pub iterations_completed: u32,
    pub iterations_lost: u32,
    pub durable_restores: u32,
    pub replay_runs: u32,
    pub resident_hits: u64,
    /// Virtual seconds (simulator) or wall seconds (runtime) across every
    /// engine run, replays included.
    pub total_job_secs: f64,
}

/// Verdict of one chain campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChainDifferentialReport {
    pub crash_node: u32,
    pub crash_iteration: u32,
    pub invariants: Vec<Invariant>,
    pub rows: Vec<ChainModeRow>,
    /// Every engine job run of every (engine, mode) chain, flattened.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ChainDifferentialReport {
    pub fn ok(&self) -> bool {
        self.invariants.iter().all(|i| i.passed)
    }

    /// The iterations-lost table, as markdown for EXPERIMENTS.md.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from(
            "| engine | mode | iterations | lost to replay | durable restores | resident hits |\n|---|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                r.engine,
                r.mode,
                r.iterations_completed,
                r.iterations_lost,
                r.durable_restores,
                r.resident_hits
            ));
        }
        out
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("chain report serialisation cannot fail")
    }
}

impl ChainCampaign {
    fn spec(&self, mode: MemMode) -> IterativeSpec {
        let mut mem = MemConfig::scaled_for_tests();
        mem.mem_mode = mode;
        mem.mem_max_chain_iterations = self.iterations;
        // Epsilon of one micro-unit: the short campaign chain never
        // converges early, so both modes run the full budget.
        mem.mem_convergence_epsilon_micro = 1;
        IterativeSpec {
            workload: Arc::new(Pagerank::small()),
            num_reduces: self.num_reduces,
            seed: self.seed,
            mem,
        }
    }

    fn crash(&self) -> CrashPlan {
        CrashPlan { node: self.crash_node, iteration: self.crash_iteration }
    }

    /// Flatten one chain run into per-iteration outcomes.
    fn outcomes_of(&self, engine: EngineKind, mode: MemMode, report: &ChainReport) -> Vec<ScenarioOutcome> {
        report
            .runs
            .iter()
            .map(|o| {
                let crashed = !o.replay && o.iteration == self.crash_iteration;
                let replay = if o.replay { "-replay" } else { "" };
                let name = format!("mem/pagerank/{mode}/iter{:02}{replay}", o.iteration);
                let mut outcome =
                    analyze(name, usize::from(crashed), engine, mode.recovery_mode(), &o.run, None);
                outcome.chain_iteration = o.iteration;
                outcome
            })
            .collect()
    }

    fn row(engine: EngineKind, report: &ChainReport) -> ChainModeRow {
        ChainModeRow {
            engine,
            mode: report.mode,
            iterations_completed: report.iterations_completed,
            iterations_lost: report.iterations_lost,
            durable_restores: report.durable_restores,
            replay_runs: report.replay_runs() as u32,
            resident_hits: report.store.hits,
            total_job_secs: report.total_job_secs(),
        }
    }

    /// Run the campaign: both modes on both engines, same crash.
    pub fn run(&self) -> ChainDifferentialReport {
        let crash = Some(self.crash());
        let mut rows = Vec::new();
        let mut outcomes = Vec::new();
        let mut reports: Vec<(EngineKind, ChainReport)> = Vec::new();
        for mode in [MemMode::LineageReplay, MemMode::AlgFcm] {
            let spec = self.spec(mode);
            let mut sim = SimChainEngine::paper(WorkloadKind::Pagerank, &spec);
            let sim_report = run_chain(&mut sim, &spec, crash);
            let mut runtime = RuntimeChainEngine::new(self.nodes, &spec);
            let runtime_report = run_chain(&mut runtime, &spec, crash);
            for (engine, report) in
                [(EngineKind::Simulator, sim_report), (EngineKind::Runtime, runtime_report)]
            {
                rows.push(Self::row(engine, &report));
                outcomes.extend(self.outcomes_of(engine, mode, &report));
                reports.push((engine, report));
            }
        }

        let lost = |engine: EngineKind, mode: MemMode| {
            reports
                .iter()
                .find(|(e, r)| *e == engine && r.mode == mode)
                .map(|(_, r)| r.iterations_lost)
                .unwrap_or(u32::MAX)
        };
        let mut invariants = Vec::new();

        // The headline invariant: RAM-resident amplification is bounded by
        // ALG+FCM (zero iterations lost) and unbounded-by-prefix under
        // lineage replay (strictly more), on both engines.
        let bad: Vec<String> = [EngineKind::Simulator, EngineKind::Runtime]
            .into_iter()
            .filter_map(|engine| {
                let alg = lost(engine, MemMode::AlgFcm);
                let lineage = lost(engine, MemMode::LineageReplay);
                (alg != 0 || lineage <= alg)
                    .then(|| format!("{engine} (alg-fcm lost {alg}, lineage-replay lost {lineage})"))
            })
            .collect();
        invariants.push(Invariant::new(
            "mem-amplification-bounded",
            &bad,
            format!(
                "crash at iteration {} of {}: alg-fcm loses 0 iterations, lineage-replay loses {} (sim) / {} (runtime)",
                self.crash_iteration,
                self.iterations,
                lost(EngineKind::Simulator, MemMode::LineageReplay),
                lost(EngineKind::Runtime, MemMode::LineageReplay),
            ),
            format!("amplification not bounded under: {}", bad.join("; ")),
        ));

        // Recovery path must not change the math: every (engine, mode)
        // chain ends in the same final state as the first, byte for byte.
        let diverged: Vec<String> = reports
            .iter()
            .filter(|(_, r)| r.final_state != reports[0].1.final_state)
            .map(|(engine, r)| format!("{engine}/{:?}", r.mode))
            .collect();
        invariants.push(Invariant::new(
            "chain-state-identical",
            &diverged,
            "all engine x mode chains converge to byte-identical final state",
            "final states diverge across engines/modes".into(),
        ));

        // Every engine run in every chain — including replays on a cluster
        // already missing the crashed node — must complete.
        let stuck: Vec<String> = outcomes
            .iter()
            .filter(|o| !o.succeeded)
            .map(|o| format!("{}/{}", o.engine, o.scenario))
            .collect();
        invariants.push(Invariant::new(
            "chain-completes",
            &stuck,
            format!("all {} engine job runs completed", outcomes.len()),
            format!("did not complete: {}", stuck.join(", ")),
        ));

        ChainDifferentialReport {
            crash_node: self.crash_node,
            crash_iteration: self.crash_iteration,
            invariants,
            rows,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_campaign_invariants_hold_on_both_engines() {
        let report = ChainCampaign::default().run();
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.rows.len(), 4, "2 engines x 2 modes");
        // The lineage rows carry the amplification; the alg rows do not.
        for row in &report.rows {
            match row.mode {
                MemMode::LineageReplay => {
                    assert!(row.iterations_lost > 0, "{row:?}");
                    assert_eq!(row.durable_restores, 0, "{row:?}");
                }
                MemMode::AlgFcm => {
                    assert_eq!(row.iterations_lost, 0, "{row:?}");
                    assert!(row.durable_restores > 0, "{row:?}");
                }
            }
        }
        // Per-iteration outcomes carry chain labels and the new counters.
        assert!(report.outcomes.iter().any(|o| o.scenario.ends_with("-replay")));
        assert!(report.outcomes.iter().any(|o| o.chain_iteration > 0));
        assert!(report.outcomes.iter().any(|o| o.resident_hits > 0));
        let md = report.render_markdown();
        assert!(md.contains("| sim | lineage-replay |"), "{md}");
        assert!(md.contains("| runtime | alg-fcm |"), "{md}");
    }

    /// Every outcome's failure-derived fields are its run's, replays on a
    /// cluster already missing the crashed node included.
    #[test]
    fn chain_outcomes_carry_their_runs_failure_counts() {
        let campaign = ChainCampaign::default();
        let spec = campaign.spec(MemMode::LineageReplay);
        let mut engine = SimChainEngine::paper(WorkloadKind::Pagerank, &spec);
        let report = run_chain(&mut engine, &spec, Some(campaign.crash()));
        let outcomes = campaign.outcomes_of(EngineKind::Simulator, MemMode::LineageReplay, &report);
        assert_eq!(outcomes.len(), report.runs.len());
        let mut failures = 0;
        for (o, run) in outcomes.iter().zip(&report.runs) {
            let want = run.run.trace.failure_counts();
            let got =
                (o.total_failures, o.spatial_amplification, o.temporal_amplification, o.node_loss_failures);
            let counts = (
                want.total_failures,
                want.spatial_amplification,
                want.temporal_amplification,
                want.node_loss_failures,
            );
            assert_eq!(got, counts, "{}", o.scenario);
            assert_eq!(o.map_attempts, run.run.trace.launches(alm_types::TaskKind::Map), "{}", o.scenario);
            assert_eq!(o.fcm_attempts, run.run.trace.fcm_launches(), "{}", o.scenario);
            failures += o.node_loss_failures;
        }
        assert!(failures > 0, "the crash and the replays on a smaller cluster lose nodes");
    }

    #[test]
    fn chain_campaign_is_deterministic() {
        let campaign = ChainCampaign::default();
        let a = campaign.run();
        let b = campaign.run();
        // Sim chains are fully deterministic (virtual time included).
        let sim = |r: &ChainDifferentialReport| {
            r.outcomes.iter().filter(|o| o.engine == EngineKind::Simulator).cloned().collect::<Vec<_>>()
        };
        assert_eq!(sim(&a), sim(&b));
        // Runtime chains run on wall time and their MOF cache traffic
        // depends on thread interleaving; the chain *protocol* — which
        // jobs ran, in what order, with what recovery accounting — must
        // still replay identically.
        let protocol = |r: &ChainDifferentialReport| {
            r.rows
                .iter()
                .map(|row| {
                    (
                        row.engine,
                        row.mode,
                        row.iterations_completed,
                        row.iterations_lost,
                        row.durable_restores,
                        row.replay_runs,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(protocol(&a), protocol(&b));
        let labels = |r: &ChainDifferentialReport| {
            r.outcomes.iter().map(|o| (o.scenario.clone(), o.engine, o.succeeded)).collect::<Vec<_>>()
        };
        assert_eq!(labels(&a), labels(&b));
    }
}
