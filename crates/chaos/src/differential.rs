//! Differential cross-engine validation.
//!
//! Runs the *same* [`ChaosScenario`] on both engines at a matched small
//! scale — the threaded runtime over real bytes and the discrete-event
//! simulator over the same worker/rack/map/reduce counts — under each
//! recovery mode, and asserts engine-independent invariants:
//!
//! 1. **completes** — every engine × mode run finishes the job;
//! 2. **output-oracle** — every runtime run's committed bytes equal the
//!    `alm_workloads::reference` oracle's;
//! 3. **amplification-ordering** — the engines never *strictly contradict*
//!    each other on how recovery modes order by spatial amplification
//!    (if the simulator says mode A amplifies more than mode B, the
//!    runtime must not say the opposite);
//! 4. **no-mof-loss** — no lost map output goes unrecovered: the runtime
//!    commits every reduce partition, the simulator completes every
//!    reduce.

use std::sync::Arc;

use alm_sim::SimJobSpec;
use alm_types::{ClusterSpec, RecoveryMode, YarnConfig};
use alm_workloads::{Terasort, WorkloadKind};
use serde::Serialize;

use crate::analyze::{EngineKind, ScenarioOutcome};
use crate::campaign::{RuntimeCampaign, SimCampaign};
use crate::scenario::ChaosScenario;

/// The matched small scale both engines run at.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MatchedScale {
    /// Worker nodes (runtime cluster size; simulator gets workers + 1
    /// master). 2 racks in both, `worker % 2` placement in both.
    pub workers: u32,
    pub num_maps: u32,
    pub num_reduces: u32,
    pub seed: u64,
    /// Terasort records per split for the runtime's real-byte job.
    pub records_per_split: u32,
    /// Scenario-seconds → wall-ms compression for the runtime.
    pub ms_per_scenario_sec: f64,
}

impl Default for MatchedScale {
    fn default() -> MatchedScale {
        MatchedScale {
            workers: 5,
            num_maps: 5,
            num_reduces: 3,
            seed: 42,
            records_per_split: 900,
            ms_per_scenario_sec: 5.0,
        }
    }
}

/// One named invariant check.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Invariant {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Invariant {
    /// An invariant that holds when nothing in `violations` broke it; its
    /// detail is `ok` when it holds and `fail` when it does not.
    pub(crate) fn new(name: &str, violations: &[String], ok: impl Into<String>, fail: String) -> Invariant {
        let passed = violations.is_empty();
        Invariant { name: name.into(), passed, detail: if passed { ok.into() } else { fail } }
    }
}

/// The verdict of one differential validation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DifferentialReport {
    pub scenario: String,
    pub modes: Vec<RecoveryMode>,
    pub invariants: Vec<Invariant>,
    /// Both engines' per-mode outcomes, for inspection.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl DifferentialReport {
    pub fn ok(&self) -> bool {
        self.invariants.iter().all(|i| i.passed)
    }

    pub fn render_text(&self) -> String {
        let mut out = format!("differential validation: scenario {}\n", self.scenario);
        for i in &self.invariants {
            out.push_str(&format!(
                "  [{}] {} — {}\n",
                if i.passed { "ok" } else { "FAIL" },
                i.name,
                i.detail
            ));
        }
        out
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("differential report serialisation cannot fail")
    }
}

fn sign(a: usize, b: usize) -> i8 {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

/// Validate `scenario` across both engines at [`MatchedScale::default`].
pub fn validate_scenario(scenario: &ChaosScenario, modes: &[RecoveryMode]) -> DifferentialReport {
    validate_at(scenario, modes, &MatchedScale::default())
}

/// The two campaigns — simulator and threaded runtime — that realise a
/// [`MatchedScale`] for a given mode set. Shared by the invariant
/// validator below and the magnitude calibrator (`crate::calibrate`).
pub(crate) fn matched_campaigns(
    modes: &[RecoveryMode],
    scale: &MatchedScale,
) -> (SimCampaign, RuntimeCampaign) {
    let yarn = YarnConfig::default();
    let sim = SimCampaign {
        spec: SimJobSpec::new(
            WorkloadKind::Terasort,
            scale.num_maps as u64 * yarn.dfs_block_size,
            scale.num_reduces,
            scale.seed,
        ),
        cluster: ClusterSpec { nodes: scale.workers + 1, ..ClusterSpec::default() },
        yarn,
        modes: modes.to_vec(),
    };
    let runtime = RuntimeCampaign {
        workload: Arc::new(Terasort::new(scale.records_per_split)),
        num_maps: scale.num_maps,
        num_reduces: scale.num_reduces,
        seed: scale.seed,
        nodes: scale.workers,
        ms_per_scenario_sec: scale.ms_per_scenario_sec,
        modes: modes.to_vec(),
    };
    (sim, runtime)
}

/// Validate `scenario` across both engines at an explicit matched scale.
pub fn validate_at(
    scenario: &ChaosScenario,
    modes: &[RecoveryMode],
    scale: &MatchedScale,
) -> DifferentialReport {
    let (sim, runtime) = matched_campaigns(modes, scale);
    // Whether nothing in the scenario, as lowered, can legitimately fail.
    let nothing_fails = scenario.injected_failure_faults(&sim.profile()) == 0;

    let mut outcomes = sim.run(std::slice::from_ref(scenario));
    outcomes.extend(runtime.run(std::slice::from_ref(scenario)));

    let by = |engine: EngineKind, mode: RecoveryMode| {
        outcomes.iter().find(|o| o.engine == engine && o.mode == mode).expect("one outcome per engine x mode")
    };

    let mut invariants = Vec::new();

    let stuck: Vec<String> =
        outcomes.iter().filter(|o| !o.succeeded).map(|o| format!("{}/{:?}", o.engine, o.mode)).collect();
    invariants.push(Invariant::new(
        "completes",
        &stuck,
        format!("all {} engine x mode runs completed", outcomes.len()),
        format!("did not complete: {}", stuck.join(", ")),
    ));

    let unverified: Vec<String> = outcomes
        .iter()
        .filter(|o| o.engine == EngineKind::Runtime && o.output_verified != Some(true))
        .map(|o| format!("{:?}", o.mode))
        .collect();
    invariants.push(Invariant::new(
        "output-oracle",
        &unverified,
        "every runtime run committed byte-identical oracle output",
        format!("oracle mismatch under: {}", unverified.join(", ")),
    ));

    let mut contradictions = Vec::new();
    for (i, &a) in modes.iter().enumerate() {
        for &b in &modes[i + 1..] {
            let s = sign(
                by(EngineKind::Simulator, a).spatial_amplification,
                by(EngineKind::Simulator, b).spatial_amplification,
            );
            let r = sign(
                by(EngineKind::Runtime, a).spatial_amplification,
                by(EngineKind::Runtime, b).spatial_amplification,
            );
            if s * r < 0 {
                contradictions.push(format!("{a:?} vs {b:?} (sim {s:+}, runtime {r:+})"));
            }
        }
    }
    invariants.push(Invariant::new(
        "amplification-ordering",
        &contradictions,
        "engines agree on how modes order by spatial amplification",
        format!("engines contradict on: {}", contradictions.join("; ")),
    ));

    let mof_loss: Vec<String> = outcomes
        .iter()
        .filter(|o| match o.engine {
            EngineKind::Runtime => o.partitions_committed != Some(scale.num_reduces),
            EngineKind::Simulator => !o.succeeded,
        })
        .map(|o| format!("{}/{:?}", o.engine, o.mode))
        .collect();
    invariants.push(Invariant::new(
        "no-mof-loss",
        &mof_loss,
        format!("all {} reduce partitions recovered and committed everywhere", scale.num_reduces),
        format!("unrecovered output loss under: {}", mof_loss.join(", ")),
    ));

    // Correlated rack loss is the paper's hardest recovery case: when the
    // scenario takes out a whole rack, surviving replicas must carry the
    // job to byte-identical committed output on the runtime, and the
    // simulator must still complete under the full SfmAlg treatment.
    if scenario.faults.iter().any(|f| matches!(f, crate::scenario::ChaosFault::CrashRack { .. })) {
        let bad: Vec<String> = outcomes
            .iter()
            .filter(|o| match o.engine {
                EngineKind::Runtime => {
                    o.output_verified != Some(true) || o.partitions_committed != Some(scale.num_reduces)
                }
                EngineKind::Simulator => o.mode == RecoveryMode::SfmAlg && !o.succeeded,
            })
            .map(|o| format!("{}/{:?}", o.engine, o.mode))
            .collect();
        invariants.push(Invariant::new(
            "correlated-crash-recovery",
            &bad,
            "rack loss recovered: runtime output oracle-identical and fully committed, simulator completes under SfmAlg",
            format!("rack loss not recovered under: {}", bad.join(", ")),
        ));
    }

    // A network partition that heals inside the liveness window is the
    // transient trigger of §II-C's amplification: neither engine may
    // declare a node lost over it. When the scenario injects *only*
    // transient faults (partitions, slow nodes, degraded links — nothing
    // that legitimately fails), the bar is higher still: zero map
    // re-executions and zero
    // failure records, in every recovery mode including Baseline. A crash
    // fault in the same scenario legitimises NodeCrash records, so the
    // check is skipped entirely in that mix.
    let has_partition =
        scenario.faults.iter().any(|f| matches!(f, crate::scenario::ChaosFault::PartitionLink { .. }));
    let has_crash = scenario.faults.iter().any(|f| {
        matches!(
            f,
            crate::scenario::ChaosFault::CrashNode { .. }
                | crate::scenario::ChaosFault::CrashNodeAtReduceProgress { .. }
                | crate::scenario::ChaosFault::CrashRack { .. }
        )
    });
    if has_partition && !has_crash {
        let transient_only = scenario.faults.iter().all(|f| {
            matches!(
                f,
                crate::scenario::ChaosFault::PartitionLink { .. }
                    | crate::scenario::ChaosFault::SlowNode { .. }
                    | crate::scenario::ChaosFault::DegradedLink { .. }
            )
        });
        let bad: Vec<String> = outcomes
            .iter()
            .filter(|o| {
                o.node_loss_failures > 0
                    || (transient_only && (o.map_attempts != scale.num_maps || o.total_failures > 0))
            })
            .map(|o| {
                format!(
                    "{}/{:?} (node_loss {}, map_attempts {}, failures {})",
                    o.engine, o.mode, o.node_loss_failures, o.map_attempts, o.total_failures
                )
            })
            .collect();
        invariants.push(Invariant::new(
            "transient-no-node-loss",
            &bad,
            if transient_only {
                "healed partition absorbed: zero node-lost declarations, zero map re-executions, zero failures in both engines"
            } else {
                "healed partition absorbed: zero node-lost declarations in both engines"
            },
            format!("partition mistaken for node loss under: {}", bad.join(", ")),
        ));
    }

    // An *asymmetric* partition is the half-open gray link: one direction
    // cut, the reverse (and with it heartbeats) healthy. Absent a crash
    // fault, neither engine may ever declare a node lost over it — the
    // fetcher parks, the source keeps serving everyone else, and the run
    // completes.
    let has_asymmetric = scenario.faults.iter().any(|f| {
        matches!(
            f,
            crate::scenario::ChaosFault::PartitionLink { direction, .. }
                if *direction != alm_types::LinkDirection::Both
        )
    });
    if has_asymmetric && !has_crash {
        let bad: Vec<String> = outcomes
            .iter()
            .filter(|o| o.node_loss_failures > 0 || !o.succeeded)
            .map(|o| {
                format!(
                    "{}/{:?} (succeeded {}, node_loss {})",
                    o.engine, o.mode, o.succeeded, o.node_loss_failures
                )
            })
            .collect();
        invariants.push(Invariant::new(
            "asymmetric-partition-no-node-loss",
            &bad,
            "half-open link absorbed: both engines complete with zero node-lost declarations",
            format!("asymmetric partition mistaken for node loss under: {}", bad.join(", ")),
        ));
    }

    // A flapping link (bounded sever→heal cycles) is the backoff stress
    // case: each heal re-pumps parked fetches and each re-sever parks them
    // again, and the exponential-backoff retry budget must survive every
    // cycle. When nothing else in the scenario can legitimately fail, no
    // reducer may be preempted through FetchFailureLimit and no failure may
    // be recorded at all, in either engine, in any mode.
    let has_flap = scenario
        .faults
        .iter()
        .any(|f| matches!(f, crate::scenario::ChaosFault::PartitionLink { flap: Some(_), .. }));
    if has_flap && nothing_fails {
        let bad: Vec<String> = outcomes
            .iter()
            .filter(|o| !o.succeeded || o.spatial_amplification > 0 || o.total_failures > 0)
            .map(|o| {
                format!(
                    "{}/{:?} (succeeded {}, spatial {}, failures {})",
                    o.engine, o.mode, o.succeeded, o.spatial_amplification, o.total_failures
                )
            })
            .collect();
        invariants.push(Invariant::new(
            "flap-backoff-budget",
            &bad,
            "flap cycles absorbed: retry budget intact across every heal, zero preemptions and zero failures in both engines",
            format!("flap cycles exhausted the retry budget under: {}", bad.join(", ")),
        ));
    }

    // Checksummed corruption recovery must stay bounded and invisible to
    // the fetch-failure accounting: both engines complete, the runtime's
    // committed bytes still match the oracle with every log recovery
    // within one logging interval, and — when nothing else in the scenario
    // can fail — no reducer is ever preempted through FetchFailureLimit.
    let has_corruption =
        scenario.faults.iter().any(|f| matches!(f, crate::scenario::ChaosFault::CorruptData { .. }));
    if has_corruption {
        let bad: Vec<String> = outcomes
            .iter()
            .filter(|o| {
                let engine_ok = match o.engine {
                    EngineKind::Runtime => {
                        o.succeeded && o.recoveries_bounded == Some(true) && o.output_verified == Some(true)
                    }
                    EngineKind::Simulator => o.succeeded,
                };
                !engine_ok || (nothing_fails && o.spatial_amplification > 0)
            })
            .map(|o| {
                format!(
                    "{}/{:?} (succeeded {}, bounded {:?}, spatial {})",
                    o.engine, o.mode, o.succeeded, o.recoveries_bounded, o.spatial_amplification
                )
            })
            .collect();
        invariants.push(Invariant::new(
            "corruption-bounded-recovery",
            &bad,
            "corruption absorbed: both engines complete, runtime recoveries bounded by one logging interval, no FetchFailureLimit preemption",
            format!("corruption recovery violated under: {}", bad.join(", ")),
        ));
    }

    // Committed-output rot must be invisible to consumers: with up to
    // R−1 replicas of a block corrupted, the verified read path serves
    // clean bytes by failing over (charged to the faulted scenario as
    // `dfs_read_failovers`), and the repair pipeline re-replicates until
    // no corrupt replica remains — replication restored, repair bytes
    // charged. Both engines must agree.
    let dfs_rot: std::collections::BTreeSet<(u32, u32)> = scenario
        .faults
        .iter()
        .filter_map(|f| match f {
            crate::scenario::ChaosFault::CorruptData {
                target: alm_types::CorruptTarget::DfsBlock { reduce_index, block },
                ..
            } => Some((*reduce_index, *block)),
            _ => None,
        })
        .collect();
    if !dfs_rot.is_empty() {
        let want_failovers = dfs_rot.len() as u32;
        let bad: Vec<String> = outcomes
            .iter()
            .filter(|o| {
                let engine_ok = match o.engine {
                    EngineKind::Runtime => {
                        o.succeeded
                            && o.output_verified == Some(true)
                            && o.partitions_committed == Some(scale.num_reduces)
                    }
                    EngineKind::Simulator => o.succeeded,
                };
                !engine_ok
                    || o.dfs_read_failovers < want_failovers
                    || o.dfs_corrupt_replicas > 0
                    || o.dfs_repair_bytes == 0
            })
            .map(|o| {
                format!(
                    "{}/{:?} (failovers {}, corrupt replicas {}, repair bytes {})",
                    o.engine, o.mode, o.dfs_read_failovers, o.dfs_corrupt_replicas, o.dfs_repair_bytes
                )
            })
            .collect();
        invariants.push(Invariant::new(
            "dfs-verified-read",
            &bad,
            format!(
                "committed-output rot absorbed: ≥{want_failovers} read failover(s) served clean bytes and repair restored replication in both engines"
            ),
            format!("rotten bytes surfaced or replication unrepaired under: {}", bad.join(", ")),
        ));
    }

    DifferentialReport { scenario: scenario.name.clone(), modes: modes.to_vec(), invariants, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ChaosFault;

    #[test]
    fn task_kill_scenario_validates_across_engines() {
        let scenario =
            ChaosScenario::new("diff-kill").with(ChaosFault::KillReduce { index: 1, at_progress: 0.5 });
        let report = validate_scenario(&scenario, &[RecoveryMode::Baseline, RecoveryMode::SfmAlg]);
        assert!(report.ok(), "{}", report.render_text());
        assert_eq!(report.outcomes.len(), 4);
    }

    #[test]
    fn sign_is_a_three_way_comparison() {
        assert_eq!(sign(0, 1), -1);
        assert_eq!(sign(1, 1), 0);
        assert_eq!(sign(2, 1), 1);
    }
}
