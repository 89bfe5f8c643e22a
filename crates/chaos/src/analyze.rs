//! Amplification analysis over engine reports.
//!
//! Extracts the paper's two amplification phenomena from either engine's
//! run report, normalised into one [`ScenarioOutcome`] shape:
//!
//! * **temporal amplification** (Figs. 3/10): repeated failures of the
//!   *same* task — the longest repeat chain beyond a task's first failure;
//! * **spatial amplification** (Fig. 4 / Table II): the distinct reduce
//!   tasks with at least one `FetchFailureLimit` failure — reducers
//!   preempted after losing a shuffle source. Every such task counts,
//!   including one the scenario itself injected a fault into (a killed
//!   reducer whose relaunch is then preempted). Table II's "additional
//!   failures" (`SimReport::infected_reduces`) differs on both axes: it
//!   counts reduce tasks that failed for *any* reason, and excludes the
//!   injected ones.

use alm_runtime::JobReport;
use alm_sim::SimReport;
use alm_types::{FailureKind, RecoveryMode, TaskId};
use serde::Serialize;
use std::collections::BTreeMap;

use crate::scenario::{ChaosScenario, LoweringProfile};

/// Which engine produced an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum EngineKind {
    Simulator,
    Runtime,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Simulator => "sim",
            EngineKind::Runtime => "runtime",
        })
    }
}

/// One (scenario, engine, mode) run, reduced to the campaign's metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioOutcome {
    pub scenario: String,
    pub engine: EngineKind,
    pub mode: RecoveryMode,
    pub succeeded: bool,
    /// Virtual seconds (simulator) or wall seconds (runtime).
    pub duration_secs: f64,
    /// Faults the scenario injected that surface as failures, counted on
    /// the lowered plan (a rack crash contributes one per member node).
    pub injected_faults: usize,
    pub total_failures: usize,
    /// Distinct reduce tasks with at least one `FetchFailureLimit`
    /// failure, injected tasks included — not Table II's "additional
    /// failures", which count any reduce failure outside the injected tasks
    /// (module doc).
    pub spatial_amplification: usize,
    /// Longest repeated-failure chain of one task (count beyond first).
    pub temporal_amplification: usize,
    pub fcm_attempts: u32,
    /// Map attempts launched; equal to the job's map count exactly when no
    /// map re-executed — the transient-fault "zero re-execution" signal.
    pub map_attempts: u32,
    /// Node-loss declarations (`NodeCrash` failure records). A partition
    /// that heals inside the liveness window must leave this at zero.
    pub node_loss_failures: usize,
    /// Fetched chunks that failed arrival-checksum validation and were
    /// transparently re-fetched (never charged to the retry budget).
    pub corruption_refetches: u32,
    /// Fetch transfers dropped by gray-degraded links and transparently
    /// re-fetched (never charged to the retry budget).
    pub degraded_drops: u32,
    /// Runtime only: every analytics-log recovery stayed within one
    /// logging interval of work (vacuously true with no recoveries).
    pub recoveries_bounded: Option<bool>,
    /// Runtime only: committed output byte-identical to the oracle.
    pub output_verified: Option<bool>,
    /// Runtime only: reduce partitions whose committed output file is
    /// present *and readable* on the DFS (commit status, not record
    /// presence: a legitimately empty partition counts, a committed file
    /// whose blocks were later lost does not) — `num_reduces` here means
    /// no MOF loss went unrecovered.
    pub partitions_committed: Option<u32>,
    /// Rotten committed-output replicas the verified DFS read path skipped
    /// over (each charged to the faulted scenario and queued for repair).
    pub dfs_read_failovers: u32,
    /// Payload bytes the DFS repair pipeline copied to restore the
    /// replication level after corruption or node death.
    pub dfs_repair_bytes: u64,
    /// Corrupt replicas still present after post-job repair — the
    /// `dfs-verified-read` invariant requires zero on succeeded runs.
    pub dfs_corrupt_replicas: u32,
    /// Chain campaigns only: which iteration of the job chain this outcome
    /// belongs to. Zero for ordinary single-job scenarios.
    pub chain_iteration: u32,
    /// Resident-cache hits (shuffle MOFs + chain state stripes) served
    /// from RAM during the run; nonzero only in the in-memory mode.
    pub resident_hits: u64,
}

/// DFS replica-management counters for one runtime run, collected by the
/// campaign harness after its verification reads and `repair()` pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DfsAudit {
    pub read_failovers: u32,
    pub repair_bytes: u64,
    pub corrupt_replicas: u32,
}

fn spatial_of(failures: impl Iterator<Item = (TaskId, FailureKind)>) -> usize {
    let mut infected: Vec<TaskId> = failures
        .filter(|(t, k)| t.is_reduce() && *k == FailureKind::FetchFailureLimit)
        .map(|(t, _)| t)
        .collect();
    infected.sort_unstable();
    infected.dedup();
    infected.len()
}

/// Classification of a recorded failure for the `node_loss_failures`
/// counter. A wildcard-free `match`, so adding a `FailureKind` variant
/// forces a decision here.
fn counts_as_node_loss(kind: FailureKind) -> bool {
    debug_assert!(!kind.is_transient(), "transient kind {kind:?} recorded as a failure");
    match kind {
        FailureKind::NodeCrash => true,
        FailureKind::TaskOom
        | FailureKind::FetchFailureLimit
        | FailureKind::TaskTimeout
        | FailureKind::SlowNode
        | FailureKind::NetworkPartition
        | FailureKind::DataCorruption => false,
    }
}

fn temporal_of(failures: impl Iterator<Item = TaskId>) -> usize {
    let mut per_task: BTreeMap<TaskId, usize> = BTreeMap::new();
    for t in failures {
        *per_task.entry(t).or_default() += 1;
    }
    per_task.values().map(|n| n.saturating_sub(1)).max().unwrap_or(0)
}

/// Analyze a simulator run of `scenario` under `mode`. `profile` is the
/// lowering profile the run used; the injected-fault denominator is
/// counted on the lowered plan so rack crashes weigh one per member node.
///
/// The report is destructured with no `..` (and unused bindings denied),
/// so a new `SimReport` field fails the build here until it is either
/// mapped into [`ScenarioOutcome`] — which `analyze_runtime` must then fill
/// too — or bound `_` with the reason the validator does not consume it.
#[deny(unused_variables)]
pub fn analyze_sim(
    scenario: &ChaosScenario,
    mode: RecoveryMode,
    report: &SimReport,
    profile: &LoweringProfile,
) -> ScenarioOutcome {
    let SimReport {
        succeeded,
        job_secs,
        map_phase_secs: _, // figure-only phase marker
        failures,
        map_attempts,
        // Reduce recovery is validated through fcm_attempts and the
        // per-failure list, not raw attempt totals.
        reduce_attempts: _,
        fcm_attempts,
        reduce_progress: _, // figure-only timeline samples
        reduce_nodes: _,    // crash-targeting aid for experiments
        // The runtime's ALG unit is records in its log stores; snapshots
        // vs records are incommensurable, each engine asserts its own.
        alg_snapshots: _,
        corruption_refetches,
        degraded_drops,
        // The runtime reports truncation forensics structurally
        // (log_recoveries → recoveries_bounded()), not as a scalar.
        log_truncations: _,
        uplink_bytes: _, // the runtime has no rack/uplink topology model
        dfs_read_failovers,
        dfs_repair_bytes,
        dfs_corrupt_replicas,
        resident_fetch_hits,
        // The runtime tracks invalidations in the chain layer's
        // ResidentStore stats, outside JobReport.
        resident_invalidations: _,
        events: _, // DES bookkeeping; the runtime has no event loop
    } = report;
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        engine: EngineKind::Simulator,
        mode,
        succeeded: *succeeded,
        duration_secs: *job_secs,
        injected_faults: scenario.injected_failure_faults(profile),
        total_failures: failures.len(),
        spatial_amplification: spatial_of(failures.iter().map(|f| (f.task, f.kind))),
        temporal_amplification: temporal_of(failures.iter().map(|f| f.task)),
        fcm_attempts: *fcm_attempts,
        map_attempts: *map_attempts,
        node_loss_failures: failures.iter().filter(|f| counts_as_node_loss(f.kind)).count(),
        corruption_refetches: *corruption_refetches,
        degraded_drops: *degraded_drops,
        recoveries_bounded: None,
        output_verified: None,
        partitions_committed: None,
        dfs_read_failovers: *dfs_read_failovers,
        dfs_repair_bytes: *dfs_repair_bytes,
        dfs_corrupt_replicas: *dfs_corrupt_replicas,
        chain_iteration: 0,
        resident_hits: *resident_fetch_hits,
    }
}

/// Analyze a threaded-runtime run of `scenario` under `mode`.
/// `output_verified` carries the caller's oracle comparison,
/// `partitions_committed` the caller's DFS commit-status count (see
/// `RuntimeCampaign::committed_partitions`) and `dfs` the replica counters
/// the harness collects from `SimDfs` — the runtime counterparts of the
/// sim report's `dfs_*` fields. Destructured like [`analyze_sim`].
#[deny(unused_variables)]
pub fn analyze_runtime(
    scenario: &ChaosScenario,
    mode: RecoveryMode,
    report: &JobReport,
    profile: &LoweringProfile,
    output_verified: bool,
    partitions_committed: u32,
    dfs: DfsAudit,
) -> ScenarioOutcome {
    let JobReport {
        succeeded,
        job_time_ms,
        failures,
        map_attempts,
        reduce_attempts: _, // as in analyze_sim
        fcm_attempts,
        // Record counts, not commit durability: the map cannot see a
        // committed file whose blocks were lost afterwards, hence the
        // caller-supplied `partitions_committed`.
        output_records: _,
        reduce_timeline: _, // figure-only timeline samples
        corruption_refetches,
        degraded_drops,
        resident_fetch_hits,
        log_recoveries: _, // consumed through recoveries_bounded()
    } = report;
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        engine: EngineKind::Runtime,
        mode,
        succeeded: *succeeded,
        duration_secs: *job_time_ms as f64 / 1000.0,
        injected_faults: scenario.injected_failure_faults(profile),
        total_failures: failures.len(),
        spatial_amplification: spatial_of(failures.iter().map(|f| (f.task, f.kind))),
        temporal_amplification: temporal_of(failures.iter().map(|f| f.task)),
        fcm_attempts: *fcm_attempts,
        map_attempts: *map_attempts,
        node_loss_failures: failures.iter().filter(|f| counts_as_node_loss(f.kind)).count(),
        corruption_refetches: *corruption_refetches,
        degraded_drops: *degraded_drops,
        recoveries_bounded: Some(report.recoveries_bounded()),
        output_verified: Some(output_verified),
        partitions_committed: Some(partitions_committed),
        dfs_read_failovers: dfs.read_failovers,
        dfs_repair_bytes: dfs.repair_bytes,
        dfs_corrupt_replicas: dfs.corrupt_replicas,
        chain_iteration: 0,
        resident_hits: *resident_fetch_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::JobId;

    #[test]
    fn spatial_counts_distinct_fetch_limited_reduces_only() {
        let j = JobId(0);
        let failures = vec![
            (TaskId::reduce(j, 1), FailureKind::FetchFailureLimit),
            (TaskId::reduce(j, 1), FailureKind::FetchFailureLimit),
            (TaskId::reduce(j, 2), FailureKind::FetchFailureLimit),
            (TaskId::reduce(j, 3), FailureKind::TaskOom),
            (TaskId::map(j, 0), FailureKind::FetchFailureLimit),
        ];
        assert_eq!(spatial_of(failures.clone().into_iter()), 2);
        // Reduce 3 was the injected task (its OOM); its relaunch is then
        // preempted by fetch failures. That counts: spatial amplification
        // does not exclude injected tasks, unlike Table II's count.
        let relaunch_preempted =
            failures.into_iter().chain([(TaskId::reduce(j, 3), FailureKind::FetchFailureLimit)]);
        assert_eq!(spatial_of(relaunch_preempted), 3);
    }

    #[test]
    fn temporal_is_the_longest_repeat_chain() {
        let j = JobId(0);
        let tasks = vec![TaskId::reduce(j, 0), TaskId::reduce(j, 0), TaskId::reduce(j, 0), TaskId::map(j, 1)];
        assert_eq!(temporal_of(tasks.into_iter()), 2);
        assert_eq!(temporal_of(std::iter::empty()), 0);
    }
}
