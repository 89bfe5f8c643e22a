//! Amplification analysis over engine reports.
//!
//! Normalises either engine's run report into one [`ScenarioOutcome`]
//! shape. Every failure-derived field — the failure total, temporal and
//! spatial amplification, node-loss declarations — comes from one query
//! over the report's attempt trace
//! ([`alm_types::Trace::failure_counts`]), where both amplification terms
//! are defined (`alm_types::trace`). Spatial
//! amplification counts reducers preempted by `FetchFailureLimit`,
//! injected tasks included; Table II's "additional failures"
//! ([`alm_types::Trace::additional_failures`]) differs on both axes.

use alm_runtime::JobReport;
use alm_sim::SimReport;
use alm_types::{FailureCounts, RecoveryMode};
use serde::Serialize;

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
        trace,
        map_attempts,
        // Reduce recovery is validated through fcm_attempts and the
        // failure counts, not raw attempt totals.
        reduce_attempts: _,
        fcm_attempts,
        reduce_progress: _, // figure-only timeline samples
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
    let FailureCounts { total_failures, spatial_amplification, temporal_amplification, node_loss_failures } =
        trace.failure_counts();
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        engine: EngineKind::Simulator,
        mode,
        succeeded: *succeeded,
        duration_secs: *job_secs,
        injected_faults: scenario.injected_failure_faults(profile),
        total_failures,
        spatial_amplification,
        temporal_amplification,
        fcm_attempts: *fcm_attempts,
        map_attempts: *map_attempts,
        node_loss_failures,
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
        trace,
        failures: _, // the trace's failure view
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
    let FailureCounts { total_failures, spatial_amplification, temporal_amplification, node_loss_failures } =
        trace.failure_counts();
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        engine: EngineKind::Runtime,
        mode,
        succeeded: *succeeded,
        duration_secs: *job_time_ms as f64 / 1000.0,
        injected_faults: scenario.injected_failure_faults(profile),
        total_failures,
        spatial_amplification,
        temporal_amplification,
        fcm_attempts: *fcm_attempts,
        map_attempts: *map_attempts,
        node_loss_failures,
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
