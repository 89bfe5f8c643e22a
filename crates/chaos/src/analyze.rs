//! Amplification analysis over one run.
//!
//! Both engines report a run as one [`RunReport`], and [`analyze`] is the
//! one place a [`ScenarioOutcome`] is built from it: the simulator
//! campaign (through [`analyze_sim`]), the runtime campaign and the chain
//! campaign all call it. Every failure-derived field (the failure total,
//! temporal and spatial amplification, node-loss declarations) comes from
//! one query over the run's attempt trace
//! ([`alm_types::Trace::failure_counts`]), where both amplification terms
//! are defined (`alm_types::trace`), and so do the map and FCM attempt
//! counts. Spatial amplification counts reducers preempted by
//! `FetchFailureLimit`, injected tasks included; Table II's "additional
//! failures" ([`alm_types::Trace::additional_failures`]) differs on both
//! axes. What only the runtime checks (its output against the oracle, its
//! committed partitions, its log recoveries) the caller passes as an
//! [`Oracle`].

use alm_sim::SimReport;
use alm_types::{FailureCounts, RecoveryMode, RunCounters, RunReport, TaskKind};
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
    /// This, `degraded_drops` and the `dfs_*` fields are the run's
    /// [`RunCounters`], documented there.
    pub corruption_refetches: u32,
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
    pub dfs_read_failovers: u32,
    pub dfs_repair_bytes: u64,
    /// The `dfs-verified-read` invariant requires zero on succeeded runs.
    pub dfs_corrupt_replicas: u32,
    /// Chain campaigns only: which iteration of the job chain this outcome
    /// belongs to. Zero for ordinary single-job scenarios.
    pub chain_iteration: u32,
    /// The run's `resident_fetch_hits`: shuffle fetches served from RAM,
    /// nonzero only in the in-memory mode.
    pub resident_hits: u64,
}

/// What the runtime campaign checks after a run, which the simulator has
/// no counterpart of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracle {
    /// Committed output byte-identical to the reference oracle's.
    pub output_verified: bool,
    /// See [`ScenarioOutcome::partitions_committed`].
    pub partitions_committed: u32,
    /// Every analytics-log recovery stayed within one logging interval.
    pub recoveries_bounded: bool,
}

/// The one constructor of a [`ScenarioOutcome`]: the outcome of `run`,
/// named `scenario`, under `mode` on `engine`, with `injected_faults` as
/// its denominator and the runtime's `oracle` results if it has them.
///
/// The run and its counters are destructured with no `..` (and unused
/// bindings denied), so a new field fails the build here until it is either
/// mapped into the outcome or bound `_` with the reason it is not.
#[deny(unused_variables)]
pub fn analyze(
    scenario: String,
    injected_faults: usize,
    engine: EngineKind,
    mode: RecoveryMode,
    run: &RunReport,
    oracle: Option<Oracle>,
) -> ScenarioOutcome {
    let RunReport {
        succeeded,
        job_ns: _, // read as `run.job_secs()`
        trace,
        progress: _, // figure-only timeline samples
        counters,
    } = run;
    let RunCounters {
        corruption_refetches,
        degraded_drops,
        resident_fetch_hits,
        dfs_read_failovers,
        dfs_repair_bytes,
        dfs_corrupt_replicas,
    } = *counters;
    let FailureCounts { total_failures, spatial_amplification, temporal_amplification, node_loss_failures } =
        trace.failure_counts();
    ScenarioOutcome {
        scenario,
        engine,
        mode,
        succeeded: *succeeded,
        duration_secs: run.job_secs(),
        injected_faults,
        total_failures,
        spatial_amplification,
        temporal_amplification,
        fcm_attempts: trace.fcm_launches(),
        map_attempts: trace.launches(TaskKind::Map),
        node_loss_failures,
        corruption_refetches,
        degraded_drops,
        recoveries_bounded: oracle.map(|o| o.recoveries_bounded),
        output_verified: oracle.map(|o| o.output_verified),
        partitions_committed: oracle.map(|o| o.partitions_committed),
        dfs_read_failovers,
        dfs_repair_bytes,
        dfs_corrupt_replicas,
        chain_iteration: 0,
        resident_hits: resident_fetch_hits,
    }
}

/// Analyze a simulator run of `scenario` under `mode`. `profile` is the
/// lowering profile the run used; the injected-fault denominator is
/// counted on the lowered plan so rack crashes weigh one per member node.
/// This is the one place the simulator's own fields are classified, each
/// bound `_` with the reason the outcome does not read it.
#[deny(unused_variables)]
pub fn analyze_sim(
    scenario: &ChaosScenario,
    mode: RecoveryMode,
    report: &SimReport,
    profile: &LoweringProfile,
) -> ScenarioOutcome {
    let SimReport {
        run,
        job_secs: _,       // `run.job_ns` in seconds, kept for `benchmark/`
        map_phase_secs: _, // figure-only phase marker
        // The runtime's ALG unit is records in its log stores; snapshots
        // vs records are incommensurable, each engine asserts its own.
        alg_snapshots: _,
        // The runtime reports truncation forensics structurally
        // (log_recoveries → recoveries_bounded), not as a scalar.
        log_truncations: _,
        uplink_bytes: _, // the runtime has no rack/uplink topology model
        // The runtime tracks invalidations in the chain layer's
        // ResidentStore stats, outside its report.
        resident_invalidations: _,
        events: _, // DES bookkeeping; the runtime has no event loop
    } = report;
    let injected = scenario.injected_failure_faults(profile);
    analyze(scenario.name.clone(), injected, EngineKind::Simulator, mode, run, None)
}
