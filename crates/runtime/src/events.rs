//! Events flowing from task threads to the ApplicationMaster.

use alm_core::RecoveryReport;
use alm_shuffle::MofData;
use alm_types::{AttemptId, FailureKind, NodeId, ReducePhase};

/// One message on the task → AM channel (the heartbeat/umbilical analogue).
#[derive(Debug, Clone)]
pub enum TaskEvent {
    /// A MapTask attempt committed its MOF on `node`.
    MapCompleted { attempt: AttemptId, node: NodeId, mof: MofData },
    /// A ReduceTask attempt committed its final output.
    ReduceCompleted { attempt: AttemptId, node: NodeId, output_records: u64 },
    /// An attempt died with an error it could report (injected OOM, fetch
    /// failure limit). Silent deaths (node crash) produce no event — the AM
    /// discovers them via the liveness timeout.
    TaskFailed { attempt: AttemptId, node: NodeId, kind: FailureKind },
    /// A reducer failed to fetch map `map_index`'s MOF from `source`.
    /// YARN uses these reports to eventually re-execute the map.
    FetchFailure { reducer: AttemptId, map_index: u32, source: NodeId },
    /// A reducer fetched map `map_index`'s partition from a *healthy*
    /// `source` but the bytes failed the CRC32 frame check. The AM
    /// regenerates the MOF and the reducer transparently re-fetches; this
    /// never counts toward the fetch-failure limit. `generation` names the
    /// registration the bytes came from, so a report that arrives after
    /// the fresh MOF registered starts nothing.
    FetchCorruption { reducer: AttemptId, map_index: u32, source: NodeId, generation: u64 },
    /// A reducer's transfer of map `map_index`'s partition from a healthy
    /// `source` was dropped by a degraded (gray) link. The reducer fetches
    /// it again at once (at most `MAX_GRAY_DROPS` drops per map); this never
    /// counts toward the fetch-failure limit and never marks the source
    /// dead.
    FetchDegraded { reducer: AttemptId, map_index: u32, source: NodeId },
    /// A reducer's fetch of map `map_index` was served from the chain
    /// layer's resident in-memory MOF cache on `source` instead of disk.
    /// Purely observational: the AM counts it in the run's
    /// `resident_fetch_hits`, as the simulator does.
    FetchResident { reducer: AttemptId, map_index: u32, source: NodeId },
    /// A reduce attempt recovered from analytics logs; the report carries
    /// the truncation forensics (how much, if anything, was discarded).
    LogRecovered { attempt: AttemptId, report: RecoveryReport },
    /// Progress report from a reduce attempt (drives timelines and
    /// progress-triggered fault injection): every shuffle round, the end of
    /// the merge, and in the reduce stage each whole percent of overall
    /// progress. Map attempts send none; the AM has no use for them.
    ReduceProgress { attempt: AttemptId, phase: ReducePhase, progress: f64 },
}
