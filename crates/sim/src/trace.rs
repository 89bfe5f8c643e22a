//! Simulation outputs.

use alm_metrics::Timeline;
use alm_types::Trace;
use serde::Serialize;
use std::collections::BTreeMap;

/// Everything one simulated run produced.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimReport {
    pub succeeded: bool,
    pub job_secs: f64,
    /// Virtual time the map phase finished (all maps' first completion).
    pub map_phase_secs: f64,
    /// Every attempt state change, in virtual nanoseconds.
    pub trace: Trace,
    pub map_attempts: u32,
    pub reduce_attempts: u32,
    pub fcm_attempts: u32,
    /// Per reduce index: `(secs, overall progress)` samples.
    pub reduce_progress: BTreeMap<u32, Vec<(f64, f64)>>,
    /// Analytics-log snapshots taken.
    pub alg_snapshots: u64,
    /// Fetched chunks that failed arrival checksum validation and were
    /// transparently re-fetched after MOF regeneration (never charged to
    /// the retry budget).
    pub corruption_refetches: u32,
    /// Fetch transfers dropped by gray-degraded links and transparently
    /// re-fetched (never charged to the retry budget).
    pub degraded_drops: u32,
    /// ALG snapshots lost to record rot (recovery truncated at the bad
    /// record and fell back one logging interval).
    pub log_truncations: u32,
    /// Bytes moved across rack uplinks (replication / cross-rack shuffle).
    pub uplink_bytes: u64,
    /// Rotten committed-output replicas a verified DFS read skipped over
    /// (each also queued the block for re-replication).
    pub dfs_read_failovers: u32,
    /// Payload bytes the DFS repair pipeline copied to restore the
    /// replication level (the Fig. 13 replica-management axis).
    pub dfs_repair_bytes: u64,
    /// Corrupt committed-output replicas still un-repaired at end of run.
    pub dfs_corrupt_replicas: u32,
    /// Shuffle fetches served from the resident in-memory MOF cache — the
    /// Stage-1 disk read is skipped entirely (chain-layer memory mode).
    pub resident_fetch_hits: u64,
    /// Resident MOF copies wiped by node crashes (RAM does not survive).
    pub resident_invalidations: u32,
    /// Events processed (diagnostic).
    pub events: u64,
}

impl SimReport {
    /// Build an annotated timeline of one reduce task's progress for the
    /// profiling figures (3, 4, 10).
    pub fn timeline_of(&self, reduce_index: u32, name: impl Into<String>) -> Timeline {
        let mut tl = Timeline::new(name);
        if let Some(samples) = self.reduce_progress.get(&reduce_index) {
            for &(t, p) in samples {
                tl.sample(t, p);
            }
        }
        for f in self.trace.failures() {
            tl.annotate(
                f.at_secs(),
                format!("{} attempt {} failed: {}", f.attempt.task, f.attempt.number, f.kind),
            );
        }
        tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::{FailureKind, JobId, NodeId, TaskId, TraceEvent, TraceKind};

    #[test]
    fn timeline_collects_samples_and_annotations() {
        let mut rep = SimReport::default();
        rep.reduce_progress.insert(0, vec![(0.0, 0.0), (10.0, 0.5)]);
        let attempt = TaskId::reduce(JobId(0), 0).attempt(0);
        let event = |at_ns, kind| TraceEvent { at_ns, attempt, node: NodeId(0), kind };
        rep.trace.push(event(0, TraceKind::Launched { fcm: false }));
        rep.trace.push(event(5_000_000_000, TraceKind::Failed(FailureKind::NodeCrash)));
        let tl = rep.timeline_of(0, "reduce 0");
        assert_eq!(tl.samples.len(), 2);
        assert_eq!(tl.annotations.len(), 1);
        assert_eq!(tl.annotations[0].at_secs, 5.0);
    }
}
