//! Simulation outputs.

use alm_metrics::Timeline;
use alm_types::RunReport;
use serde::Serialize;

/// Everything one simulated run produced: the run as both engines report
/// it, and what only the simulator measures.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimReport {
    pub run: RunReport,
    /// `run.job_secs()`, kept for `benchmark/` until ROADMAP item 14 step 2.
    pub job_secs: f64,
    /// Virtual time the map phase finished (all maps' first completion).
    pub map_phase_secs: f64,
    /// Analytics-log snapshots taken.
    pub alg_snapshots: u64,
    /// ALG snapshots lost to record rot (recovery truncated at the bad
    /// record and fell back one logging interval).
    pub log_truncations: u32,
    /// Bytes moved across rack uplinks (replication / cross-rack shuffle).
    pub uplink_bytes: u64,
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
        if let Some(samples) = self.run.progress.get(&reduce_index) {
            for &(t, p) in samples {
                tl.sample(t as f64 / 1e9, p);
            }
        }
        for f in self.run.trace.failures() {
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
        rep.run.progress.insert(0, vec![(0, 0.0), (10_000_000_000, 0.5)]);
        let attempt = TaskId::reduce(JobId(0), 0).attempt(0);
        let event = |at_ns, kind| TraceEvent { at_ns, attempt, node: NodeId(0), kind };
        rep.run.trace.push(event(0, TraceKind::Launched { fcm: false }));
        rep.run.trace.push(event(5_000_000_000, TraceKind::Failed(FailureKind::NodeCrash)));
        let tl = rep.timeline_of(0, "reduce 0");
        assert_eq!(tl.samples.len(), 2);
        assert_eq!(tl.annotations.len(), 1);
        assert_eq!(tl.annotations[0].at_secs, 5.0);
    }
}
