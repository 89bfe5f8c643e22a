//! Job execution reports.

use alm_core::RecoveryReport;
use alm_types::{FailureKind, TaskId, Trace};
use std::collections::BTreeMap;

/// One observed task failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureEvent {
    pub at_ms: u64,
    pub task: TaskId,
    pub attempt_number: u32,
    pub kind: FailureKind,
}

/// One analytics-log recovery with its truncation forensics.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecoveryEvent {
    pub task: TaskId,
    pub attempt_number: u32,
    pub report: RecoveryReport,
}

/// Everything a finished (or abandoned) job run produced.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    pub succeeded: bool,
    pub job_time_ms: u64,
    /// Every attempt state change, in nanoseconds since the job started.
    pub trace: Trace,
    /// The trace's failure view in milliseconds, kept as a list for the
    /// benchmark's readers until ROADMAP item 13's benchmark revision.
    pub failures: Vec<FailureEvent>,
    /// Total map / reduce attempts launched (first attempts included).
    pub map_attempts: u32,
    pub reduce_attempts: u32,
    /// Attempts launched in FCM mode.
    pub fcm_attempts: u32,
    /// Output records committed per reduce partition.
    pub output_records: BTreeMap<u32, u64>,
    /// Reduce-phase progress samples per reduce index: `(ms, progress)`.
    pub reduce_timeline: BTreeMap<u32, Vec<(u64, f64)>>,
    /// Checksum-mismatch fetches reported by reducers. Each one triggered
    /// a map regeneration + transparent re-fetch — never a fetch-failure
    /// report, never a `FetchFailureLimit` preemption.
    pub corruption_refetches: u32,
    /// Fetch transfers dropped by degraded (gray) links and transparently
    /// retried — like `corruption_refetches`, never charged to the fetch
    /// retry budget.
    pub degraded_drops: u32,
    /// Fetches served from the chain layer's resident in-memory MOF cache
    /// instead of disk (zero unless `alm-mem` installed a cache).
    pub resident_fetch_hits: u64,
    /// Every analytics-log recovery the AM observed, with forensics.
    pub log_recoveries: Vec<LogRecoveryEvent>,
}

impl JobReport {
    /// True when every observed analytics-log recovery redid at most one
    /// logging interval of work — the bounded-recovery guarantee that must
    /// hold even when log records were corrupted.
    pub fn recoveries_bounded(&self) -> bool {
        self.log_recoveries.iter().all(|e| e.report.bounded_by_one_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::JobId;

    #[test]
    fn recovery_bounds() {
        let mut report = JobReport::default();
        assert!(report.recoveries_bounded());
        report.log_recoveries.push(LogRecoveryEvent {
            task: TaskId::reduce(JobId(0), 0),
            attempt_number: 1,
            report: RecoveryReport {
                resumed_seq: Some(1),
                truncated_at_seq: Some(2),
                discarded_records: 3,
                checksum_mismatches: 1,
                output_lost: false,
            },
        });
        assert!(report.recoveries_bounded(), "truncating right after the resume point is bounded");
        report.log_recoveries.push(LogRecoveryEvent {
            task: TaskId::reduce(JobId(0), 1),
            attempt_number: 1,
            report: RecoveryReport { resumed_seq: Some(0), truncated_at_seq: Some(4), ..Default::default() },
        });
        assert!(!report.recoveries_bounded(), "a 4-record gap exceeds one snapshot interval");
    }
}
