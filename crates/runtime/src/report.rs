//! Job execution reports.

use alm_core::RecoveryReport;
use alm_types::{FailureKind, TaskId};
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
    /// Every task failure the AM observed, in time order.
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

    /// Count of failures with the given kind (e.g. zero `NodeCrash` under
    /// a healing partition is the transient-no-node-loss invariant).
    pub fn failures_of_kind(&self, kind: FailureKind) -> usize {
        self.failures.iter().filter(|f| f.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::JobId;

    fn fe(ms: u64, task: TaskId) -> FailureEvent {
        FailureEvent { at_ms: ms, task, attempt_number: 0, kind: FailureKind::NodeCrash }
    }

    #[test]
    fn recovery_bounds_and_kind_counts() {
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
        report.failures.push(fe(5, TaskId::reduce(JobId(0), 2)));
        assert_eq!(report.failures_of_kind(FailureKind::NodeCrash), 1);
        assert_eq!(report.failures_of_kind(FailureKind::FetchFailureLimit), 0);
    }
}
