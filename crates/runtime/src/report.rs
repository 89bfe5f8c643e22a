//! Job execution reports.

use alm_core::RecoveryReport;
use alm_types::{FailureKind, RunReport, TaskId};
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

/// Everything a finished (or abandoned) job run produced: the run as both
/// engines report it, and what only the runtime records.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// In nanoseconds since the job started.
    pub run: RunReport,
    /// Output records committed per reduce partition.
    pub output_records: BTreeMap<u32, u64>,
    /// Every analytics-log recovery the AM observed, with forensics.
    pub log_recoveries: Vec<LogRecoveryEvent>,
    // Copies of what `run` says, filled from it at the end of the run and
    // kept for `benchmark/` until ROADMAP item 14 step 2 (with item 13).
    pub succeeded: bool,
    pub job_time_ms: u64,
    pub map_attempts: u32,
    pub reduce_attempts: u32,
    pub fcm_attempts: u32,
    /// The trace's failure view in milliseconds.
    pub failures: Vec<FailureEvent>,
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
