//! The attempt trace, which `alm_core::Am` appends to in both engines:
//! one [`TraceEvent`] per launch, completion, cancel and failure, in the
//! engine's integer nanoseconds. Every failure count is a query here.
//! *Temporal amplification* (Figs. 3/10) is the longest chain of repeated
//! failures of one task; *spatial amplification* (Fig. 4) the distinct
//! reduces preempted by `FetchFailureLimit`, injected tasks included;
//! Table II's *additional failures* the distinct reduces that failed for
//! any reason, except those that failed with the crashed node.
//! [`RunReport`] is one run as both engines report it, the trace included.

use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

use crate::failure::FailureKind;
use crate::id::{AttemptId, NodeId, TaskId};
use crate::state::TaskKind;

/// `Cancelled` is an end without failure: killed after a sibling finished,
/// or lost with an expired node after its task completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceKind {
    Launched { fcm: bool },
    Completed,
    Cancelled,
    Failed(FailureKind),
}

/// One attempt state change, on the node the attempt runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    pub at_ns: u64,
    pub attempt: AttemptId,
    pub node: NodeId,
    pub kind: TraceKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failure {
    pub at_ns: u64,
    pub attempt: AttemptId,
    pub kind: FailureKind,
}

impl Failure {
    /// Bit-equal to the simulator's `SimTime::as_secs_f64` of the instant.
    pub fn at_secs(&self) -> f64 {
        self.at_ns as f64 / 1e9
    }
}

/// The failure-derived fields of a campaign outcome (module doc).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureCounts {
    pub total_failures: usize,
    pub spatial_amplification: usize,
    pub temporal_amplification: usize,
    pub node_loss_failures: usize,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Trace(Vec<TraceEvent>);

impl Trace {
    pub fn push(&mut self, event: TraceEvent) {
        self.0.push(event);
    }

    /// Every attempt failure, in trace order.
    pub fn failures(&self) -> impl Iterator<Item = Failure> + '_ {
        self.0.iter().filter_map(|e| match e.kind {
            TraceKind::Failed(kind) => Some(Failure { at_ns: e.at_ns, attempt: e.attempt, kind }),
            _ => None,
        })
    }

    fn launch_events(&self) -> impl Iterator<Item = (&TraceEvent, bool)> {
        self.0.iter().filter_map(|e| match e.kind {
            TraceKind::Launched { fcm } => Some((e, fcm)),
            _ => None,
        })
    }

    pub fn launches(&self, kind: TaskKind) -> u32 {
        self.launch_events().filter(|(e, _)| e.attempt.task.kind == kind).count() as u32
    }

    pub fn fcm_launches(&self) -> u32 {
        self.launch_events().filter(|&(_, fcm)| fcm).count() as u32
    }

    /// The node each attempt of `task` was launched on, in attempt order.
    pub fn nodes_of(&self, task: TaskId) -> impl Iterator<Item = NodeId> + '_ {
        self.launch_events().filter(move |(e, _)| e.attempt.task == task).map(|(e, _)| e.node)
    }

    pub fn failure_counts(&self) -> FailureCounts {
        use FailureKind::*;
        let mut per_task: BTreeMap<TaskId, usize> = BTreeMap::new();
        let mut preempted = BTreeSet::new();
        let mut counts = FailureCounts::default();
        for Failure { attempt: AttemptId { task, .. }, kind, .. } in self.failures() {
            counts.total_failures += 1;
            *per_task.entry(task).or_default() += 1;
            if task.is_reduce() && kind == FetchFailureLimit {
                preempted.insert(task);
            }
            // Wildcard-free, so a new kind has to say whether it is a node loss.
            counts.node_loss_failures += match kind {
                NodeCrash => 1,
                TaskOom | FetchFailureLimit | TaskTimeout | SlowNode | NetworkPartition | DataCorruption => 0,
            };
        }
        counts.spatial_amplification = preempted.len();
        counts.temporal_amplification = per_task.values().map(|n| n - 1).max().unwrap_or(0);
        counts
    }

    /// Table II's additional failures (module doc).
    pub fn additional_failures(&self) -> usize {
        let crashed: BTreeSet<TaskId> =
            self.failures().filter(|f| f.kind == FailureKind::NodeCrash).map(|f| f.attempt.task).collect();
        let failed: BTreeSet<TaskId> =
            self.failures().map(|f| f.attempt.task).filter(|t| t.is_reduce()).collect();
        failed.difference(&crashed).count()
    }

    /// Failures of `task` after its first.
    pub fn repeats_of(&self, task: TaskId) -> usize {
        self.failures().filter(|f| f.attempt.task == task).count().saturating_sub(1)
    }

    /// Events in time order, each attempt's first event its launch, and at
    /// most one other event per attempt. Both engines assert it at the end
    /// of a debug-build run.
    pub fn check(&self) -> Result<(), String> {
        let mut ended: BTreeMap<AttemptId, bool> = BTreeMap::new();
        for (i, e) in self.0.iter().enumerate() {
            let launch = matches!(e.kind, TraceKind::Launched { .. });
            let in_order = i == 0 || self.0[i - 1].at_ns <= e.at_ns;
            match ended.insert(e.attempt, !launch) {
                None if launch && in_order => {}
                Some(false) if !launch && in_order => {}
                _ => return Err(format!("event {i} ({e:?}) is out of time order or of its attempt's life")),
            }
        }
        Ok(())
    }
}

/// One job run as both engines report it, in the trace's integer
/// nanoseconds. Each engine's own report holds it beside the fields only
/// that engine has.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RunReport {
    pub succeeded: bool,
    /// When the last reduce committed, or when the run gave up.
    pub job_ns: u64,
    pub trace: Trace,
    /// Per reduce index: `(ns, overall progress)` samples.
    pub progress: BTreeMap<u32, Vec<(u64, f64)>>,
    pub counters: RunCounters,
}

impl RunReport {
    /// Bit-equal to the simulator's `SimTime::as_secs_f64` of the job time.
    pub fn job_secs(&self) -> f64 {
        self.job_ns as f64 / 1e9
    }
}

/// The counters both engines keep. None of them is a failure: each event
/// is absorbed without charging a retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RunCounters {
    /// Fetched chunks that failed their arrival checksum. Each one
    /// regenerated the map's MOF and was fetched again.
    pub corruption_refetches: u32,
    /// Fetch transfers dropped by gray-degraded links and fetched again.
    pub degraded_drops: u32,
    /// Shuffle fetches served from the resident in-memory MOF cache
    /// instead of disk (zero unless the chain layer installed one).
    pub resident_fetch_hits: u64,
    /// Rotten committed-output replicas a verified DFS read skipped over,
    /// each queueing its block for re-replication.
    pub dfs_read_failovers: u32,
    /// Payload bytes the DFS repair pipeline copied to restore the
    /// replication level (the Fig. 13 replica-management axis).
    pub dfs_repair_bytes: u64,
    /// Corrupt committed-output replicas still unrepaired after the run.
    pub dfs_corrupt_replicas: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::JobId;

    fn trace(events: &[(AttemptId, TraceKind)]) -> Trace {
        let mut t = Trace::default();
        for (i, &(attempt, kind)) in events.iter().enumerate() {
            t.push(TraceEvent { at_ns: i as u64 * 1_000_000_000, attempt, node: NodeId(i as u32 % 3), kind });
        }
        t
    }

    fn failed(kind: FailureKind) -> TraceKind {
        TraceKind::Failed(kind)
    }

    #[test]
    fn spatial_counts_distinct_fetch_limited_reduces_only() {
        use FailureKind::{FetchFailureLimit, TaskOom};
        let j = JobId(0);
        let r = |i: u32, n: u32| TaskId::reduce(j, i).attempt(n);
        let mut events = vec![
            (r(1, 0), failed(FetchFailureLimit)),
            (r(1, 1), failed(FetchFailureLimit)),
            (r(2, 0), failed(FetchFailureLimit)),
            (r(3, 0), failed(TaskOom)),
            (TaskId::map(j, 0).attempt(0), failed(FetchFailureLimit)),
        ];
        assert_eq!(trace(&events).failure_counts().spatial_amplification, 2);
        // Reduce 3 was the injected task (its OOM); its relaunch is then
        // preempted by fetch failures. That counts: spatial amplification
        // does not exclude injected tasks, unlike Table II's count.
        events.push((r(3, 1), failed(FetchFailureLimit)));
        let counts = trace(&events).failure_counts();
        assert_eq!(counts.spatial_amplification, 3);
        assert_eq!(counts.total_failures, 6);
        assert_eq!(counts.node_loss_failures, 0);
    }

    #[test]
    fn temporal_is_the_longest_repeat_chain() {
        let j = JobId(0);
        let r0 = TaskId::reduce(j, 0);
        let events: Vec<_> = (0..3)
            .map(|n| (r0.attempt(n), failed(FailureKind::NodeCrash)))
            .chain([(TaskId::map(j, 1).attempt(0), failed(FailureKind::TaskOom))])
            .collect();
        let t = trace(&events);
        assert_eq!(t.failure_counts().temporal_amplification, 2);
        assert_eq!(t.failure_counts().node_loss_failures, 3);
        assert_eq!(t.repeats_of(r0), 2);
        assert_eq!(t.repeats_of(TaskId::map(j, 1)), 0);
        assert_eq!(Trace::default().failure_counts(), FailureCounts::default());
    }

    #[test]
    fn additional_failures_exclude_the_tasks_that_failed_with_the_node() {
        let j = JobId(0);
        let (r0, r1) = (TaskId::reduce(j, 0), TaskId::reduce(j, 1));
        let t = trace(&[
            (r0.attempt(0), failed(FailureKind::NodeCrash)),
            (r0.attempt(1), failed(FailureKind::FetchFailureLimit)),
            (r1.attempt(0), failed(FailureKind::FetchFailureLimit)),
            (r1.attempt(1), TraceKind::Launched { fcm: false }),
            (TaskId::map(j, 0).attempt(0), failed(FailureKind::TaskOom)),
        ]);
        assert_eq!(t.additional_failures(), 1);
        assert_eq!(t.repeats_of(r0), 1);
    }

    #[test]
    fn check_rejects_disorder_and_events_outside_an_attempts_life() {
        let a = TaskId::map(JobId(0), 0).attempt(0);
        let launched = TraceKind::Launched { fcm: false };
        assert_eq!(trace(&[(a, launched), (a, TraceKind::Completed)]).check(), Ok(()));
        for events in [
            vec![(a, TraceKind::Completed)],
            vec![(a, launched), (a, launched)],
            vec![(a, launched), (a, TraceKind::Cancelled), (a, failed(FailureKind::NodeCrash))],
        ] {
            assert!(trace(&events).check().is_err(), "{events:?}");
        }
        let mut t = trace(&[(a, launched)]);
        t.push(TraceEvent { at_ns: 0, attempt: a, node: NodeId(0), kind: TraceKind::Completed });
        t.0[0].at_ns = 1;
        assert!(t.check().is_err(), "out of time order");
    }

    #[test]
    fn launches_count_by_kind_fcm_and_node() {
        let j = JobId(0);
        let r0 = TaskId::reduce(j, 0);
        let t = trace(&[
            (TaskId::map(j, 0).attempt(0), TraceKind::Launched { fcm: false }),
            (r0.attempt(0), TraceKind::Launched { fcm: false }),
            (r0.attempt(0), TraceKind::Failed(FailureKind::NodeCrash)),
            (r0.attempt(1), TraceKind::Launched { fcm: true }),
            (TaskId::map(j, 0).attempt(0), TraceKind::Completed),
        ]);
        assert_eq!(t.launches(TaskKind::Map), 1);
        assert_eq!(t.launches(TaskKind::Reduce), 2);
        assert_eq!(t.fcm_launches(), 1);
        assert_eq!(t.nodes_of(r0).collect::<Vec<_>>(), [NodeId(1), NodeId(0)]);
        let f: Vec<Failure> = t.failures().collect();
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].attempt, f[0].at_secs()), (r0.attempt(0), 2.0));
    }
}
