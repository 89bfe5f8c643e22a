//! Identifiers for jobs, tasks, task attempts, nodes and racks.
//!
//! The identifier scheme mirrors Hadoop's: a job contains tasks, a task is
//! retried as numbered attempts. All ids are small `Copy` types so they can
//! be passed around freely inside both the threaded runtime and the
//! discrete-event simulator.

use serde::Serialize;
use std::fmt;

use crate::state::TaskKind;

/// Identifier of one MapReduce job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job_{:04}", self.0)
    }
}

/// Identifier of one logical task (a map or a reduce) within a job.
///
/// A task identity is stable across re-executions; individual executions are
/// [`AttemptId`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TaskId {
    pub job: JobId,
    pub kind: TaskKind,
    /// Index of the task within its kind: map 0..num_maps, reduce 0..num_reduces.
    pub index: u32,
}

impl TaskId {
    pub fn map(job: JobId, index: u32) -> Self {
        TaskId { job, kind: TaskKind::Map, index }
    }

    pub fn reduce(job: JobId, index: u32) -> Self {
        TaskId { job, kind: TaskKind::Reduce, index }
    }

    pub fn is_map(&self) -> bool {
        self.kind == TaskKind::Map
    }

    pub fn is_reduce(&self) -> bool {
        self.kind == TaskKind::Reduce
    }

    /// First attempt of this task.
    pub fn attempt(self, number: u32) -> AttemptId {
        AttemptId { task: self, number }
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            TaskKind::Map => 'm',
            TaskKind::Reduce => 'r',
        };
        write!(f, "task_{:04}_{}_{:06}", self.job.0, k, self.index)
    }
}

/// Identifier of one execution attempt of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct AttemptId {
    pub task: TaskId,
    /// Zero-based attempt number; re-executions and speculative copies get
    /// fresh numbers.
    pub number: u32,
}

impl AttemptId {
    /// The next attempt of the same task.
    pub fn next(self) -> AttemptId {
        AttemptId { task: self.task, number: self.number + 1 }
    }
}

impl fmt::Display for AttemptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attempt_{}_{}", self.task, self.number)
    }
}

/// Identifier of a compute node (a NodeManager host in YARN terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{:03}", self.0)
    }
}

/// Identifier of a rack; used by the DFS placement policy and by the
/// rack-level log replication experiments (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RackId(pub u32);

// Maps keyed by id types serialise with the numeric id as the JSON object
// key, the same shape real serde_json gives integer-keyed maps.
macro_rules! impl_json_key_id {
    ($($t:ident),+) => {$(
        impl serde::JsonKey for $t {
            fn to_key(&self) -> String {
                self.0.to_string()
            }
        }
    )+};
}

impl_json_key_id!(JobId, NodeId, RackId);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{:02}", self.0)
    }
}

/// The rack of `worker` under the shared round-robin placement, `worker %
/// racks` (a rack count of 0 counts as 1). Every engine, the DFS topology
/// and the chaos lowering place workers through this one rule.
pub fn rack_of(worker: u32, racks: u32) -> u32 {
    worker % racks.max(1)
}

/// Workers `0..workers` placed in `rack` by [`rack_of`]; a rack index past
/// the rack count wraps onto `rack_of(rack, racks)`.
pub fn rack_members(workers: u32, racks: u32, rack: u32) -> impl Iterator<Item = u32> {
    let rack = rack_of(rack, racks);
    (0..workers).filter(move |&w| rack_of(w, racks) == rack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_hadoop_like() {
        let job = JobId(7);
        let m = TaskId::map(job, 42);
        let r = TaskId::reduce(job, 3);
        assert_eq!(job.to_string(), "job_0007");
        assert_eq!(m.to_string(), "task_0007_m_000042");
        assert_eq!(r.to_string(), "task_0007_r_000003");
        assert_eq!(m.attempt(0).to_string(), "attempt_task_0007_m_000042_0");
    }

    #[test]
    fn racks_follow_modulo_placement() {
        assert_eq!(rack_of(5, 2), 1);
        assert_eq!(rack_of(5, 0), 0, "a rack count of 0 counts as 1");
        assert_eq!(rack_members(6, 2, 0).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(rack_members(6, 2, 1).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(rack_members(6, 2, 2).collect::<Vec<_>>(), vec![0, 2, 4], "rack 2 wraps onto rack 0");
        assert_eq!(rack_members(3, 0, 7).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn attempt_next_increments() {
        let a = TaskId::reduce(JobId(1), 0).attempt(0);
        assert_eq!(a.next().number, 1);
        assert_eq!(a.next().task, a.task);
    }

    #[test]
    fn kinds_are_queryable() {
        assert!(TaskId::map(JobId(0), 0).is_map());
        assert!(!TaskId::map(JobId(0), 0).is_reduce());
        assert!(TaskId::reduce(JobId(0), 0).is_reduce());
    }

    #[test]
    fn ids_order_by_job_then_kind_then_index() {
        let a = TaskId::map(JobId(1), 5);
        let b = TaskId::map(JobId(2), 0);
        assert!(a < b);
        // Within a job maps sort before reduces (enum order).
        let m = TaskId::map(JobId(1), 9);
        let r = TaskId::reduce(JobId(1), 0);
        assert!(m < r);
    }
}
