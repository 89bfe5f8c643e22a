//! Task kinds and the phases of a running ReduceTask.

use serde::Serialize;
use std::fmt;

/// Map or reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum TaskKind {
    Map,
    Reduce,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Map => write!(f, "map"),
            TaskKind::Reduce => write!(f, "reduce"),
        }
    }
}

/// The internal phase of a running ReduceTask.
///
/// The paper's analytics logging applies stage-specific strategies (Fig. 6):
/// the shuffle stage logs MOF ids plus intermediate file paths, the merge
/// stage only intermediate file paths, the reduce stage the MPQ structure
/// (file paths + offsets) with the record stored on HDFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum ReducePhase {
    /// Fetching MOF partitions from map-side nodes; background merging.
    Shuffle,
    /// All segments local; merging down to `io.sort.factor` inputs.
    Merge,
    /// Traversing the MPQ and applying the user reduce function.
    Reduce,
}

impl fmt::Display for ReducePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReducePhase::Shuffle => write!(f, "shuffle"),
            ReducePhase::Merge => write!(f, "merge"),
            ReducePhase::Reduce => write!(f, "reduce"),
        }
    }
}

impl ReducePhase {
    /// Phases in execution order.
    pub const ALL: [ReducePhase; 3] = [ReducePhase::Shuffle, ReducePhase::Merge, ReducePhase::Reduce];

    /// The phase following this one, if any.
    pub fn next(&self) -> Option<ReducePhase> {
        match self {
            ReducePhase::Shuffle => Some(ReducePhase::Merge),
            ReducePhase::Merge => Some(ReducePhase::Reduce),
            ReducePhase::Reduce => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_phases_progress_in_order() {
        assert_eq!(ReducePhase::Shuffle.next(), Some(ReducePhase::Merge));
        assert_eq!(ReducePhase::Merge.next(), Some(ReducePhase::Reduce));
        assert_eq!(ReducePhase::Reduce.next(), None);
        assert!(ReducePhase::Shuffle < ReducePhase::Reduce);
    }
}
