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
    /// Overall task progress from a fraction of this phase (Hadoop's
    /// thirds: shuffle, merge and reduce each contribute a third).
    pub fn overall(self, frac: f64) -> f64 {
        match self {
            ReducePhase::Shuffle => frac / 3.0,
            ReducePhase::Merge => 1.0 / 3.0 + frac / 3.0,
            ReducePhase::Reduce => 2.0 / 3.0 + frac / 3.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_phase_is_a_third_of_overall_progress() {
        assert_eq!(ReducePhase::Shuffle.overall(0.0), 0.0);
        assert_eq!(ReducePhase::Shuffle.overall(1.0), 1.0 / 3.0);
        assert_eq!(ReducePhase::Merge.overall(0.0), 1.0 / 3.0);
        assert_eq!(ReducePhase::Merge.overall(1.0), 2.0 / 3.0);
        assert_eq!(ReducePhase::Reduce.overall(0.5), 2.0 / 3.0 + 0.5 / 3.0);
        assert_eq!(ReducePhase::Reduce.overall(1.0), 1.0);
    }
}
