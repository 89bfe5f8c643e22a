//! Job specifications: which workload, how much input, how many reducers.

use serde::Serialize;

use crate::model::WorkloadModel;
use crate::{KMeans, Pagerank, SecondarySort, Terasort, Wordcount, Workload};

/// The evaluation workloads, as a value (for configs/CLI): the paper's
/// three single-job workloads plus the two iterative shapes the in-memory
/// chain layer (`alm-mem`) drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum WorkloadKind {
    Terasort,
    Wordcount,
    SecondarySort,
    Pagerank,
    KMeans,
}

impl WorkloadKind {
    /// The paper's three single-job workloads (§V-A). Iterative kinds are
    /// deliberately excluded: single-job experiment sweeps iterate this.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::Terasort, WorkloadKind::Wordcount, WorkloadKind::SecondarySort];

    /// The iterative workloads driven by job chains.
    pub const ITERATIVE: [WorkloadKind; 2] = [WorkloadKind::Pagerank, WorkloadKind::KMeans];

    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Terasort => "terasort",
            WorkloadKind::Wordcount => "wordcount",
            WorkloadKind::SecondarySort => "secondarysort",
            WorkloadKind::Pagerank => "pagerank",
            WorkloadKind::KMeans => "kmeans",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s.to_ascii_lowercase().as_str() {
            "terasort" => Some(WorkloadKind::Terasort),
            "wordcount" => Some(WorkloadKind::Wordcount),
            "secondarysort" | "secondary-sort" => Some(WorkloadKind::SecondarySort),
            "pagerank" => Some(WorkloadKind::Pagerank),
            "kmeans" | "k-means" => Some(WorkloadKind::KMeans),
            _ => None,
        }
    }

    /// The analytic model for the simulator.
    pub fn model(&self) -> WorkloadModel {
        match self {
            WorkloadKind::Terasort => Terasort::small().model(),
            WorkloadKind::Wordcount => Wordcount::small().model(),
            WorkloadKind::SecondarySort => SecondarySort::small().model(),
            WorkloadKind::Pagerank => Pagerank::small().model(),
            WorkloadKind::KMeans => KMeans::small().model(),
        }
    }

    /// The input sizes the paper uses for this workload in §V-B
    /// (Terasort 100 GB, Wordcount 10 GB, Secondarysort 10 GB); the
    /// iterative kinds use 10 GB per iteration, matching the paper's
    /// smaller-job scale.
    pub fn paper_input_gb(&self) -> u64 {
        match self {
            WorkloadKind::Terasort => 100,
            WorkloadKind::Wordcount => 10,
            WorkloadKind::SecondarySort => 10,
            WorkloadKind::Pagerank => 10,
            WorkloadKind::KMeans => 10,
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One job to run: the unit of the experiment runners.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    pub workload: WorkloadKind,
    pub input_bytes: u64,
    pub num_reduces: u32,
}

impl JobSpec {
    pub fn new(workload: WorkloadKind, input_bytes: u64, num_reduces: u32) -> JobSpec {
        JobSpec { workload, input_bytes, num_reduces }
    }

    /// Map count given the DFS block size (one split per block, like
    /// Hadoop's FileInputFormat).
    pub fn num_maps(&self, block_size: u64) -> u32 {
        if self.input_bytes == 0 {
            return 0;
        }
        (self.input_bytes.div_ceil(block_size.max(1))).min(u32::MAX as u64) as u32
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.input_bytes == 0 {
            return Err("input size must be nonzero".into());
        }
        if self.num_reduces == 0 {
            return Err("at least one reduce task is required".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(k.name()), Some(k));
        }
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn map_count_follows_blocks() {
        let j = JobSpec::new(WorkloadKind::Terasort, 1000, 4);
        assert_eq!(j.num_maps(128), 8); // ceil(1000/128)
        assert_eq!(j.num_maps(1000), 1);
        assert_eq!(JobSpec::new(WorkloadKind::Terasort, 0, 4).num_maps(128), 0);
    }

    #[test]
    fn paper_sizes() {
        assert_eq!(WorkloadKind::Terasort.paper_input_gb(), 100);
        assert_eq!(WorkloadKind::Wordcount.paper_input_gb(), 10);
        assert_eq!(WorkloadKind::SecondarySort.paper_input_gb(), 10);
    }

    #[test]
    fn validation() {
        assert!(JobSpec::new(WorkloadKind::Wordcount, 0, 1).validate().is_err());
        assert!(JobSpec::new(WorkloadKind::Wordcount, 10, 0).validate().is_err());
        assert!(JobSpec::new(WorkloadKind::Wordcount, 10, 1).validate().is_ok());
    }

    #[test]
    fn model_matches_kind() {
        for k in WorkloadKind::ALL.into_iter().chain(WorkloadKind::ITERATIVE) {
            assert_eq!(k.model().name, k.name());
        }
    }

    #[test]
    fn iterative_kinds_parse_and_stay_out_of_all() {
        for k in WorkloadKind::ITERATIVE {
            assert_eq!(WorkloadKind::parse(k.name()), Some(k));
            assert!(!WorkloadKind::ALL.contains(&k), "ALL stays the paper's three");
            assert_eq!(k.paper_input_gb(), 10);
        }
        assert_eq!(WorkloadKind::parse("k-means"), Some(WorkloadKind::KMeans));
    }
}
