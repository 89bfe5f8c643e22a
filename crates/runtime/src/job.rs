//! Job definitions for the threaded engine.

use alm_shuffle::{Combiner, KeyCmp};
use alm_types::{AlmConfig, JobId, TaskId};
use alm_workloads::Workload;
use std::sync::Arc;

/// One job to execute on the mini-cluster.
#[derive(Clone)]
pub struct JobDef {
    pub id: JobId,
    pub workload: Arc<dyn Workload>,
    pub num_maps: u32,
    pub num_reduces: u32,
    /// Input-generation seed (re-executed maps regenerate identical input).
    pub seed: u64,
    pub alm: AlmConfig,
}

impl JobDef {
    pub fn new(
        id: JobId,
        workload: Arc<dyn Workload>,
        num_maps: u32,
        num_reduces: u32,
        seed: u64,
        alm: AlmConfig,
    ) -> JobDef {
        JobDef { id, workload, num_maps, num_reduces, seed, alm }
    }

    /// The job's key order: bytewise for every workload (see [`KeyCmp`]).
    pub fn key_cmp(&self) -> KeyCmp {
        KeyCmp
    }

    /// The workload's combiner, if it has one.
    pub fn combiner(&self) -> Option<Combiner> {
        // Probe: a workload without a combiner returns None for any input.
        let w = self.workload.clone();
        w.combine(b"", &[])?;
        Some(Arc::new(move |k: &[u8], vals: &[Vec<u8>]| w.combine(k, vals)))
    }

    pub fn map_task(&self, index: u32) -> TaskId {
        TaskId::map(self.id, index)
    }

    pub fn reduce_task(&self, index: u32) -> TaskId {
        TaskId::reduce(self.id, index)
    }

    /// DFS path of a committed reduce partition output.
    pub fn output_path(&self, reduce_index: u32) -> String {
        format!("/out/{}/part-{reduce_index:05}", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::RecoveryMode;
    use alm_workloads::{Terasort, Wordcount};

    fn def(w: Arc<dyn Workload>) -> JobDef {
        JobDef::new(JobId(1), w, 4, 2, 7, AlmConfig::with_mode(RecoveryMode::Baseline))
    }

    #[test]
    fn combiner_delegates() {
        let d = def(Arc::new(Terasort::small()));
        assert!(d.combiner().is_none(), "terasort has no combiner");

        let d = def(Arc::new(Wordcount::small()));
        assert!(d.combiner().is_some(), "wordcount combines");
    }

    #[test]
    fn paths_and_ids() {
        let d = def(Arc::new(Terasort::small()));
        assert_eq!(d.map_task(3).to_string(), "task_0001_m_000003");
        assert_eq!(d.output_path(1), "/out/job_0001/part-00001");
    }
}
