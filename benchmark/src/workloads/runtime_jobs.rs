//! The three `runtime-*` workloads: real Terasort jobs on the threaded
//! mini-YARN (`alm-runtime`), real bytes through the real data plane.
//!
//! * `runtime-clean` — fault-free jobs in `Baseline`: `gen_split`,
//!   kvbuffer spill-sort, MOF, frame CRC, fetch, merge, MPQ, reduce, DFS
//!   commit. ALG, FCM and recovery code stay idle.
//! * `runtime-alg` — the same engine *writing* through `core::alg` and
//!   `dfs`: `SfmAlg` with a 1 ms logging interval, so every reduce-stage
//!   safe point snapshots (the paper's 5 s-on-minutes proportion, Fig. 12).
//!   Each job is paired with a `Baseline` job on the same input.
//! * `runtime-crash` — the same layers *reading*: a node is crashed early
//!   in the reduce phase, so the job goes through liveness detection, map
//!   regeneration, `recover_state`, `PartialOutput::restore`, verified DFS
//!   reads and `collective_merge`. Each job is paired with a fault-free
//!   job in the same mode.
//!
//! Every job runs on a fresh `MiniCluster::for_tests(NODES)` and its
//! committed DFS output is decoded and compared with the reference
//! executor's canonical output.

use std::sync::Arc;

use alm_runtime::{am::run_job, FaultPlan, JobDef, JobReport, MiniCluster};
use alm_shuffle::LocalFs;
use alm_types::{AlmConfig, JobId, NodeId, RecoveryMode};
use alm_workloads::reference::{canonicalize, reference_output};
use alm_workloads::{Record, Terasort, Workload as MrWorkload};
use bytes::Bytes;

use crate::clock;
use crate::harness::{Measurement, OpOutcome, Role, Workload};
use crate::metrics::Metrics;
use crate::trace::Recorder;
use crate::{replay, stats};

pub const NODES: u32 = 5;

/// What one `runtime-*` workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub maps: u32,
    pub reduces: u32,
    pub records_per_map: u32,
    /// Recovery mode of the primary jobs.
    pub mode: RecoveryMode,
    pub logging_interval_ms: u64,
    /// Crash node 1 when reducer 0 reaches 5 % progress (primary jobs
    /// only).
    pub crash: bool,
    /// What each primary job is paired with: a reference job on the same
    /// input in this mode, fault-free. `None` runs primaries only.
    pub reference_mode: Option<RecoveryMode>,
    /// Primary jobs per cycle.
    pub jobs_per_cycle: usize,
}

pub const CLEAN: Shape = Shape {
    maps: 6,
    reduces: 3,
    records_per_map: 30_000,
    mode: RecoveryMode::Baseline,
    logging_interval_ms: 5_000,
    crash: false,
    reference_mode: None,
    jobs_per_cycle: 8,
};

pub const ALG: Shape = Shape {
    maps: 6,
    reduces: 3,
    records_per_map: 5_000,
    mode: RecoveryMode::SfmAlg,
    logging_interval_ms: 1,
    crash: false,
    reference_mode: Some(RecoveryMode::Baseline),
    jobs_per_cycle: 2,
};

pub const CRASH: Shape = Shape {
    maps: 6,
    reduces: 3,
    records_per_map: 30_000,
    mode: RecoveryMode::SfmAlg,
    logging_interval_ms: 50,
    crash: true,
    reference_mode: Some(RecoveryMode::SfmAlg),
    jobs_per_cycle: 4,
};

impl Shape {
    /// Generated input bytes of one job.
    pub fn input_bytes(&self) -> u64 {
        u64::from(self.maps)
            * u64::from(self.records_per_map)
            * alm_workloads::model::constants::TERASORT_RECORD_WIRE
    }
}

pub struct RuntimeJobs {
    shape: Shape,
    seed: u64,
    workload: Arc<dyn MrWorkload>,
    /// `canonicalize(reference_output(..))` for the run's one input.
    oracle: Vec<Record>,
}

/// Engine counters of one job, from its `JobReport`.
pub struct RuntimeDetail {
    /// Process CPU seconds (user + system, all threads) over the op's
    /// timed part.
    pub cpu_s: f64,
    pub map_attempts: u32,
    pub reduce_attempts: u32,
    pub fcm_attempts: u32,
    pub failures: usize,
    pub alg_records: u64,
    pub log_recoveries: usize,
    /// Job-clock seconds of the first failure the AM observed.
    pub first_failure_at_s: Option<f64>,
    pub job_time_s: f64,
}

impl RuntimeJobs {
    pub fn new(shape: Shape, seed: u64) -> RuntimeJobs {
        let workload: Arc<dyn MrWorkload> = Arc::new(Terasort::new(shape.records_per_map));
        let oracle = canonicalize(&reference_output(workload.as_ref(), shape.maps, shape.reduces, seed));
        RuntimeJobs::with_oracle(shape, seed, workload, oracle)
    }

    /// Build around a caller-supplied oracle (the wrong-oracle test).
    pub fn with_oracle(
        shape: Shape,
        seed: u64,
        workload: Arc<dyn MrWorkload>,
        oracle: Vec<Record>,
    ) -> RuntimeJobs {
        RuntimeJobs { shape, seed, workload, oracle }
    }

    /// Role, recovery mode and fault plan of op `index`: with a reference
    /// mode, reference and primary jobs alternate one for one.
    fn op(&self, index: usize) -> (Role, RecoveryMode, FaultPlan) {
        match self.shape.reference_mode {
            Some(mode) if index.is_multiple_of(2) => (Role::Reference, mode, FaultPlan::none()),
            _ if self.shape.crash => {
                (Role::Primary, self.shape.mode, FaultPlan::crash_node_at_reduce_progress(NodeId(1), 0, 0.05))
            }
            _ => (Role::Primary, self.shape.mode, FaultPlan::none()),
        }
    }

    /// Decode the committed partitions and compare them, order-
    /// insensitively, with the oracle.
    fn output_matches_oracle(&self, cluster: &MiniCluster, job: &JobDef) -> bool {
        let mut got: Vec<(Bytes, Bytes)> = Vec::with_capacity(self.oracle.len());
        for r in 0..job.num_reduces {
            let Ok(data) = cluster.dfs.read(&job.output_path(r)) else { return false };
            let mut off = 0;
            loop {
                match alm_shuffle::codec::decode_at(&data, off) {
                    Ok(Some((k, v, next))) => {
                        got.push((k, v));
                        off = next;
                    }
                    Ok(None) => break,
                    Err(_) => return false,
                }
            }
        }
        got.sort_unstable_by(|a, b| (&a.0[..], &a.1[..]).cmp(&(&b.0[..], &b.1[..])));
        got.len() == self.oracle.len()
            && got
                .iter()
                .zip(&self.oracle)
                .all(|((k, v), want)| k[..] == want.key[..] && v[..] == want.value[..])
    }
}

impl Workload for RuntimeJobs {
    type Detail = RuntimeDetail;

    fn cycle_len(&self) -> usize {
        self.shape.jobs_per_cycle * if self.shape.reference_mode.is_some() { 2 } else { 1 }
    }

    fn run_op(&mut self, index: usize, rec: &mut Recorder) -> (OpOutcome, RuntimeDetail) {
        let (role, mode, plan) = self.op(index);
        let alm =
            AlmConfig { logging_interval_ms: self.shape.logging_interval_ms, ..AlmConfig::with_mode(mode) };
        let job =
            JobDef::new(JobId(0), self.workload.clone(), self.shape.maps, self.shape.reduces, self.seed, alm);
        // Reference ops record under their own span names, so a layer's
        // `busy_s` describes the primary jobs only.
        let (new_span, run_span) = match role {
            Role::Primary => ("runtime.cluster_new", "runtime.run_job"),
            Role::Reference => ("ref.runtime.cluster_new", "ref.runtime.run_job"),
        };

        let cpu0 = clock::process_cpu_secs();
        let start = clock::now();
        let cluster = rec.span(new_span, || Arc::new(MiniCluster::for_tests(NODES)));
        let report: JobReport = rec.span(run_span, || run_job(cluster.clone(), job.clone(), plan));
        let secs = clock::secs_since(start);
        let cpu_s = clock::process_cpu_secs() - cpu0;

        let ok = report.succeeded && rec.span("check.output", || self.output_matches_oracle(&cluster, &job));
        let detail = RuntimeDetail {
            cpu_s,
            map_attempts: report.map_attempts,
            reduce_attempts: report.reduce_attempts,
            fcm_attempts: report.fcm_attempts,
            failures: report.failures.len(),
            alg_records: alg_records_in_stores(&cluster),
            log_recoveries: report.log_recoveries.len(),
            first_failure_at_s: report.failures.first().map(|f| f.at_ms as f64 / 1000.0),
            job_time_s: report.job_time_ms as f64 / 1000.0,
        };
        // Which threads ran when is not reproducible; that the committed
        // bytes equal the oracle's is, and is all a rerun must repeat.
        let outcome =
            OpOutcome { role, secs, ok, work: self.shape.input_bytes(), fingerprint: u64::from(ok) };
        (outcome, detail)
    }
}

/// Analytics-log records present at job end: reduce-stage records on the
/// DFS plus shuffle/merge-stage records on the surviving nodes' stores.
/// Counted from outside because `JobReport::alg_records` is never
/// incremented by the engine.
fn alg_records_in_stores(cluster: &MiniCluster) -> u64 {
    let is_record = |p: &String| p.contains("/log-");
    let on_dfs = cluster.dfs.list("/alg/").iter().filter(|p| is_record(p)).count();
    let on_nodes: usize =
        cluster.nodes.iter().map(|n| n.fs.list("alg/").iter().filter(|p| is_record(p)).count()).sum();
    (on_dfs + on_nodes) as u64
}

/// Engine counters per primary job (means), CPU cost and parallelism, the
/// paired difference the shape exists to measure, where the recovery time
/// goes (crash shape), and the data-plane replay that budgets the CPU
/// time.
pub fn layer_metrics(m: &Measurement<RuntimeJobs>, out: &mut Metrics) {
    counters(m, out);
    replay::dataplane::run(&m.workload.shape, m.workload.seed, out);
}

fn counters(m: &Measurement<RuntimeJobs>, out: &mut Metrics) {
    let primary: Vec<_> = m.ops.iter().filter(|o| o.outcome.role == Role::Primary).collect();
    let per_job = |f: &dyn Fn(&RuntimeDetail) -> f64| -> f64 {
        stats::mean(&primary.iter().map(|o| f(&o.detail)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.set("runtime.map_attempts", per_job(&|d| f64::from(d.map_attempts)));
    out.set("runtime.reduce_attempts", per_job(&|d| f64::from(d.reduce_attempts)));
    out.set("runtime.fcm_attempts", per_job(&|d| f64::from(d.fcm_attempts)));
    out.set("runtime.failures", per_job(&|d| d.failures as f64));
    out.set("runtime.alg_records", per_job(&|d| d.alg_records as f64));
    out.set("runtime.log_recoveries", per_job(&|d| d.log_recoveries as f64));

    let cpu = per_job(&|d| d.cpu_s);
    let wall = stats::mean(&primary.iter().map(|o| o.outcome.secs).collect::<Vec<_>>()).unwrap_or(0.0);
    out.set("runtime.cpu_per_job_s", cpu);
    if wall > 0.0 {
        out.set("runtime.parallelism", cpu / wall);
    }

    // Detection floor and everything after it: regenerate, re-fetch, merge,
    // reduce. Medians over the jobs that saw a failure.
    let failed: Vec<_> = primary.iter().filter(|o| o.detail.first_failure_at_s.is_some()).collect();
    let first: Vec<f64> = failed.iter().filter_map(|o| o.detail.first_failure_at_s).collect();
    let after: Vec<f64> = failed
        .iter()
        .filter_map(|o| o.detail.first_failure_at_s.map(|at| o.detail.job_time_s - at))
        .collect();
    out.set("runtime.crash.first_failure_at_s", stats::median(&first).unwrap_or(0.0));
    out.set("runtime.crash.post_detect_s", stats::median(&after).unwrap_or(0.0));

    // The paper's two differences, from the interleaved pairs and from
    // untraced ops only: Fig. 12's logging overhead on the logging shape,
    // the recovery delay on the crash shape.
    let p50 = |role| stats::median(&m.op_secs(role, true));
    if let (Some(primary), Some(reference)) = (p50(Role::Primary), p50(Role::Reference)) {
        out.set("runtime.ref_job_s_p50", reference);
        let name = if m.workload.shape.crash { "recovery_delay_s" } else { "alg_overhead_s" };
        out.set(name, primary - reference);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::measure;

    /// A job small enough for a unit test.
    const TINY: Shape = Shape {
        maps: 2,
        reduces: 2,
        records_per_map: 300,
        mode: RecoveryMode::Baseline,
        logging_interval_ms: 5_000,
        crash: false,
        reference_mode: None,
        jobs_per_cycle: 1,
    };

    #[test]
    fn a_correct_job_passes_the_oracle_check() {
        let m = measure(|| RuntimeJobs::new(TINY, 42), 0, false).unwrap();
        assert!(m.correct(), "failed {} of {}", m.failed(), m.attempted());
        assert!(m.ops.iter().all(|o| o.outcome.work == TINY.input_bytes()));
        let mut out = Metrics::new();
        counters(&m, &mut out);
        assert_eq!(out.get("runtime.map_attempts"), Some(2.0));
        assert_eq!(out.get("runtime.alg_records"), Some(0.0));
        assert_eq!(out.get("runtime.failures"), Some(0.0));
    }

    #[test]
    fn a_wrong_oracle_is_reported_as_failed_ops() {
        let make = || {
            let workload: Arc<dyn MrWorkload> = Arc::new(Terasort::new(TINY.records_per_map));
            let mut oracle = canonicalize(&reference_output(workload.as_ref(), TINY.maps, TINY.reduces, 42));
            // One flipped byte in one value: same count, same keys.
            oracle[7].value[0] ^= 1;
            RuntimeJobs::with_oracle(TINY, 42, workload, oracle)
        };
        let m = measure(make, 0, false).unwrap();
        assert!(!m.correct());
        assert!(!m.warmups_ok);
        assert_eq!(m.failed(), m.attempted(), "every job must fail the check");
        assert_eq!(m.failed_share(), 1.0);
    }

    #[test]
    fn paired_shapes_alternate_reference_and_primary() {
        let jobs = RuntimeJobs::with_oracle(CRASH, 1, Arc::new(Terasort::new(1)), Vec::new());
        assert_eq!(jobs.cycle_len(), 8);
        let (role, _, plan) = jobs.op(0);
        assert_eq!((role, plan.injected_count()), (Role::Reference, 0));
        let (role, mode, plan) = jobs.op(1);
        assert_eq!((role, mode, plan.injected_count()), (Role::Primary, RecoveryMode::SfmAlg, 1));
        let clean = RuntimeJobs::with_oracle(CLEAN, 1, Arc::new(Terasort::new(1)), Vec::new());
        assert_eq!(clean.cycle_len(), 8);
        assert_eq!(clean.op(0).0, Role::Primary);
    }
}
