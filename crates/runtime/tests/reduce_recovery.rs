//! A recovering reduce attempt must commit exactly the oracle's bytes
//! whatever the previous attempt left on the DFS.
//!
//! Single-threaded and clock-free: the maps run inline, the *first*
//! attempt is played by hand through `AnalyticsLogger` + `PartialOutput`
//! (Terasort's reduce is the identity, so its output stream is the
//! oracle's), the damage is applied, and only then does the real
//! `run_reduce` recover on this thread.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use alm_core::{AnalyticsLogger, ExecMode, LogPaths, PartialOutput, RecoveryReport};
use alm_runtime::maptask::{run_map, MapCtx};
use alm_runtime::reducetask::{run_reduce, ReduceCtx};
use alm_runtime::registry::MofRegistry;
use alm_runtime::{JobDef, MiniCluster, TaskEvent};
use alm_shuffle::{bytewise_cmp, LocalFs, ReduceBuffers};
use alm_types::{AlmConfig, JobId, NodeId, RecoveryMode, ReplicationLevel};
use alm_workloads::reference::reference_output;
use alm_workloads::{Record, Terasort};
use bytes::Bytes;
use crossbeam::channel::unbounded;

const MAPS: u32 = 3;
/// The node the reducer's attempts run on.
const HOME: NodeId = NodeId(0);

struct Rig {
    cluster: Arc<MiniCluster>,
    job: Arc<JobDef>,
    registry: Arc<MofRegistry>,
    /// The one partition's committed bytes, as records, in stream order.
    oracle: Vec<Record>,
}

impl Rig {
    /// A one-reducer Terasort job whose maps have all committed.
    fn new() -> Rig {
        // Node-level replication: every ALG file has exactly one replica,
        // so rotting that replica makes the file unreadable.
        let alm = AlmConfig {
            logging_interval_ms: 1,
            log_replication: ReplicationLevel::Node,
            ..AlmConfig::with_mode(RecoveryMode::SfmAlg)
        };
        let job = Arc::new(JobDef::new(JobId(7), Arc::new(Terasort::new(400)), MAPS, 1, 42, alm));
        let cluster = Arc::new(MiniCluster::for_tests(4));
        let registry = Arc::new(MofRegistry::new());
        let (tx, rx) = unbounded();
        for m in 0..MAPS {
            run_map(MapCtx {
                job: job.clone(),
                attempt: job.map_task(m).attempt(0),
                node: cluster.node(NodeId(m)).clone(),
                events: tx.clone(),
                config: cluster.config.clone(),
                kill_at: None,
                cancelled: Arc::new(AtomicBool::new(false)),
            });
        }
        while let Ok(ev) = rx.try_recv() {
            if let TaskEvent::MapCompleted { attempt, node, mof } = ev {
                registry.register(attempt.task.index, node, mof);
            }
        }
        let oracle = reference_output(job.workload.as_ref(), MAPS, 1, 42).remove(0);
        assert!(oracle.len() > 600, "the fixture needs a few snapshots' worth of records");
        Rig { cluster, job, registry, oracle }
    }

    fn paths(&self) -> LogPaths {
        LogPaths::for_task(self.job.reduce_task(0))
    }

    fn logger(&self) -> AnalyticsLogger {
        AnalyticsLogger::new(&self.job.alm, self.job.reduce_task(0).attempt(0))
    }

    /// The first attempt reduces `self.oracle[from..to]`.
    fn reduce(&self, output: &mut PartialOutput, from: usize, to: usize) {
        for r in &self.oracle[from..to] {
            output.append(&r.key, &r.value);
        }
    }

    /// The first attempt reaches a safe point after `processed` records.
    fn snapshot(
        &self,
        logger: &mut AnalyticsLogger,
        at_ms: u64,
        processed: usize,
        output: &mut PartialOutput,
    ) {
        let logged = logger.maybe_log_reduce(at_ms, &self.cluster.dfs, HOME, &[], processed as u64, output);
        assert!(logged.expect("the DFS is healthy").is_some(), "every snapshot of the fixture is due");
    }

    /// A first attempt that snapshots after 200 records (seq 0) and after
    /// 500 (seq 1), then dies.
    fn two_snapshots(&self) {
        let (mut logger, mut out) = (self.logger(), PartialOutput::new(&self.paths()));
        self.reduce(&mut out, 0, 200);
        self.snapshot(&mut logger, 10, 200, &mut out);
        self.reduce(&mut out, 200, 500);
        self.snapshot(&mut logger, 20, 500, &mut out);
    }

    /// Flip a payload byte of reduce-stage record `seq`, as the AM's
    /// `CorruptTarget::AlgRecord` injection does.
    fn rot_record(&self, seq: u64) {
        let path = self.paths().dfs_record(seq);
        let mut bytes = self.cluster.dfs.read(&path).expect("the record was written").to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        self.cluster.dfs.write(&path, Bytes::from(bytes), HOME, ReplicationLevel::Node).expect("rewrite");
    }

    /// Everything the first attempt flushed that is not a log record.
    fn flushed_output_files(&self) -> Vec<String> {
        let files: Vec<String> = self
            .cluster
            .dfs
            .list(&self.paths().dfs_prefix)
            .into_iter()
            .filter(|p| !p.contains("/log-"))
            .collect();
        assert!(!files.is_empty(), "the first attempt flushed output");
        files
    }

    /// Run the recovering attempt to completion on this thread; returns
    /// the committed records and the recovery forensics it reported.
    #[allow(
        clippy::disallowed_methods,
        reason = "ReduceCtx carries the job's wall-clock epoch; it only paces the recovering attempt's own \
                  logging, which no assertion here depends on"
    )]
    fn recover(&self) -> (Vec<Record>, Option<RecoveryReport>) {
        let (tx, rx) = unbounded();
        run_reduce(ReduceCtx {
            job: self.job.clone(),
            attempt: self.job.reduce_task(0).attempt(1),
            node: self.cluster.node(HOME).clone(),
            nodes: Arc::new(self.cluster.nodes.clone()),
            links: self.cluster.links.clone(),
            dfs: self.cluster.dfs.clone(),
            registry: self.registry.clone(),
            resident: None,
            events: tx,
            config: self.cluster.config.clone(),
            kill_at: None,
            mode: ExecMode::Regular,
            cancelled: Arc::new(AtomicBool::new(false)),
            epoch: Instant::now(),
        });
        let mut forensics = None;
        let mut completed = false;
        while let Ok(ev) = rx.try_recv() {
            match ev {
                TaskEvent::LogRecovered { report, .. } => forensics = Some(report),
                TaskEvent::ReduceCompleted { .. } => completed = true,
                TaskEvent::TaskFailed { kind, .. } => panic!("the recovering attempt failed: {kind:?}"),
                _ => {}
            }
        }
        assert!(completed, "the recovering attempt must commit");
        let data = self.cluster.dfs.read(&self.job.output_path(0)).expect("committed partition");
        let mut got = Vec::new();
        let mut off = 0;
        while let Some((k, v, next)) = alm_shuffle::codec::decode_at(&data, off).expect("output decodes") {
            got.push(Record::new(k.to_vec(), v.to_vec()));
            off = next;
        }
        (got, forensics)
    }

    fn assert_oracle(&self, got: &[Record], what: &str) {
        assert_eq!(got.len(), self.oracle.len(), "{what}: committed record count");
        assert!(got == self.oracle.as_slice(), "{what}: committed bytes differ from the oracle's");
    }
}

#[test]
fn clean_resume_from_the_newest_record() {
    let rig = Rig::new();
    rig.two_snapshots();
    let (got, forensics) = rig.recover();
    rig.assert_oracle(&got, "clean resume");
    assert_eq!(forensics.expect("a resume is reported").resumed_seq, Some(1));
}

/// Duplicate-output trigger 1: the newest reduce-stage record is rotten,
/// so recovery falls back one record while the flushed output is ahead.
#[test]
fn rotten_newest_record_does_not_duplicate_output() {
    let rig = Rig::new();
    rig.two_snapshots();
    rig.rot_record(1);
    let (got, forensics) = rig.recover();
    rig.assert_oracle(&got, "rotten newest record");
    let report = forensics.expect("the truncation is reported");
    assert_eq!((report.resumed_seq, report.truncated_at_seq), (Some(0), Some(1)));
    assert!(report.bounded_by_one_snapshot(), "one snapshot of work redone: {report:?}");
}

/// Duplicate-output trigger 2: the attempt died after `output.flush` and
/// before the record that would have vouched for it was written.
#[test]
fn death_between_flush_and_record_does_not_duplicate_output() {
    let rig = Rig::new();
    let (mut logger, mut out) = (rig.logger(), PartialOutput::new(&rig.paths()));
    rig.reduce(&mut out, 0, 200);
    rig.snapshot(&mut logger, 10, 200, &mut out);
    rig.reduce(&mut out, 200, 500);
    out.flush(&rig.cluster.dfs, HOME, ReplicationLevel::Node).expect("the DFS is healthy");
    let (got, _) = rig.recover();
    rig.assert_oracle(&got, "death between flush and record");
}

/// Duplicate-output trigger 3: no DFS record is usable, so the state
/// falls back to `Fresh` — or to a local shuffle-stage record — while
/// flushed output is still on the DFS.
#[test]
fn unusable_dfs_journal_does_not_duplicate_output() {
    for with_local_record in [false, true] {
        let rig = Rig::new();
        let (mut logger, mut out) = (rig.logger(), PartialOutput::new(&rig.paths()));
        if with_local_record {
            let mut nothing_fetched = ReduceBuffers::new(bytewise_cmp(), "reduce/x/", 1 << 20, 0.9);
            let logged = logger.maybe_log_shuffle(0, &rig.cluster.node(HOME).fs, &mut nothing_fetched);
            assert!(logged.expect("the store is alive").is_some());
            assert!(!rig.cluster.node(HOME).fs.list(&rig.paths().local_prefix).is_empty());
        }
        let seq = u64::from(with_local_record);
        rig.reduce(&mut out, 0, 300);
        rig.snapshot(&mut logger, 10, 300, &mut out);
        rig.rot_record(seq);
        let (got, forensics) = rig.recover();
        let what = if with_local_record { "fallback to a local record" } else { "fallback to Fresh" };
        rig.assert_oracle(&got, what);
        assert_eq!(forensics.expect("the truncation is reported").truncated_at_seq, Some(seq), "{what}");
    }
}

/// Silent-loss trigger: the record is fine, the output it vouches for is
/// rotten on every replica (`AllReplicasCorrupt`).
#[test]
fn rotten_partial_output_restarts_from_scratch() {
    let rig = Rig::new();
    let (mut logger, mut out) = (rig.logger(), PartialOutput::new(&rig.paths()));
    rig.reduce(&mut out, 0, 300);
    rig.snapshot(&mut logger, 10, 300, &mut out);
    for p in rig.flushed_output_files() {
        assert!(rig.cluster.dfs.corrupt_replica(&p, 0, None));
        assert!(rig.cluster.dfs.read(&p).is_err(), "the only replica is rotten");
    }
    let (got, forensics) = rig.recover();
    rig.assert_oracle(&got, "rotten partial output");
    let report = forensics.expect("the loss is reported");
    assert!(!report.bounded_by_one_snapshot(), "a scratch restart is not a bounded recovery: {report:?}");
}

/// Silent-loss trigger: the record is fine, the output it vouches for
/// lived only on a node that is gone (`BlockUnavailable`).
#[test]
fn unavailable_partial_output_restarts_from_scratch() {
    let rig = Rig::new();
    let (mut logger, mut out) = (rig.logger(), PartialOutput::new(&rig.paths()));
    rig.reduce(&mut out, 0, 300);
    // The output goes out through node 3's disk, the record through HOME's.
    out.flush(&rig.cluster.dfs, NodeId(3), ReplicationLevel::Node).expect("the DFS is healthy");
    rig.snapshot(&mut logger, 10, 300, &mut out);
    rig.cluster.dfs.set_node_alive(NodeId(3), false);
    for p in rig.flushed_output_files() {
        assert!(rig.cluster.dfs.read(&p).is_err(), "the only replica is on the dead node");
    }
    let (got, forensics) = rig.recover();
    rig.assert_oracle(&got, "unavailable partial output");
    let report = forensics.expect("the loss is reported");
    assert!(!report.bounded_by_one_snapshot(), "a scratch restart is not a bounded recovery: {report:?}");
}
