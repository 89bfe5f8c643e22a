//! The ApplicationMaster: scheduling, failure detection, and recovery.
//!
//! One `JobRunner` drives one job: it feeds the job's [`alm_core::Am`]
//! what it observes (task events, crashes, node expiry after the liveness
//! timeout), injects planned faults, and runs what the AM dispatches:
//! each launch is a thread. The AM keeps the attempts, the run queues and
//! the placement, and decides recovery for the configured
//! [`alm_types::RecoveryMode`]:
//!
//! * **Baseline** (stock YARN): failed tasks are re-launched from scratch;
//!   lost MOFs are only re-executed after enough reducers *report* fetch
//!   failures — which is exactly how a single node crash snowballs into
//!   temporal and spatial failure amplification.
//! * **ALG**: as Baseline, but a reducer that failed on a live node is
//!   re-launched there, to resume from its local logs.
//! * **SFM/SFM+ALG**: Algorithm 1 — proactive high-priority map
//!   regeneration (reducers wait instead of failing), local log-resume
//!   relaunches, and speculative FCM-mode migration.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alm_core::{Am, Command, ExecMode, LogPaths, Slots};
use alm_shuffle::frame::FRAME_HEADER_LEN;
use alm_shuffle::LocalFs;
use alm_types::{
    AttemptId, CorruptTarget, FaultPlan, FaultTimeline, LinkChange, LinkOp, NodeId, ReplicationLevel, TaskId,
    TaskKind,
};
use bytes::Bytes;

use crate::cluster::MiniCluster;
use crate::events::TaskEvent;
use crate::job::JobDef;
use crate::maptask::{run_map, MapCtx};
use crate::reducetask::{run_reduce, ReduceCtx};
use crate::registry::MofRegistry;
use crate::report::{FailureEvent, JobReport, LogRecoveryEvent};

/// How many distinct fetch-failure reports against one map make baseline
/// YARN declare the MOF lost and re-execute the map.
const BASELINE_FETCH_REPORTS_TO_REEXECUTE: u32 = 3;

/// Hard wall-clock cap per job run (the runtime is test-scaled; a healthy
/// run finishes in well under a second).
const JOB_WALL_CAP: Duration = Duration::from_secs(60);

/// Drives one job to completion (or failure) on a mini-cluster.
pub struct JobRunner {
    cluster: Arc<MiniCluster>,
    job: Arc<JobDef>,
    registry: Arc<MofRegistry>,
    events_tx: Sender<TaskEvent>,
    events_rx: Receiver<TaskEvent>,
    epoch: Instant,
    am: Am,
    /// Every attempt's cancel flag, set to cancel a sibling and at teardown.
    cancels: BTreeMap<AttemptId, Arc<AtomicBool>>,
    /// Distinct reporters per map (baseline needs reports from distinct
    /// reducers, approximated by counting reports).
    fetch_reports: HashMap<u32, u32>,
    threads: Vec<std::thread::JoinHandle<()>>,
    report: JobReport,
    /// The armed plan's pending triggers (see [`FaultTimeline`]). A kill
    /// is taken when its attempt launches; the rest drain on the AM's
    /// millisecond clock or on reduce progress events.
    kills: BTreeMap<AttemptId, f64>,
    crashes: Vec<(u64, NodeId)>,
    crashes_at_progress: Vec<(NodeId, u32, f64)>,
    slowdowns: Vec<(u64, NodeId, f64)>,
    /// In time order; the changes due in one tick apply in list order.
    links: Vec<(u64, LinkChange)>,
    /// A corruption whose target has not materialised yet (MOF not
    /// committed, log record not written) stays pending and is retried
    /// each scheduling tick.
    corruptions: Vec<(u64, NodeId, CorruptTarget)>,
}

impl JobRunner {
    pub fn new(cluster: Arc<MiniCluster>, job: JobDef, faults: FaultPlan) -> JobRunner {
        let (events_tx, events_rx) = unbounded();
        // Every attempt is a thread of its own: no slot limits placement.
        let nodes = cluster.nodes.len() as u32;
        let am = Am::new(&job.alm, &cluster.config, job.num_maps, job.num_reduces, nodes, Slots::UNBOUNDED);
        let FaultTimeline { kills, crashes, crashes_at_progress, slowdowns, links, corruptions } =
            faults.arm();
        JobRunner {
            cluster,
            job: Arc::new(job),
            registry: Arc::new(MofRegistry::new()),
            events_tx,
            events_rx,
            epoch: Instant::now(),
            am,
            cancels: BTreeMap::new(),
            fetch_reports: HashMap::new(),
            threads: Vec::new(),
            report: JobReport::default(),
            kills,
            crashes,
            crashes_at_progress,
            slowdowns,
            links,
            corruptions,
        }
    }

    /// The AM's clock: nanoseconds since the job started.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn now_ms(&self) -> u64 {
        self.now_ns() / 1_000_000
    }

    /// Ask the AM what to do, and do it: start a thread per launch, or
    /// raise a cancelled attempt's flag. Whether the job failed.
    fn dispatch(&mut self) -> bool {
        let mut commands = Vec::new();
        self.am.dispatch(self.now_ns(), &mut commands);
        for command in commands {
            match command {
                Command::Launch { attempt, node, mode } => self.launch(attempt, node, mode),
                Command::Cancel(attempt) => self.cancels[&attempt].store(true, Ordering::Relaxed),
                Command::JobFailed => return true,
            }
        }
        false
    }

    fn launch(&mut self, attempt: AttemptId, node: NodeId, mode: ExecMode) {
        let node = self.cluster.node(node).clone();
        let (events, config) = (self.events_tx.clone(), self.cluster.config.clone());
        let (kill_at, cancelled) =
            (self.kills.remove(&attempt), self.cancels.entry(attempt).or_default().clone());
        let thread = if attempt.task.is_map() {
            // This runtime regenerates only at high priority, and marks the
            // MOF so that reducers wait for it instead of failing.
            if self.am.is_regenerating(attempt.task) {
                self.registry.mark_regenerating(attempt.task.index);
            }
            let ctx = MapCtx { job: self.job.clone(), attempt, node, events, config, kill_at, cancelled };
            std::thread::spawn(move || run_map(ctx))
        } else {
            let ctx = ReduceCtx {
                job: self.job.clone(),
                attempt,
                node,
                nodes: Arc::new(self.cluster.nodes.clone()),
                links: self.cluster.links.clone(),
                dfs: self.cluster.dfs.clone(),
                registry: self.registry.clone(),
                resident: self.cluster.resident(),
                events,
                config,
                kill_at,
                mode,
                cancelled,
                epoch: self.epoch,
            };
            std::thread::spawn(move || run_reduce(ctx))
        };
        self.threads.push(thread);
    }

    fn handle_fetch_failure(&mut self, _reducer: AttemptId, map_index: u32, source: NodeId) {
        let count = self.fetch_reports.entry(map_index).or_insert(0);
        *count += 1;
        let count = *count;
        let map = self.job.map_task(map_index);
        if self.job.alm.mode.sfm_enabled() {
            // The AM regenerates at once if it knows the source is down
            // (with proactive regeneration, reducers mostly wait instead).
            self.am.fetch_failed(map, source);
        } else if count == BASELINE_FETCH_REPORTS_TO_REEXECUTE {
            // Baseline: enough reports finally convince the AM the MOF is
            // gone; re-execute the map (normal priority).
            self.fetch_reports.remove(&map_index);
            self.am.submit(map);
        }
    }

    /// Re-open every completed reduce whose committed partition has lost a
    /// block's last live replica, and launch it again. A `Cluster`-level
    /// file keeps one replica per rack, so crashes in two racks can take
    /// both copies of an early finisher's output; a job that reported
    /// success over that would be missing a partition. The re-run starts
    /// from scratch — `commit` deleted the segments any surviving
    /// reduce-stage record vouches for, which ALG recovery reports as
    /// `output_lost`. Returns whether anything was lost.
    fn rerun_reduces_with_lost_output(&mut self) -> bool {
        let lost: Vec<u32> = (0..self.job.num_reduces)
            .filter(|&r| self.am.is_complete(self.job.reduce_task(r)))
            .filter(|&r| !self.cluster.dfs.has_live_replicas(&self.job.output_path(r)))
            .collect();
        for &r in &lost {
            self.report.output_records.remove(&r);
            self.am.submit(self.job.reduce_task(r));
        }
        !lost.is_empty()
    }

    fn check_time_faults(&mut self) {
        let now = self.now_ms();
        for (_, n) in self.crashes.extract_if(.., |(at, _)| *at <= now) {
            self.cluster.crash_node(n);
            self.am.node_down(n);
        }
        // Activate due slow-node degradations (the node stays alive). A
        // node slowed twice keeps the larger factor, as in the simulator.
        for (_, n, factor) in self.slowdowns.extract_if(.., |(at, ..)| *at <= now) {
            let node = self.cluster.node(n);
            node.set_slow(node.slow_factor().max(factor));
        }
        // Apply the due link changes in time order. A flap's up-span can be
        // shorter than one AM poll, so a window's heal and the next window's
        // sever of the same link may both be due here: replayed in order the
        // link ends severed, where sever-all-then-heal-all would erase the
        // later window. A heal of an already-healed link is LinkTable's
        // explicit no-op.
        let links = &self.cluster.links;
        for (_, LinkChange { a, b, direction, op }) in self.links.extract_if(.., |(at, _)| *at <= now) {
            match op {
                LinkOp::Sever => links.sever(a, b, direction),
                LinkOp::Heal => {
                    links.heal(a, b, direction);
                }
                LinkOp::Degrade { factor, loss } => links.degrade(a, b, direction, factor, loss),
                LinkOp::ClearDegrade => links.clear_degrade(a, b, direction),
            }
        }
        // Flip bytes for due corruptions; targets that have not
        // materialised yet stay pending for the next tick.
        let mut pending = std::mem::take(&mut self.corruptions);
        pending
            .extract_if(.., |&mut (at, node, target)| at <= now && self.apply_corruption(node, target))
            .for_each(drop);
        self.corruptions = pending;
    }

    /// Flip a byte of `partition` inside `mof`'s stored CRC32 frame on
    /// `host` so the next read classifies as a checksum mismatch. Prefers
    /// a payload byte; an empty partition only has its header, so the
    /// stored CRC is rotted instead.
    fn corrupt_mof_blob(&self, host: NodeId, mof: &alm_shuffle::MofData, partition: u32) {
        let Some((off, framed_len)) = mof.frame_range(partition) else {
            return;
        };
        let fs = &self.cluster.node(host).fs;
        let Ok(blob) = fs.read(&mof.path) else {
            return;
        };
        let mut bytes = blob.to_vec();
        let flip = off as usize + if framed_len as usize > FRAME_HEADER_LEN { FRAME_HEADER_LEN } else { 4 };
        if flip < bytes.len() {
            bytes[flip] ^= 0x55;
            let _ = fs.write(&mof.path, Bytes::from(bytes));
        }
    }

    /// Inject one armed corruption: flip a payload byte inside the
    /// target's CRC32 frame so the next read classifies as a checksum
    /// mismatch. Returns `false` when the target does not exist yet.
    fn apply_corruption(&self, node: NodeId, target: CorruptTarget) -> bool {
        match target {
            CorruptTarget::MofPartition { map_index, partition } => {
                let Some(registered) = self.registry.lookup(map_index) else {
                    return false; // map not committed yet; retry
                };
                // `node` names the intended victim, but re-execution may
                // have moved the MOF: rot the bytes where they now live.
                let _ = node;
                self.corrupt_mof_blob(registered.node, &registered.mof, partition);
                true
            }
            CorruptTarget::DfsBlock { reduce_index, block } => {
                if reduce_index >= self.job.num_reduces {
                    return true;
                }
                // Rot one replica of the committed reduce output — prefer
                // the copy hosted on the fault's victim node. False until
                // the reduce commits; the fault stays pending.
                let path = self.job.output_path(reduce_index);
                self.cluster.dfs.corrupt_replica(&path, block as usize, Some(node))
            }
            CorruptTarget::AlgRecord { reduce_index, seq } => {
                if reduce_index >= self.job.num_reduces {
                    return true;
                }
                let paths = LogPaths::for_task(self.job.reduce_task(reduce_index));
                let mut hit = false;
                // Reduce-stage records live on the DFS.
                let dfs_path = paths.dfs_record(seq);
                if let Some(rotten) = self.cluster.dfs.read(&dfs_path).ok().and_then(rot_payload) {
                    if let Some(writer) = self.cluster.alive_nodes().first().copied() {
                        let dfs = &self.cluster.dfs;
                        hit |= dfs.write(&dfs_path, rotten, writer, ReplicationLevel::Cluster).is_ok();
                    }
                }
                // Shuffle/merge-stage records live on the node-local store
                // of whichever node ran the attempt — rot every copy.
                let local_path = paths.local_record(seq);
                for n in &self.cluster.nodes {
                    if let Some(rotten) = n.fs.read(&local_path).ok().and_then(rot_payload) {
                        hit |= n.fs.write(&local_path, rotten).is_ok();
                    }
                }
                hit
            }
        }
    }

    fn check_progress_faults(&mut self, reduce_index: u32, progress: f64) {
        for (n, _, _) in
            self.crashes_at_progress.extract_if(.., |&mut (_, r, p)| r == reduce_index && progress >= p)
        {
            self.cluster.crash_node(n);
            self.am.node_down(n);
        }
    }

    /// Tell the AM about nodes crashed from outside this runner; it learns
    /// of its own crashes as it makes them.
    fn poll_liveness(&mut self) {
        for node in &self.cluster.nodes {
            if !node.is_alive() {
                self.am.node_down(node.id);
            }
        }
    }

    fn check_node_detection(&mut self) {
        let timeout = Duration::from_millis(self.cluster.config.node_liveness_timeout_ms);
        let newly_dead: Vec<NodeId> = self
            .cluster
            .nodes
            .iter()
            .filter(|n| !self.am.is_live(n.id) && !self.am.is_expired(n.id))
            .filter(|n| n.crashed_for().is_some_and(|d| d >= timeout))
            .map(|n| n.id)
            .collect();
        // Attempts running on a dead node died silently; fail them now.
        for n in newly_dead {
            let lost_mofs: Vec<TaskId> =
                self.registry.mofs_on_node(n).into_iter().map(|m| self.job.map_task(m)).collect();
            self.am.expire(self.now_ns(), n, lost_mofs);
            self.rerun_reduces_with_lost_output();
        }
    }

    /// Run the job to completion; returns the report.
    pub fn run(mut self) -> JobReport {
        // The first wave: all maps, then all reduces (reduces start
        // shuffling as MOFs appear — the paper's map/reduce overlap).
        for m in 0..self.job.num_maps {
            self.am.submit(self.job.map_task(m));
        }
        for r in 0..self.job.num_reduces {
            self.am.submit(self.job.reduce_task(r));
        }

        let started = Instant::now();
        let mut succeeded = false;
        while started.elapsed() <= JOB_WALL_CAP {
            self.check_time_faults();
            self.poll_liveness();
            self.check_node_detection();
            if self.dispatch() {
                break;
            }

            let Ok(ev) = self.events_rx.recv_timeout(Duration::from_millis(1)) else { continue };
            match ev {
                TaskEvent::MapCompleted { attempt, node, mof } => {
                    let map_index = attempt.task.index;
                    // A map's siblings run on; each registers its MOF as it ends.
                    self.am.complete(self.now_ns(), attempt);
                    // Apply any due corruption of this MOF *before* it
                    // becomes fetchable, so reducers can never race the
                    // injection to a clean read.
                    let now = self.now_ms();
                    let mut pending = std::mem::take(&mut self.corruptions);
                    pending
                        .extract_if(.., |&mut (at, _, target)| match target {
                            CorruptTarget::MofPartition { map_index: mi, partition }
                                if mi == map_index && at <= now =>
                            {
                                self.corrupt_mof_blob(node, &mof, partition);
                                true
                            }
                            _ => false,
                        })
                        .for_each(drop);
                    self.corruptions = pending;
                    self.registry.register(map_index, node, mof);
                }
                TaskEvent::ReduceCompleted { attempt, node: _, output_records } => {
                    if self.am.complete(self.now_ns(), attempt) {
                        self.report.output_records.insert(attempt.task.index, output_records);
                    }
                    // A crash the liveness timeout has not surfaced yet may
                    // already have taken a committed partition: look before
                    // declaring the job done.
                    if self.am.reduces_complete() && !self.rerun_reduces_with_lost_output() {
                        succeeded = true;
                        break;
                    }
                }
                // The failed node, while the AM believes it live, holds the
                // attempt's local logs.
                TaskEvent::TaskFailed { attempt, node, kind } => {
                    self.am.fail(self.now_ns(), attempt, kind, Some(node));
                }
                TaskEvent::FetchFailure { reducer, map_index, source } => {
                    self.handle_fetch_failure(reducer, map_index, source);
                }
                TaskEvent::FetchCorruption { reducer: _, map_index, source: _, generation } => {
                    // Detected corruption is unambiguous in every mode (the
                    // source heartbeats; its data failed the checksum):
                    // regenerate the MOF at once while reducers re-fetch —
                    // no fetch-failure budget is charged. A report about a
                    // copy already replaced regenerates nothing.
                    self.report.corruption_refetches += 1;
                    if self.registry.claim_regeneration(map_index, generation) {
                        self.am.regenerate(self.job.map_task(map_index), true);
                    }
                }
                TaskEvent::FetchDegraded { reducer: _, map_index: _, source: _ } => {
                    // A gray link dropped a transfer: count it and let the
                    // reducer re-fetch on its own backoff. Nothing is
                    // regenerated and no budget is charged — the source
                    // and its data are healthy, only the path is lossy.
                    self.report.degraded_drops += 1;
                }
                TaskEvent::FetchResident { reducer: _, map_index: _, source: _ } => {
                    // A fetch served from the resident in-memory cache:
                    // observational only — counted so the differential
                    // validator can compare resident hits across engines.
                    self.report.resident_fetch_hits += 1;
                }
                TaskEvent::LogRecovered { attempt, report } => {
                    self.report.log_recoveries.push(LogRecoveryEvent {
                        task: attempt.task,
                        attempt_number: attempt.number,
                        report,
                    });
                }
                TaskEvent::ReduceProgress { attempt, phase, progress } => {
                    let overall = crate::reducetask::overall_progress(phase, progress);
                    let now = self.now_ms();
                    self.report.reduce_timeline.entry(attempt.task.index).or_default().push((now, overall));
                    self.check_progress_faults(attempt.task.index, overall);
                }
            }
        }

        // The loop breaks the instant the last reduce commits, so a
        // DfsBlock corruption aimed at committed output may still be
        // pending — flush those now (and only those: firing leftover
        // crash/partition faults after the job ended would change
        // outcomes the job itself already decided).
        for (_, node, target) in std::mem::take(&mut self.corruptions) {
            if matches!(target, CorruptTarget::DfsBlock { .. }) {
                let _ = self.apply_corruption(node, target);
            }
        }

        // Tear down: cancel all still-running attempts and reap threads.
        for cancel in self.cancels.values() {
            cancel.store(true, Ordering::Relaxed);
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }

        self.report.succeeded = succeeded;
        self.report.job_time_ms = self.now_ms();
        let trace = self.am.into_trace();
        debug_assert_eq!(trace.check(), Ok(()));
        self.report.map_attempts = trace.launches(TaskKind::Map);
        self.report.reduce_attempts = trace.launches(TaskKind::Reduce);
        self.report.fcm_attempts = trace.fcm_launches();
        self.report.failures = trace
            .failures()
            .map(|f| FailureEvent {
                at_ms: f.at_ns / 1_000_000,
                task: f.attempt.task,
                attempt_number: f.attempt.number,
                kind: f.kind,
            })
            .collect();
        self.report.trace = trace;
        self.report
    }
}

/// A framed blob with its first payload byte flipped; `None` if it has no
/// payload.
fn rot_payload(blob: Bytes) -> Option<Bytes> {
    let mut bytes = blob.to_vec();
    *bytes.get_mut(FRAME_HEADER_LEN)? ^= 0x55;
    Some(Bytes::from(bytes))
}

/// Convenience: build + run.
pub fn run_job(cluster: Arc<MiniCluster>, job: JobDef, faults: FaultPlan) -> JobReport {
    JobRunner::new(cluster, job, faults).run()
}
