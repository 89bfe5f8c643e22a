//! ReduceTask execution: shuffle → merge → reduce, with analytics logging,
//! log-resume recovery, and FCM-mode collective recovery.
//!
//! The three stages follow §II-A; the ALG hooks follow §III; the FCM path
//! follows §IV-A. All blocking points are also *safe points*: the attempt
//! dies silently if its node crashed, exits if cancelled, self-fails if its
//! fault-injection point was reached, and fails with `FetchFailureLimit`
//! after exhausting fetch retries against a dead MOF source — the exact
//! behaviour whose consequences the paper analyses.

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alm_core::fetch::{Outcome, Step};
use alm_core::{
    recover_attempt, spawn_participants, AnalyticsLogger, ExecMode, FetchCore, LogPaths, MapSet,
    PartialOutput, Participant, RecoveredState, RecoveryReport,
};
use alm_dfs::DfsCluster;
use alm_shuffle::mpq::SortedRun;
use alm_shuffle::LocalFs;
use alm_shuffle::{KeyCmp, MergeQueue, ReduceBuffers, SegmentReader, SegmentSource};
use alm_types::{AttemptId, FailureKind, LinkState, ReducePhase, ReplicationLevel, YarnConfig};

use crate::cluster::NodeHandle;
use crate::events::TaskEvent;
use crate::job::JobDef;
use crate::registry::{try_fetch, Fetched, MofRegistry, RegisteredMof};

/// Everything a reduce attempt thread needs.
pub struct ReduceCtx {
    pub job: Arc<JobDef>,
    pub attempt: AttemptId,
    pub node: Arc<NodeHandle>,
    pub nodes: Arc<Vec<Arc<NodeHandle>>>,
    pub links: Arc<Mutex<LinkState>>,
    pub dfs: Arc<DfsCluster>,
    pub registry: Arc<MofRegistry>,
    /// Chain-layer resident MOF cache, when a job chain drives the cluster.
    pub resident: Option<Arc<dyn crate::resident::ResidentCache>>,
    pub events: Sender<TaskEvent>,
    pub config: YarnConfig,
    /// Self-fail at this fraction of overall task progress.
    pub kill_at: Option<f64>,
    pub mode: ExecMode,
    pub cancelled: Arc<AtomicBool>,
    /// Job start, for log timestamps and timelines.
    pub epoch: Instant,
}

impl ReduceCtx {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn partition(&self) -> u32 {
        self.attempt.task.index
    }

    /// Returns true if the attempt should die silently.
    fn dead_or_cancelled(&self) -> bool {
        !self.node.is_alive() || self.cancelled.load(Ordering::Relaxed)
    }

    /// Hot-loop safe point: straggle if the node is degraded (injected
    /// slow-node fault), then report whether the attempt should die.
    fn safe_point(&self) -> bool {
        self.node.throttle();
        self.dead_or_cancelled()
    }

    fn fail(&self, kind: FailureKind) {
        let _ = self.events.send(TaskEvent::TaskFailed { attempt: self.attempt, node: self.node.id, kind });
    }

    fn progress(&self, phase: ReducePhase, progress: f64) {
        let _ = self.events.send(TaskEvent::ReduceProgress { attempt: self.attempt, phase, progress });
    }

    /// A reduce-stage report, sent at the stage's first safe point and then
    /// only when overall progress reaches a new whole percent, so an
    /// attempt wakes the AM at most 35 times here (66 % to 100 %).
    /// `reported` holds the last percent sent.
    fn reduce_progress(&self, frac: f64, reported: &mut Option<u32>) {
        let percent = (ReducePhase::Reduce.overall(frac) * 100.0) as u32;
        if reported.is_none_or(|last| percent > last) {
            *reported = Some(percent);
            self.progress(ReducePhase::Reduce, frac);
        }
    }

    fn should_self_kill(&self, phase: ReducePhase, frac: f64) -> bool {
        self.kill_at.is_some_and(|k| phase.overall(frac) >= k)
    }
}

/// How the attempt starts, derived from the recovered log state.
enum StartState {
    Fresh,
    /// Resume mid-shuffle with restored buffers.
    Shuffle(ReduceBuffers),
    /// All data local (merge-stage log): buffers with everything fetched.
    MergeReady(ReduceBuffers),
    /// Reduce-stage log with all MPQ files readable here: direct resume
    /// from the logged offsets, `records_processed` records in.
    MpqResume(Vec<SegmentReader>, u64),
    /// Reduce-stage log but the files are gone (migrated): replay the data
    /// path and skip the first `records_processed` records.
    SkipReplay(u64),
}

/// Run one reduce attempt on the current thread.
pub fn run_reduce(ctx: ReduceCtx) {
    let logs_enabled = ctx.job.alm.mode.logs_enabled();
    let paths = LogPaths::for_task(ctx.attempt.task);
    let prefix = format!("reduce/{}/", ctx.attempt);

    // ---- Recovery: what did a previous attempt leave us? ----
    // The state and the partial output come back bound together: the
    // output holds exactly what the resumed record vouches for, and is
    // empty whenever nothing will be skipped.
    let (recovered, mut output) = if logs_enabled {
        let (state, output, rec_report) = recover_attempt(Some(&ctx.node.fs), &ctx.dfs, &paths);
        if rec_report != RecoveryReport::default() {
            // Surface the forensics (resume point, truncated/corrupt
            // records, lost output) so reports can assert bounded recovery.
            let _ = ctx.events.send(TaskEvent::LogRecovered { attempt: ctx.attempt, report: rec_report });
        }
        (state, output)
    } else {
        (RecoveredState::Fresh, PartialOutput::new(&paths))
    };

    let mut logger = logs_enabled.then(|| AnalyticsLogger::new(&ctx.job.alm, ctx.attempt));
    if let (Some(lg), Some(seq)) = (logger.as_mut(), recovered.seq()) {
        lg.resume_after(seq);
    }

    let mem_budget = ctx.config.shuffle_buffer_bytes().max(1024);

    let start = match recovered {
        RecoveredState::Fresh => StartState::Fresh,
        RecoveredState::ShuffleStage { shuffled_bytes, fetched_mof_ids, intermediate_files, .. } => {
            if intermediate_files.iter().all(|p| ctx.node.fs.exists(p)) {
                StartState::Shuffle(ReduceBuffers::restore(
                    prefix.clone(),
                    mem_budget,
                    ctx.config.merge_spill_fraction,
                    fetched_mof_ids.into_iter().collect(),
                    intermediate_files,
                    shuffled_bytes,
                ))
            } else {
                StartState::Fresh // files are on another (dead) node
            }
        }
        RecoveredState::MergeStage { intermediate_files, .. } => {
            if intermediate_files.iter().all(|p| ctx.node.fs.exists(p)) {
                StartState::MergeReady(ReduceBuffers::restore(
                    prefix.clone(),
                    mem_budget,
                    ctx.config.merge_spill_fraction,
                    (0..ctx.job.num_maps).collect(),
                    intermediate_files,
                    0,
                ))
            } else {
                StartState::Fresh
            }
        }
        RecoveredState::ReduceStage { records_processed, mpq, .. } => {
            // Try the direct MPQ resume: every logged segment readable here.
            let mut readers = Vec::with_capacity(mpq.len());
            let mut ok = !mpq.is_empty();
            for e in &mpq {
                let data = match &e.source {
                    SegmentSource::LocalFile { path } => ctx.node.fs.read(path).ok(),
                    SegmentSource::Dfs { path } => ctx.dfs.read(path).ok(),
                    SegmentSource::Memory { .. } => None,
                };
                match data.and_then(|d| SegmentReader::resume(e.source.clone(), d, e.offset as usize).ok()) {
                    Some(r) => readers.push(r),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                StartState::MpqResume(readers, records_processed)
            } else {
                StartState::SkipReplay(records_processed)
            }
        }
    };

    // ---- Execute ----
    match ctx.mode {
        ExecMode::Fcm => run_fcm(&ctx, start, &mut logger, &mut output),
        ExecMode::Regular => run_regular(&ctx, start, &mut logger, &mut output),
    }
}

fn run_regular(
    ctx: &ReduceCtx,
    start: StartState,
    logger: &mut Option<AnalyticsLogger>,
    output: &mut PartialOutput,
) {
    let (readers, skip) = match start {
        StartState::MpqResume(readers, _) => (readers, 0),
        StartState::Fresh => {
            let mut buffers = ReduceBuffers::new(
                KeyCmp,
                format!("reduce/{}/", ctx.attempt),
                ctx.config.shuffle_buffer_bytes().max(1024),
                ctx.config.merge_spill_fraction,
            );
            match shuffle_phase(ctx, &mut buffers, logger) {
                Ok(()) => {}
                Err(exit) => return exit.dispatch(ctx),
            }
            match merge_phase(ctx, buffers, logger) {
                Ok(readers) => (readers, 0),
                Err(exit) => return exit.dispatch(ctx),
            }
        }
        StartState::Shuffle(mut buffers) => {
            match shuffle_phase(ctx, &mut buffers, logger) {
                Ok(()) => {}
                Err(exit) => return exit.dispatch(ctx),
            }
            match merge_phase(ctx, buffers, logger) {
                Ok(readers) => (readers, 0),
                Err(exit) => return exit.dispatch(ctx),
            }
        }
        StartState::MergeReady(buffers) => match merge_phase(ctx, buffers, logger) {
            Ok(readers) => (readers, 0),
            Err(exit) => return exit.dispatch(ctx),
        },
        StartState::SkipReplay(skip) => {
            let mut buffers = ReduceBuffers::new(
                KeyCmp,
                format!("reduce/{}/", ctx.attempt),
                ctx.config.shuffle_buffer_bytes().max(1024),
                ctx.config.merge_spill_fraction,
            );
            match shuffle_phase(ctx, &mut buffers, logger) {
                Ok(()) => {}
                Err(exit) => return exit.dispatch(ctx),
            }
            match merge_phase(ctx, buffers, logger) {
                Ok(readers) => (readers, skip),
                Err(exit) => return exit.dispatch(ctx),
            }
        }
    };

    let q = MergeQueue::new(KeyCmp, readers);
    if let Err(exit) = reduce_phase(ctx, q, skip, false, logger, output) {
        return exit.dispatch(ctx);
    }
    commit(ctx, output);
}

fn run_fcm(
    ctx: &ReduceCtx,
    start: StartState,
    logger: &mut Option<AnalyticsLogger>,
    output: &mut PartialOutput,
) {
    // FCM replays the whole partition stream; the only usable recovery
    // state is the reduce-stage skip count (plus the output it vouches
    // for — every other start state comes with an empty output).
    let skip = match start {
        StartState::SkipReplay(n) | StartState::MpqResume(_, n) => n,
        StartState::Fresh | StartState::Shuffle(_) | StartState::MergeReady(_) => 0,
    };

    // Wait until every MOF is present on a live node (the AM is
    // regenerating lost ones at high priority).
    let wait_cap = Duration::from_millis(ctx.config.shuffle_wait_cap_ms);
    let wait_start = Instant::now();
    let participants = loop {
        if ctx.dead_or_cancelled() {
            return;
        }
        if wait_start.elapsed() > wait_cap {
            return ctx.fail(FailureKind::TaskTimeout);
        }
        match build_participants(ctx) {
            Some(p) => break p,
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    };

    let pipeline = match spawn_participants(&KeyCmp, participants, alm_core::sfm::fcm::DEFAULT_CHUNK_BYTES) {
        Ok(p) => p,
        Err(_) => return ctx.fail(FailureKind::TaskTimeout),
    };
    let q = MergeQueue::new(KeyCmp, pipeline.into_runs_and_detach());
    if let Err(exit) = reduce_phase(ctx, q, skip, true, logger, output) {
        return exit.dispatch(ctx);
    }
    commit(ctx, output);
}

/// Gather, per live node, the local segments of this reducer's partition —
/// FCM's participant set. `None` until every map's MOF is fetchable.
fn build_participants(ctx: &ReduceCtx) -> Option<Vec<Participant>> {
    let mut by_node: HashMap<u32, Vec<SegmentReader>> = HashMap::new();
    let mut seg_id = 0u64;
    for m in 0..ctx.job.num_maps {
        let RegisteredMof { node: node_id, mof, .. } = ctx.registry.lookup(m)?;
        let node = &ctx.nodes[node_id.0 as usize];
        if !node.is_alive() {
            return None;
        }
        if ctx.links.lock().is_severed(ctx.node.id, node_id) {
            // A partitioned participant is alive — wait for the heal
            // rather than treating its segments as lost.
            return None;
        }
        let data = mof.read_partition(&node.fs, ctx.partition()).ok()?;
        if data.is_empty() {
            continue;
        }
        let reader = SegmentReader::new(SegmentSource::Memory { id: seg_id }, data).ok()?;
        seg_id += 1;
        by_node.entry(node_id.0).or_default().push(reader);
    }
    let mut nodes: Vec<u32> = by_node.keys().copied().collect();
    nodes.sort_unstable();
    Some(
        nodes
            .into_iter()
            .map(|n| Participant {
                node: alm_types::NodeId(n),
                segments: by_node.remove(&n).expect("key just listed from this map"),
            })
            .collect(),
    )
}

/// Why an attempt stopped without committing.
enum Exit {
    Silent,
    Failed(FailureKind),
}

impl Exit {
    fn dispatch(self, ctx: &ReduceCtx) {
        if let Exit::Failed(kind) = self {
            ctx.fail(kind);
        }
    }
}

/// The shuffle stage, as the attempt's [`FetchCore`] decides: each round
/// asks the sources of ready maps and ended back-offs in map order, then
/// reads the park timer. A round that fetched nothing sleeps until the
/// earliest back-off ends, or 1 ms while a ready map waits.
fn shuffle_phase(
    ctx: &ReduceCtx,
    buffers: &mut ReduceBuffers,
    logger: &mut Option<AnalyticsLogger>,
) -> Result<(), Exit> {
    let num_maps = ctx.job.num_maps;
    let mut pending = MapSet::full(num_maps);
    buffers.fetched().iter().for_each(|&m| _ = pending.remove(m));
    let mut fetch = FetchCore::new(ctx.attempt, ctx.job.seed, alm_des::rng::below, &ctx.config, 1, pending);
    // Each map's latest outcome, which the park timer reads.
    let mut seen = vec![Outcome::NotReady; num_maps as usize];

    while !fetch.is_done() {
        if ctx.safe_point() {
            return Err(Exit::Silent);
        }
        let frac = buffers.fetched().len() as f64 / num_maps.max(1) as f64;
        if ctx.should_self_kill(ReducePhase::Shuffle, frac) {
            return Err(Exit::Failed(FailureKind::TaskOom));
        }

        let now = ctx.now_ms();
        let mut progressed = false;
        let mut after = None;
        while let Some(m) = fetch.next(after, Some(now)) {
            after = Some(m);
            let got = try_fetch(
                &ctx.nodes,
                &ctx.links,
                &ctx.registry,
                ctx.resident.as_deref(),
                ctx.node.id,
                ctx.job.id,
                m,
                ctx.partition(),
            );
            seen[m as usize] = got.0;
            let step = fetch.observe(now, m, got.0);
            progressed |= shuffle_step(ctx, buffers, &mut fetch, now, step, Some(got))?;
        }

        if let Some(lg) = logger.as_mut() {
            if lg.maybe_log_shuffle(ctx.now_ms(), &ctx.node.fs, buffers).is_err() {
                return Err(Exit::Silent);
            }
        }
        ctx.progress(ReducePhase::Shuffle, frac);
        let step = fetch.tick(now, |m| seen[m as usize]);
        shuffle_step(ctx, buffers, &mut fetch, now, step, None)?;

        if !progressed {
            let poll = if fetch.next(None, None).is_some() { 1 } else { u64::MAX };
            let wake = fetch.next_retry().map_or(poll, |until| until.saturating_sub(now).clamp(1, poll));
            std::thread::sleep(Duration::from_millis(wake));
        }
    }
    ctx.progress(ReducePhase::Shuffle, 1.0);
    Ok(())
}

/// Do what the fetch core decided; whether the shuffle moved on (a map
/// fetched, or a dropped transfer to fetch again at once). `got` is the
/// fetch the step answers, `None` for the park timer's.
fn shuffle_step(
    ctx: &ReduceCtx,
    buffers: &mut ReduceBuffers,
    fetch: &mut FetchCore,
    now: u64,
    step: Step,
    got: Option<Fetched>,
) -> Result<bool, Exit> {
    match step {
        Step::Fetch { map, source } => {
            let (outcome, data) = got.as_ref().expect("a fetch follows a source's answer");
            if let Some((_, true)) = data {
                let _ = ctx.events.send(TaskEvent::FetchResident {
                    reducer: ctx.attempt,
                    map_index: map,
                    source,
                });
            }
            // A gray link runs the transfer `factor`× slower.
            let degradation = ctx.links.lock().degradation(ctx.node.id, source);
            if let Some((factor, _)) = degradation.filter(|&(f, _)| f > 1.0) {
                let us = ((factor - 1.0) * 500.0).min(5_000.0) as u64;
                std::thread::sleep(Duration::from_micros(us));
            }
            let arrived = fetch.observe(now, map, *outcome);
            shuffle_step(ctx, buffers, fetch, now, arrived, got)
        }
        Step::Keep { map } => {
            let Some((_, Some((data, _)))) = got else {
                unreachable!("kept bytes come from a fetch that returned data")
            };
            // An error here means our own store died.
            buffers.ingest(&ctx.node.fs, map, data).map(|_| true).map_err(|_| Exit::Silent)
        }
        Step::Dropped { map, source } => {
            let _ =
                ctx.events.send(TaskEvent::FetchDegraded { reducer: ctx.attempt, map_index: map, source });
            Ok(true)
        }
        Step::Wait => Ok(false),
        Step::BackOff { map, source, .. } => {
            let _ = ctx.events.send(TaskEvent::FetchFailure { reducer: ctx.attempt, map_index: map, source });
            Ok(false)
        }
        Step::ReportCorruption { map, source, generation } => {
            let _ = ctx.events.send(TaskEvent::FetchCorruption {
                reducer: ctx.attempt,
                map_index: map,
                source,
                generation,
            });
            Ok(false)
        }
        Step::FetchFailureLimit { map, source } => {
            let _ = ctx.events.send(TaskEvent::FetchFailure { reducer: ctx.attempt, map_index: map, source });
            // The reducer is preempted as faulty: the amplification
            // trigger (§II-C).
            Err(Exit::Failed(FailureKind::FetchFailureLimit))
        }
        Step::TaskTimeout => Err(Exit::Failed(FailureKind::TaskTimeout)),
    }
}

/// The merge stage: factor-merge down to `io.sort.factor` inputs.
fn merge_phase(
    ctx: &ReduceCtx,
    buffers: ReduceBuffers,
    logger: &mut Option<AnalyticsLogger>,
) -> Result<Vec<SegmentReader>, Exit> {
    if ctx.dead_or_cancelled() {
        return Err(Exit::Silent);
    }
    if ctx.should_self_kill(ReducePhase::Merge, 0.0) {
        return Err(Exit::Failed(FailureKind::TaskOom));
    }
    let disk_before: Vec<String> = buffers.on_disk_paths().to_vec();
    if let Some(lg) = logger.as_mut() {
        let _ = lg.maybe_log_merge(ctx.now_ms(), &ctx.node.fs, 0.0, &disk_before);
    }
    let readers = match buffers.finalize(&ctx.node.fs, ctx.config.io_sort_factor) {
        Ok(r) => r,
        Err(_) => return Err(Exit::Silent),
    };
    if ctx.dead_or_cancelled() {
        return Err(Exit::Silent);
    }
    if let Some(lg) = logger.as_mut() {
        let files: Vec<String> = readers
            .iter()
            .filter_map(|r| match r.source() {
                SegmentSource::LocalFile { path } => Some(path.clone()),
                _ => None,
            })
            .collect();
        let _ = lg.maybe_log_merge(ctx.now_ms(), &ctx.node.fs, 1.0, &files);
    }
    ctx.progress(ReducePhase::Merge, 1.0);
    Ok(readers)
}

/// The reduce stage: drain the MPQ in key groups through the user reduce
/// function, skipping already-processed records on resume.
fn reduce_phase<R: SortedRun>(
    ctx: &ReduceCtx,
    mut q: MergeQueue<R>,
    skip: u64,
    streaming: bool,
    logger: &mut Option<AnalyticsLogger>,
    output: &mut PartialOutput,
) -> Result<(), Exit> {
    // Skip records a prior attempt already reduced (their output is in the
    // restored PartialOutput) — the "avoided deserialization and reduce
    // computation" of §IV/Fig. 15.
    let mut processed: u64 = 0;
    while processed < skip {
        match q.pop_with(|_, _| ()) {
            Ok(Some(())) => processed += 1,
            Ok(None) => break,
            Err(_) => return Err(Exit::Silent),
        }
    }

    let initial_remaining = (q.remaining_bytes().max(1)) as f64;
    let mut groups: u64 = 0;
    let mut reported = None;
    // The group's first key and its values, reused from group to group.
    let mut gk: Vec<u8> = Vec::new();
    let mut vals: Vec<Vec<u8>> = Vec::new();
    loop {
        let n = match q.pop_group(&mut gk, &mut vals, |first, k| ctx.job.workload.same_group(first, k)) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => return Err(Exit::Silent),
        };
        processed += n as u64;
        ctx.job.workload.reduce(&gk, &vals[..n], &mut |rec| {
            output.append(&rec.key, &rec.value);
        });
        groups += 1;

        if groups.is_multiple_of(32) {
            if ctx.safe_point() {
                return Err(Exit::Silent);
            }
            let frac = if streaming {
                0.0 // streaming queues cannot estimate remaining bytes
            } else {
                1.0 - q.remaining_bytes() as f64 / initial_remaining
            };
            if ctx.should_self_kill(ReducePhase::Reduce, frac) {
                return Err(Exit::Failed(FailureKind::TaskOom));
            }
            ctx.reduce_progress(frac, &mut reported);
            if let Some(lg) = logger.as_mut() {
                let snapshot = if streaming { Vec::new() } else { q.snapshot() };
                if lg
                    .maybe_log_reduce(ctx.now_ms(), &ctx.dfs, ctx.node.id, &snapshot, processed, output)
                    .is_err()
                {
                    return Err(Exit::Silent);
                }
            }
        }
    }
    // A kill point in the reduce stage must fire even for tiny inputs that
    // never hit the periodic check.
    if ctx.should_self_kill(ReducePhase::Reduce, 1.0) && ctx.kill_at.is_some_and(|k| k < 1.0) {
        return Err(Exit::Failed(FailureKind::TaskOom));
    }
    ctx.reduce_progress(1.0, &mut reported);
    Ok(())
}

/// Commit the final output to the DFS and report success.
fn commit(ctx: &ReduceCtx, output: &mut PartialOutput) {
    if ctx.dead_or_cancelled() {
        return;
    }
    let final_path = ctx.job.output_path(ctx.partition());
    let taken = std::mem::replace(output, PartialOutput::new(&LogPaths::for_task(ctx.attempt.task)));
    match taken.commit(&ctx.dfs, ctx.node.id, ReplicationLevel::Cluster, &final_path) {
        Ok(records) => {
            let _ = ctx.events.send(TaskEvent::ReduceCompleted {
                attempt: ctx.attempt,
                node: ctx.node.id,
                output_records: records,
            });
        }
        Err(_) => {
            // DFS write failed (e.g. no live replicas): report failure.
            ctx.fail(FailureKind::TaskTimeout);
        }
    }
}
