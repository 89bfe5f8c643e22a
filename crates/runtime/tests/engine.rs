//! End-to-end tests of the threaded mini-YARN: every scenario checks both
//! *liveness* (the job completes despite injected faults) and *safety*
//! (committed output is byte-identical to the reference oracle's).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use alm_core::fetch::MAX_GRAY_DROPS;
use alm_core::LogPaths;
use alm_runtime::am::run_job;
use alm_runtime::{FaultPlan, JobDef, JobReport, MiniCluster};
use alm_shuffle::LocalFs;
use alm_types::{
    AlmConfig, CorruptTarget, FailureKind, Fault, JobId, LinkDirection, NodeId, RecoveryMode, TaskId,
    TaskKind, YarnConfig,
};
use alm_workloads::reference::{canonicalize, reference_output};
use alm_workloads::{Record, SecondarySort, Terasort, Wordcount, Workload};

fn job(id: u32, workload: Arc<dyn Workload>, maps: u32, reduces: u32, mode: RecoveryMode) -> JobDef {
    JobDef::new(JobId(id), workload, maps, reduces, 42, AlmConfig::with_mode(mode))
}

/// Read committed outputs back from the DFS and decode them.
fn committed_outputs(cluster: &MiniCluster, job: &JobDef) -> Vec<Vec<Record>> {
    (0..job.num_reduces)
        .map(|r| {
            let data = cluster
                .dfs
                .read(&job.output_path(r))
                .unwrap_or_else(|e| panic!("partition {r} missing: {e}"));
            let mut out = Vec::new();
            let mut off = 0;
            while let Some((k, v, next)) =
                alm_shuffle::codec::decode_at(&data, off).expect("committed output decodes")
            {
                out.push(Record::new(k.to_vec(), v.to_vec()));
                off = next;
            }
            out
        })
        .collect()
}

fn failures_with(report: &JobReport, kind: FailureKind) -> usize {
    report.run.trace.failures().filter(|f| f.kind == kind).count()
}

/// The attempt trace's invariants (time order, a launch first and at most
/// one end per attempt), and the fields the report keeps for `benchmark/`
/// equal to what the run says: the outcome, the job time in milliseconds,
/// the launches as attempt counts and `failures` as the trace's failure
/// view, element for element, in milliseconds.
fn assert_trace_invariants(report: &JobReport) {
    let (run, trace) = (&report.run, &report.run.trace);
    assert_eq!(trace.check(), Ok(()), "{trace:?}");
    assert_eq!((report.succeeded, report.job_time_ms), (run.succeeded, run.job_ns / 1_000_000));
    let launches = (trace.launches(TaskKind::Map), trace.launches(TaskKind::Reduce), trace.fcm_launches());
    assert_eq!(launches, (report.map_attempts, report.reduce_attempts, report.fcm_attempts));
    assert_eq!(report.failures.len(), trace.failures().count());
    for (event, f) in report.failures.iter().zip(trace.failures()) {
        let view = (f.at_ns / 1_000_000, f.attempt.task, f.attempt.number, f.kind);
        assert_eq!((event.at_ms, event.task, event.attempt_number, event.kind), view);
    }
}

fn assert_output_matches(cluster: &MiniCluster, jd: &JobDef) {
    let got = committed_outputs(cluster, jd);
    let expected = reference_output(jd.workload.as_ref(), jd.num_maps, jd.num_reduces, jd.seed);
    assert_eq!(
        canonicalize(&got),
        canonicalize(&expected),
        "engine output must equal the reference oracle's"
    );
}

// ---------- failure-free correctness, all workloads, all modes ----------

fn run_clean(workload: Arc<dyn Workload>, maps: u32, reduces: u32, mode: RecoveryMode, id: u32) {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = job(id, workload, maps, reduces, mode);
    let report = run_job(cluster.clone(), jd.clone(), FaultPlan::none());
    assert!(report.run.succeeded, "failure-free job must succeed: {report:?}");
    assert!(report.run.trace.failures().next().is_none());
    assert_output_matches(&cluster, &jd);
}

#[test]
fn terasort_clean_baseline() {
    run_clean(Arc::new(Terasort::new(800)), 3, 4, RecoveryMode::Baseline, 1);
}

#[test]
fn terasort_clean_sfm_alg() {
    run_clean(Arc::new(Terasort::new(800)), 3, 4, RecoveryMode::SfmAlg, 2);
}

#[test]
fn wordcount_clean_baseline() {
    run_clean(Arc::new(Wordcount::new(4000, 20)), 3, 2, RecoveryMode::Baseline, 3);
}

#[test]
fn wordcount_clean_alg() {
    run_clean(Arc::new(Wordcount::new(4000, 20)), 3, 2, RecoveryMode::Alg, 4);
}

#[test]
fn secondarysort_clean_baseline() {
    run_clean(Arc::new(SecondarySort::new(700)), 2, 3, RecoveryMode::Baseline, 5);
}

#[test]
fn secondarysort_clean_sfm_alg() {
    run_clean(Arc::new(SecondarySort::new(700)), 2, 3, RecoveryMode::SfmAlg, 6);
}

// ---------- single task failures (Fig. 2 / Fig. 8 scenario) ----------

#[test]
fn map_oom_recovers_quickly_baseline() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = job(10, Arc::new(Terasort::new(600)), 4, 2, RecoveryMode::Baseline);
    let plan = FaultPlan::kill_task(TaskId::map(JobId(10), 1), 0.5);
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded);
    assert_eq!(report.run.trace.failures().count(), 1);
    assert_trace_invariants(&report);
    assert!(report.run.trace.launches(TaskKind::Map) >= 5, "the failed map re-ran");
    assert_output_matches(&cluster, &jd);
}

/// Recovery relaunches a failed task at once, so the attempt budget has to
/// hold at the failure itself: with `max_task_attempts = 8`, a map killed
/// on each of its eight attempts fails the job, and attempt 8 never runs.
#[test]
fn map_killed_on_every_attempt_fails_the_job_at_the_budget() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    assert_eq!(cluster.config.max_task_attempts, 8);
    let jd = job(13, Arc::new(Terasort::new(600)), 4, 2, RecoveryMode::Baseline);
    let task = TaskId::map(JobId(13), 1);
    let kills = (0..8).map(|attempt_number| Fault::KillTask { task, attempt_number, at_progress: 0.5 });
    let report = run_job(cluster, jd, FaultPlan { faults: kills.collect() });
    assert!(!report.run.succeeded, "{report:?}");
    let failed: Vec<u32> = report.run.trace.failures().map(|f| f.attempt.number).collect();
    assert_eq!(failed, (0..8).collect::<Vec<_>>(), "{report:?}");
    assert_eq!(report.run.trace.launches(TaskKind::Map), 4 + 7, "no attempt after the eighth");
    assert_trace_invariants(&report);
}

#[test]
fn reduce_oom_recovers_baseline() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = job(11, Arc::new(Terasort::new(600)), 3, 2, RecoveryMode::Baseline);
    let plan = FaultPlan::kill_task(TaskId::reduce(JobId(11), 0), 0.9);
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert!(report.run.trace.failures().any(|f| f.attempt.task == TaskId::reduce(JobId(11), 0)));
    assert_trace_invariants(&report);
    assert_output_matches(&cluster, &jd);
}

#[test]
fn reduce_oom_resumes_from_logs_alg() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let mut alm = AlmConfig::with_mode(RecoveryMode::Alg);
    alm.logging_interval_ms = 1; // log eagerly so the resume path is exercised
    let jd = JobDef::new(JobId(12), Arc::new(Terasort::new(1500)), 3, 2, 42, alm);
    let plan = FaultPlan::kill_task(TaskId::reduce(JobId(12), 1), 0.9);
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert_output_matches(&cluster, &jd);
}

#[test]
fn alg_relaunch_resumes_shuffle_stage_logs_on_the_logging_node() {
    // Five maps and three reduces on five nodes: round-robin puts reducer 0
    // on node 0 and points at node 3 next. ALG must relaunch it on node 0
    // anyway, where its shuffle-stage records and spill files are.
    let cluster = Arc::new(MiniCluster::for_tests(5));
    let mut alm = AlmConfig::with_mode(RecoveryMode::Alg);
    alm.logging_interval_ms = 1;
    let jd = JobDef::new(JobId(16), Arc::new(Terasort::new(900)), 5, 3, 42, alm);
    // Self-kill 60 % into the shuffle, after its first record was logged.
    let plan = throttled(5, FaultPlan::kill_task(jd.reduce_task(0), 0.2));
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert!(
        report
            .log_recoveries
            .iter()
            .any(|e| e.task == jd.reduce_task(0) && e.attempt_number == 1 && e.report.resumed_seq.is_some()),
        "the relaunch resumed from its local logs: {:?}",
        report.log_recoveries
    );
    assert_output_matches(&cluster, &jd);
}

#[test]
fn reduce_oom_all_workloads_sfm_alg() {
    let workloads: Vec<(u32, Arc<dyn Workload>)> = vec![
        (13, Arc::new(Terasort::new(700))),
        (14, Arc::new(Wordcount::new(3000, 25))),
        (15, Arc::new(SecondarySort::new(600))),
    ];
    for (id, w) in workloads {
        let cluster = Arc::new(MiniCluster::for_tests(4));
        let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
        alm.logging_interval_ms = 1;
        let jd = JobDef::new(JobId(id), w, 3, 2, 42, alm);
        let plan = FaultPlan::kill_task(TaskId::reduce(JobId(id), 0), 0.5);
        let report = run_job(cluster.clone(), jd.clone(), plan);
        assert!(report.run.succeeded, "job {id}: {report:?}");
        assert_output_matches(&cluster, &jd);
    }
}

// ---------- node crashes (Figs. 3/4/9/10, Table II scenario) ----------

#[test]
fn node_crash_baseline_recovers_with_amplification() {
    let cluster = Arc::new(MiniCluster::for_tests(5));
    let jd = job(20, Arc::new(Terasort::new(900)), 5, 3, RecoveryMode::Baseline);
    // Crash node 1 mid-shuffle with its MOF certainly unserved: the node is
    // cut off from t = 0 — the AM severs the links before it registers any
    // MOF — so however fast the data plane, no other reducer can have
    // fetched map 1's output when the node dies, and reducer 1 (which
    // round-robin placed on node 1) cannot have finished its shuffle.
    let plan = [0, 2, 3, 4].into_iter().fold(FaultPlan::crash_node_at_ms(NodeId(1), 10), |plan, peer| {
        plan.and(FaultPlan::partition_link(NodeId(1), NodeId(peer), 0, 60_000))
    });
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    // Baseline cannot hide the loss: reducer 1 died with the node, and map
    // 1's stranded output had to be produced again.
    assert!(failures_with(&report, FailureKind::NodeCrash) >= 1, "{:?}", report.run.trace);
    assert!(
        report.run.trace.launches(TaskKind::Map) > jd.num_maps,
        "the stranded MOF was regenerated: {report:?}"
    );
    assert_trace_invariants(&report);
    assert_output_matches(&cluster, &jd);
}

#[test]
fn node_crash_sfm_no_reduce_amplification() {
    let cluster = Arc::new(MiniCluster::for_tests(5));
    let jd = job(21, Arc::new(Terasort::new(900)), 5, 3, RecoveryMode::Sfm);
    let plan = FaultPlan::crash_node_at_reduce_progress(NodeId(1), 0, 0.05);
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    // SFM's proactive regeneration means no healthy reducer is preempted
    // for fetch failures: the only failures are tasks that died with the node.
    assert!(
        report.run.trace.failures().all(|f| f.kind == FailureKind::NodeCrash),
        "no fetch-failure amplification under SFM: {:?}",
        report.run.trace
    );
    assert_trace_invariants(&report);
    assert_output_matches(&cluster, &jd);
}

#[test]
fn node_crash_sfm_alg_single_reducer_temporal_case() {
    // The Fig. 10 scenario: Wordcount with one ReduceTask, node crash mid-
    // reduce; SFM+ALG migrates with FCM and resumes from DFS logs.
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
    alm.logging_interval_ms = 1;
    let jd = JobDef::new(JobId(22), Arc::new(Wordcount::new(5000, 25)), 4, 1, 42, alm);
    // Crash the reducer's own node: reduce 0 runs on some node; crash node 0
    // at 50% reduce progress (node 0 hosts MOFs and possibly the reducer).
    let plan = FaultPlan::crash_node_at_reduce_progress(NodeId(0), 0, 0.5);
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert_output_matches(&cluster, &jd);
}

#[test]
fn multiple_concurrent_node_crashes_sfm() {
    let cluster = Arc::new(MiniCluster::for_tests(6));
    let jd = job(23, Arc::new(Terasort::new(600)), 4, 4, RecoveryMode::SfmAlg);
    // One victim per rack: a reducer that has already committed can lose
    // both replicas of its partition, and the AM must then run it again.
    let plan = FaultPlan::crash_node_at_reduce_progress(NodeId(1), 0, 0.05)
        .and(FaultPlan::crash_node_at_reduce_progress(NodeId(2), 1, 0.05));
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert_trace_invariants(&report);
    assert_output_matches(&cluster, &jd);
}

#[test]
fn committed_partition_that_loses_every_replica_is_reduced_again() {
    for (id, mode) in [(27, RecoveryMode::Baseline), (28, RecoveryMode::SfmAlg)] {
        let cluster = Arc::new(MiniCluster::for_tests(6));
        let jd = job(id, Arc::new(Terasort::new(1500)), 4, 2, mode);
        let lost_path = jd.output_path(0);
        let done = Arc::new(AtomicBool::new(false));
        // The moment reducer 0 has committed, crash nodes until its
        // partition has no live replica left: its writer (round-robin put
        // reducer 0 on node 4, after the four maps), then the other rack
        // until the second copy is hit.
        let watcher = std::thread::spawn({
            let (cluster, done, path) = (cluster.clone(), done.clone(), lost_path.clone());
            move || {
                while !done.load(Ordering::Acquire) {
                    if cluster.dfs.exists(&path) {
                        for n in [4, 1, 3, 5] {
                            cluster.crash_node(NodeId(n));
                            if !cluster.dfs.has_live_replicas(&path) {
                                return true;
                            }
                        }
                        return false;
                    }
                    std::thread::yield_now();
                }
                false
            }
        });
        // Reducer 1 (node 5) crawls, so the job is still running when
        // reducer 0's output goes.
        let report = run_job(cluster.clone(), jd.clone(), FaultPlan::slow_node(NodeId(5), 0, 11.0));
        done.store(true, Ordering::Release);
        assert!(watcher.join().expect("watcher"), "{mode:?}: partition 0 lost every replica mid-job");
        assert!(report.run.succeeded, "{mode:?}: {report:?}");
        assert!(
            report.run.trace.launches(TaskKind::Reduce) > jd.num_reduces,
            "{mode:?}: reducer 0 ran again: {report:?}"
        );
        assert!(cluster.dfs.has_live_replicas(&lost_path), "{mode:?}");
        assert_output_matches(&cluster, &jd);
    }
}

#[test]
fn fcm_attempts_launched_on_node_failure_sfm() {
    let cluster = Arc::new(MiniCluster::for_tests(5));
    let jd = job(24, Arc::new(Terasort::new(800)), 4, 2, RecoveryMode::Sfm);
    // Crash a node hosting MOFs + possibly a reducer.
    let plan = FaultPlan::crash_node_at_reduce_progress(NodeId(0), 0, 0.05);
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    if report.run.trace.failures().any(|f| f.attempt.task.is_reduce()) {
        assert!(report.run.trace.fcm_launches() > 0, "reduce recovery under SFM uses FCM mode");
    }
    assert_output_matches(&cluster, &jd);
}

// ---------- late failures: recovery from reduce-stage logs ----------

/// Every node throttled so that consecutive reduce-stage safe points are
/// at least one (1 ms) logging interval apart: every safe point snapshots,
/// and the reduce stage lasts a few hundred snapshots.
fn throttled(nodes: u32, plan: FaultPlan) -> FaultPlan {
    (0..nodes).fold(plan, |plan, n| plan.and(FaultPlan::slow_node(NodeId(n), 0, 6.0)))
}

fn eager_sfm_alg(id: u32) -> JobDef {
    let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
    alm.logging_interval_ms = 1;
    JobDef::new(JobId(id), Arc::new(Terasort::new(1500)), 4, 1, 42, alm)
}

fn reduce_stage_records(cluster: &MiniCluster) -> usize {
    cluster.dfs.list("/alg/").iter().filter(|p| p.contains("/log-")).count()
}

#[test]
fn late_reducer_kill_resumes_from_reduce_stage_logs() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = eager_sfm_alg(25);
    // Self-kill 85 % into the reduce stage: a hundred-odd snapshots in.
    let plan = throttled(4, FaultPlan::kill_task(jd.reduce_task(0), 0.95));
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert!(reduce_stage_records(&cluster) > 0, "the reducer logged its reduce stage");
    assert!(
        report.log_recoveries.iter().any(|e| e.report.resumed_seq.is_some()),
        "the relaunch resumed from a record: {:?}",
        report.log_recoveries
    );
    assert!(report.recoveries_bounded(), "{:?}", report.log_recoveries);
    assert_output_matches(&cluster, &jd);
}

#[test]
fn late_node_crash_resumes_from_reduce_stage_logs() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = eager_sfm_alg(26);
    let paths = LogPaths::for_task(jd.reduce_task(0));
    let done = Arc::new(AtomicBool::new(false));
    // Crash the reducer's node the moment its first reduce-stage record is
    // on the DFS. The node is the one holding the task's shuffle-stage
    // records on its local store.
    let watcher = std::thread::spawn({
        let (cluster, done) = (cluster.clone(), done.clone());
        move || {
            while !done.load(Ordering::Acquire) {
                if reduce_stage_records(&cluster) > 0 {
                    let home = cluster.nodes.iter().find(|n| !n.fs.list(&paths.local_prefix).is_empty());
                    let home = home.expect("the reducer logged its shuffle stage locally").id;
                    cluster.crash_node(home);
                    return Some(home);
                }
                std::thread::yield_now();
            }
            None
        }
    });
    let report = run_job(cluster.clone(), jd.clone(), throttled(4, FaultPlan::none()));
    done.store(true, Ordering::Release);
    let crashed =
        watcher.join().expect("watcher").expect("a reduce-stage record appeared before the job ended");
    assert!(report.run.succeeded, "{report:?}");
    assert!(failures_with(&report, FailureKind::NodeCrash) >= 1, "node {crashed}: {report:?}");
    // The node's local logs died with it: a resumed record is a DFS one.
    assert!(
        report.log_recoveries.iter().any(|e| e.report.resumed_seq.is_some()),
        "the migrated attempt resumed from a reduce-stage record: {:?}",
        report.log_recoveries
    );
    assert!(report.recoveries_bounded(), "{:?}", report.log_recoveries);
    assert_output_matches(&cluster, &jd);
}

// ---------- determinism / idempotence under duplicate attempts ----------

#[test]
fn a_reducer_waiting_for_a_straggling_map_does_not_time_out() {
    // The shuffle wait cap bounds a shuffle parked behind cut links. Here
    // nothing is cut: every map straggles well past the cap (8 000
    // records at 1 ms per 64), and the reducers, launched with the maps,
    // wait for outputs that are not ready yet. That wait is not a park.
    let config = YarnConfig { shuffle_wait_cap_ms: 50, ..YarnConfig::scaled_for_tests() };
    let cluster = Arc::new(MiniCluster::new(4, MiniCluster::test_racks(4), config));
    let jd = job(49, Arc::new(Terasort::new(8_000)), 4, 2, RecoveryMode::Baseline);
    let report = run_job(cluster.clone(), jd.clone(), throttled(4, FaultPlan::none()));
    assert!(report.run.succeeded, "{report:?}");
    let failures: Vec<FailureKind> = report.run.trace.failures().map(|f| f.kind).collect();
    assert!(failures.is_empty(), "{failures:?}");
    assert_output_matches(&cluster, &jd);
}

#[test]
fn speculative_duplicates_commit_identical_output() {
    // SFM often runs a local resume AND an FCM migration concurrently; the
    // first to finish wins, and output must be correct either way.
    for seed in [1u64, 2, 3] {
        let cluster = Arc::new(MiniCluster::for_tests(4));
        let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
        alm.logging_interval_ms = 1;
        let jd = JobDef::new(JobId(30 + seed as u32), Arc::new(Terasort::new(500)), 3, 2, seed, alm);
        let plan = FaultPlan::kill_task(TaskId::reduce(jd.id, 0), 0.4);
        let report = run_job(cluster.clone(), jd.clone(), plan);
        assert!(report.run.succeeded, "seed {seed}: {report:?}");
        assert_output_matches(&cluster, &jd);
    }
}

/// The reduce stage reports progress at its first safe point and then only
/// when overall progress reaches a new whole percent, not every 32 key
/// groups: 6000 distinct Terasort keys on one reducer (≈ 190 safe points)
/// leave at most 35 reduce-stage samples, ending at 100 %.
#[test]
fn reduce_stage_progress_is_sampled_per_whole_percent() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = job(60, Arc::new(Terasort::new(3000)), 2, 1, RecoveryMode::Baseline);
    let report = run_job(cluster.clone(), jd.clone(), FaultPlan::none());
    assert!(report.run.succeeded, "{report:?}");
    assert_output_matches(&cluster, &jd);
    let timeline = &report.run.progress[&0];
    // The merge stage's one report is overall 2/3; the reduce stage follows.
    let merged =
        timeline.iter().position(|&(_, p)| p >= 2.0 / 3.0 - 1e-9).expect("the merge stage reports its end");
    let percents: Vec<u32> = timeline[merged + 1..].iter().map(|&(_, p)| (p * 100.0) as u32).collect();
    assert!((1..=35).contains(&percents.len()), "{} reduce-stage samples: {percents:?}", percents.len());
    assert!(percents.windows(2).all(|w| w[0] < w[1]), "one sample per whole percent: {percents:?}");
    assert_eq!(percents.last(), Some(&100), "{percents:?}");
}

// ---------- transient faults: partitions, corruption, checksummed recovery ----------

#[test]
fn partition_healing_before_liveness_causes_no_node_loss() {
    for (id, mode) in [(40, RecoveryMode::Baseline), (41, RecoveryMode::SfmAlg)] {
        let cluster = Arc::new(MiniCluster::for_tests(5));
        let jd = job(id, Arc::new(Terasort::new(900)), 5, 3, mode);
        // Sever two links at t=0 and heal them well before the scaled
        // liveness timeout (250 ms): every node keeps heartbeating, so the
        // partition must only delay the shuffle — never amplify.
        let plan = FaultPlan::partition_link(NodeId(0), NodeId(1), 0, 100).and(FaultPlan::partition_link(
            NodeId(2),
            NodeId(1),
            0,
            100,
        ));
        let report = run_job(cluster.clone(), jd.clone(), plan);
        assert!(report.run.succeeded, "{mode:?}: {report:?}");
        // Zero node-lost declarations, zero fetch-failure preemptions and
        // zero map re-executions: parked fetches burn no retry budget.
        assert_eq!(failures_with(&report, FailureKind::NodeCrash), 0, "{mode:?}");
        assert_eq!(failures_with(&report, FailureKind::FetchFailureLimit), 0, "{mode:?}");
        assert!(report.run.trace.failures().next().is_none(), "{mode:?}: {:?}", report.run.trace);
        assert_eq!(
            report.run.trace.launches(TaskKind::Map),
            jd.num_maps,
            "no map re-execution under {mode:?}"
        );
        assert_eq!(
            report.run.trace.launches(TaskKind::Reduce),
            jd.num_reduces,
            "no reduce re-execution under {mode:?}"
        );
        assert_output_matches(&cluster, &jd);
    }
}

#[test]
fn inverted_partition_window_is_zero_length() {
    let cluster = Arc::new(MiniCluster::for_tests(5));
    let jd = job(45, Arc::new(Terasort::new(900)), 5, 3, RecoveryMode::Baseline);
    // Node 1 cut from every peer by windows that heal before they sever.
    // Armed, each heal lands on its sever, so the link never stays cut;
    // replayed raw, the heal would fire first and the cut would outlive
    // the job, parking every fetch across it until the shuffle wait cap.
    let plan = [0, 2, 3, 4].into_iter().fold(FaultPlan::none(), |plan, peer| {
        plan.and(FaultPlan::partition_link(NodeId(1), NodeId(peer), 1, 0))
    });
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert!(report.run.trace.failures().next().is_none(), "{:?}", report.run.trace);
    assert_eq!(report.run.trace.launches(TaskKind::Map), jd.num_maps, "{report:?}");
    assert_output_matches(&cluster, &jd);
}

#[test]
fn repeated_slow_faults_keep_the_largest_factor() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = job(46, Arc::new(Terasort::new(300)), 2, 1, RecoveryMode::Baseline);
    // Two slowdowns of one node due at once: the simulator keeps the max,
    // and so must the runtime, whatever the plan order.
    let plan = FaultPlan::slow_node(NodeId(3), 0, 6.0).and(FaultPlan::slow_node(NodeId(3), 0, 2.0));
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert_eq!(cluster.node(NodeId(3)).slow_factor(), 6.0);
    assert_output_matches(&cluster, &jd);
}

#[test]
fn a_progress_crash_fires_when_its_reduce_completes() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = job(47, Arc::new(Terasort::new(300)), 4, 2, RecoveryMode::Baseline);
    // No progress report reaches 2.0, so only a completion can fire these.
    // The first reduce to complete fires its crash; the second ends the
    // job. The simulator fires a progress crash on completion too.
    let at_completion = |r| FaultPlan::crash_node_at_reduce_progress(NodeId(3), r, 2.0);
    // A reduce out of range never completes, so its crash never fires.
    let out_of_range = FaultPlan::crash_node_at_reduce_progress(NodeId(2), 9, 0.5);
    let report =
        run_job(cluster.clone(), jd.clone(), at_completion(0).and(at_completion(1)).and(out_of_range));
    assert!(report.run.succeeded, "{report:?}");
    assert!(!cluster.node(NodeId(3)).is_alive(), "{report:?}");
    assert!(cluster.node(NodeId(2)).is_alive(), "{report:?}");
    assert_trace_invariants(&report);
    assert_output_matches(&cluster, &jd);
}

#[test]
fn corrupted_mof_partition_is_refetched_without_preemption() {
    for (id, mode) in [(42, RecoveryMode::Baseline), (43, RecoveryMode::SfmAlg)] {
        let cluster = Arc::new(MiniCluster::for_tests(4));
        let jd = job(id, Arc::new(Terasort::new(800)), 3, 4, mode);
        // Rot reduce 2's partition of map 1's MOF the moment it commits.
        let plan =
            FaultPlan::corrupt_data(NodeId(0), CorruptTarget::MofPartition { map_index: 1, partition: 2 }, 0);
        let report = run_job(cluster.clone(), jd.clone(), plan);
        assert!(report.run.succeeded, "{mode:?}: {report:?}");
        // The reducer detected the rot and the AM regenerated the MOF; the
        // fetch-failure budget was never charged, so no task failed.
        assert!(report.run.counters.corruption_refetches >= 1, "{mode:?}: rot must be reported: {report:?}");
        assert_eq!(failures_with(&report, FailureKind::FetchFailureLimit), 0, "{mode:?}");
        assert!(
            report.run.trace.failures().next().is_none(),
            "{mode:?}: repair is failure-free: {:?}",
            report.run.trace
        );
        assert_eq!(
            report.run.trace.launches(TaskKind::Map),
            jd.num_maps + 1,
            "exactly one regeneration under {mode:?}"
        );
        assert_output_matches(&cluster, &jd);
    }
}

#[test]
fn a_link_that_drops_every_transfer_costs_no_failure() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let jd = job(48, Arc::new(Terasort::new(800)), 3, 4, RecoveryMode::Baseline);
    // Every link drops every transfer for the whole job. A reducer fetches
    // each remote partition again after each drop, and the cap on drops
    // per map lets the next transfer through: no retry budget is charged,
    // no stall timer runs, and nothing fails.
    let plan =
        (0..4).flat_map(|a| (a + 1..4).map(move |b| (a, b))).fold(FaultPlan::none(), |plan, (a, b)| {
            plan.and(FaultPlan::degraded_link(
                NodeId(a),
                NodeId(b),
                LinkDirection::Both,
                0,
                600_000,
                1.0,
                1.0,
            ))
        });
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert!(report.run.trace.failures().next().is_none(), "{:?}", report.run.trace);
    let drops = report.run.counters.degraded_drops;
    assert!(drops > 0 && drops.is_multiple_of(MAX_GRAY_DROPS), "each remote fetch drops the cap: {drops}");
    assert_output_matches(&cluster, &jd);
}

#[test]
fn corrupted_alg_log_recovery_is_bounded() {
    let cluster = Arc::new(MiniCluster::for_tests(4));
    let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
    alm.logging_interval_ms = 1;
    // Allow a second attempt on the origin node: the local-resume path is the
    // one that consults the node-local shuffle-stage logs (Algorithm 1 l.9-12).
    alm.limit_local = 2;
    let jd = JobDef::new(JobId(44), Arc::new(Terasort::new(900)), 4, 2, 42, alm);
    // Reduce 0 parks behind a partitioned map source, writing shuffle-stage
    // log records the whole time; its first record rots on disk, and the
    // attempt is killed right after the shuffle completes. Recovery must
    // classify the rot, truncate at it, and redo at most one snapshot
    // interval of work.
    let plan = FaultPlan::partition_link(NodeId(0), NodeId(3), 0, 80)
        .and(FaultPlan::corrupt_data(NodeId(0), CorruptTarget::AlgRecord { reduce_index: 0, seq: 0 }, 0))
        .and(FaultPlan::kill_task(TaskId::reduce(JobId(44), 0), 0.34));
    let report = run_job(cluster.clone(), jd.clone(), plan);
    assert!(report.run.succeeded, "{report:?}");
    assert!(!report.log_recoveries.is_empty(), "the killed reducer must consult its logs: {report:?}");
    assert!(report.recoveries_bounded(), "at most one snapshot interval redone: {:?}", report.log_recoveries);
    assert!(
        report.log_recoveries.iter().any(|e| e.report.checksum_mismatches > 0),
        "the rotted record must be seen and classified: {:?}",
        report.log_recoveries
    );
    assert_output_matches(&cluster, &jd);
}
