//! Cross-crate integration tests: the two engines (threaded runtime and
//! discrete-event simulator) driven through the facade crate, checked
//! against each other and against the paper's qualitative claims.

use std::sync::Arc;

use alm_mapreduce::prelude::*;
use alm_mapreduce::runtime::am::run_job;
use alm_mapreduce::sim::experiment::{node_of_reduce, run_one};
use alm_mapreduce::types::FailureKind;
use alm_mapreduce::workloads::reference::{canonicalize, reference_output};

fn committed(cluster: &MiniCluster, job: &JobDef) -> Vec<Record> {
    let mut all = Vec::new();
    for r in 0..job.num_reduces {
        let data = cluster.dfs.read(&job.output_path(r)).expect("output committed");
        let mut off = 0;
        while let Some((k, v, next)) = alm_mapreduce::shuffle::codec::decode_at(&data, off).unwrap() {
            all.push(Record::new(k.to_vec(), v.to_vec()));
            off = next;
        }
    }
    all.sort();
    all
}

/// Every recovery mode, same injected fault, byte-identical output.
#[test]
fn all_modes_agree_on_output_under_failure() {
    let mut outputs = Vec::new();
    for mode in [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg] {
        let cluster = Arc::new(MiniCluster::for_tests(4));
        let mut alm = AlmConfig::with_mode(mode);
        alm.logging_interval_ms = 1;
        let job = JobDef::new(JobId(3), Arc::new(SecondarySort::new(800)), 3, 2, 11, alm);
        let faults = FaultPlan::kill_task(TaskId::reduce(JobId(3), 1), 0.7);
        let report = run_job(cluster.clone(), job.clone(), faults);
        assert!(report.run.succeeded, "{mode:?}: {report:?}");
        outputs.push((mode, committed(&cluster, &job)));
    }
    let expected = canonicalize(&reference_output(&SecondarySort::new(800), 3, 2, 11));
    for (mode, out) in &outputs {
        assert_eq!(out, &expected, "{mode:?} output deviates from the oracle");
    }
}

/// The headline claim, end to end on the simulator: under a node failure,
/// baseline YARN amplifies; the full ALM framework does not, and recovers
/// faster.
#[test]
fn alm_framework_cracks_down_amplification_at_paper_scale() {
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, 9);
    let baseline_env = ExperimentEnv::paper(RecoveryMode::Baseline);
    let alm_env = ExperimentEnv::paper(RecoveryMode::SfmAlg);
    let victim = node_of_reduce(&spec, &baseline_env, 0);
    let fault = FaultPlan::crash_node_at_reduce_progress(NodeId(victim), 0, 0.5);

    let yarn = run_one(&spec, &baseline_env, fault.clone());
    let alm = run_one(&spec, &alm_env, fault);
    assert!(yarn.run.succeeded && alm.run.succeeded);

    let fetch_fails = |r: &alm_mapreduce::sim::SimReport| {
        r.run.trace.failures().filter(|f| f.kind == FailureKind::FetchFailureLimit).count()
    };
    assert!(fetch_fails(&yarn) > 0, "baseline must amplify: {:?}", yarn.run.trace);
    assert_eq!(fetch_fails(&alm), 0, "ALM must not amplify: {:?}", alm.run.trace);
    assert!(
        alm.run.job_secs() < yarn.run.job_secs(),
        "ALM {:.1}s vs YARN {:.1}s",
        alm.run.job_secs(),
        yarn.run.job_secs()
    );
}

/// The threaded engine and the simulator agree qualitatively: a late
/// ReduceTask failure is far more expensive than a MapTask failure, in
/// both engines (Fig. 1 / Fig. 2 cross-validation).
#[test]
fn engines_agree_reduce_failures_dominate() {
    // Simulator, paper scale.
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, 5);
    let e = ExperimentEnv::paper(RecoveryMode::Baseline);
    let clean = run_one(&spec, &e, FaultPlan::none()).run.job_secs();
    let map_f = run_one(&spec, &e, FaultPlan::kill_task(TaskId::map(JobId(0), 0), 0.5)).run.job_secs();
    let red_f = run_one(&spec, &e, FaultPlan::kill_task(TaskId::reduce(JobId(0), 0), 0.9)).run.job_secs();
    assert!(red_f - clean > (map_f - clean).max(1.0) * 2.0, "sim: {clean:.0}/{map_f:.0}/{red_f:.0}");

    // Threaded engine, test scale. Wall-clock deltas at this scale are
    // noise-dominated, so assert the *structural* form of the asymmetry:
    // a late reduce failure forces a full reduce re-execution (an extra
    // reduce attempt that redoes its shuffle), while a map failure costs
    // one extra map attempt and no reduce attempts.
    let runtime_run = |fault: FaultPlan| {
        let cluster = Arc::new(MiniCluster::for_tests(4));
        let job = JobDef::new(
            JobId(5),
            Arc::new(Terasort::new(8_000)),
            4,
            2,
            1,
            AlmConfig::with_mode(RecoveryMode::Baseline),
        );
        let r = run_job(cluster, job, fault);
        assert!(r.run.succeeded);
        r
    };
    let map_run = runtime_run(FaultPlan::kill_task(TaskId::map(JobId(5), 0), 0.5));
    assert_eq!(map_run.run.trace.launches(TaskKind::Map), 5, "one extra map attempt");
    assert_eq!(map_run.run.trace.launches(TaskKind::Reduce), 2, "no reduce recovery needed");
    let red_run = runtime_run(FaultPlan::kill_task(TaskId::reduce(JobId(5), 0), 0.9));
    assert!(red_run.run.trace.launches(TaskKind::Reduce) >= 3, "the failed reduce re-executes from scratch");
}

/// ALG's logged analytics survive a node crash end to end: log records on
/// the DFS outlive the writer and a migrated attempt restores them.
#[test]
fn alg_logs_survive_node_loss_and_resume() {
    use alm_mapreduce::core::{recover_state, LogPaths, RecoveredState};
    use alm_mapreduce::dfs::{DfsCluster, Topology};
    use alm_mapreduce::shuffle::MemFs;

    let dfs = DfsCluster::new(Topology::even(6, 2), 1 << 20, 2);
    let task = TaskId::reduce(JobId(1), 0);
    let attempt = task.attempt(0);
    let paths = LogPaths::for_task(task);
    let mut config = AlmConfig::with_mode(RecoveryMode::SfmAlg);
    config.logging_interval_ms = 1;
    let mut logger = alm_mapreduce::core::AnalyticsLogger::new(&config, attempt);
    let mut output = alm_mapreduce::core::PartialOutput::new(&paths);
    output.append(b"key", b"value");
    logger.maybe_log_reduce(10, &dfs, NodeId(2), &[], 1, &mut output).unwrap().expect("due");

    // The writer's node dies; rack replication keeps the log readable.
    dfs.set_node_alive(NodeId(2), false);
    let node_fs = MemFs::new(); // the new node's (empty) local store
    match recover_state(Some(&node_fs), &dfs, &paths) {
        RecoveredState::ReduceStage { records_processed, output_records, .. } => {
            assert_eq!(records_processed, 1);
            assert_eq!(output_records, 1);
        }
        other => panic!("expected reduce-stage state, got {other:?}"),
    }
    // And the flushed partial output is reloadable.
    let restored = alm_mapreduce::core::PartialOutput::restore(&paths, &dfs).unwrap();
    assert_eq!(restored.records(), 1);
}

/// Determinism: identical seeds give identical simulated runs through the
/// public API.
#[test]
fn simulator_is_deterministic_through_facade() {
    let spec = SimJobSpec::new(WorkloadKind::Wordcount, 5 * alm_mapreduce::types::units::GB, 1, 77);
    let env = ExperimentEnv::paper(RecoveryMode::SfmAlg);
    let fault = FaultPlan::crash_node_at_ms(NodeId(3), 40_000);
    let a = Simulation::new(spec.clone(), env.clone(), fault.clone()).run();
    let b = Simulation::new(spec, env, fault).run();
    assert_eq!(a, b);
}
