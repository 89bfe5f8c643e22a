//! Terasort under a node crash: baseline YARN re-execution vs the ALM
//! framework, on the real threaded engine.
//!
//! A node hosting committed map output files (MOFs) is crashed while the
//! reduce phase runs. Baseline recovery rediscoveres the loss through
//! reducers' fetch failures (slow, amplifying); ALM regenerates the MOFs
//! proactively and migrates the affected reducer with fast collective
//! merging. Both runs must produce byte-identical sorted output.
//!
//! ```text
//! cargo run --example terasort_recovery
//! ```

use std::sync::Arc;

use alm_mapreduce::prelude::*;
use alm_mapreduce::runtime::am::run_job;
use alm_mapreduce::workloads::reference::{canonicalize, reference_output};

fn run_mode(mode: RecoveryMode) -> (JobReport, Vec<Record>) {
    let cluster = Arc::new(MiniCluster::for_tests(5));
    let mut alm = AlmConfig::with_mode(mode);
    alm.logging_interval_ms = 1;
    let job = JobDef::new(JobId(7), Arc::new(Terasort::new(30_000)), 6, 3, 42, alm);
    // Crash node 1 once reducer 0 reaches 10% of its work: node 1's MOFs
    // vanish mid-shuffle.
    let faults = FaultPlan::crash_node_at_reduce_progress(NodeId(1), 0, 0.05);
    let report = run_job(cluster.clone(), job.clone(), faults);
    assert!(report.run.succeeded, "{mode:?} run failed: {report:?}");

    // Collect the committed output for comparison.
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
    (report, all)
}

fn main() {
    println!("crashing a MOF-hosting node mid-reduce, under two recovery regimes...\n");
    let (yarn, yarn_out) = run_mode(RecoveryMode::Baseline);
    let (alm, alm_out) = run_mode(RecoveryMode::SfmAlg);

    let describe = |name: &str, r: &JobReport| {
        let trace = &r.run.trace;
        println!(
            "{name:8}  time {:5} ms  failures {:2}  reduce attempts {}  fcm attempts {}",
            r.run.job_ns / 1_000_000,
            trace.failures().count(),
            trace.launches(TaskKind::Reduce),
            trace.fcm_launches()
        );
        for f in trace.failures() {
            println!(
                "          failure at {:4} ms: {} attempt {} — {}",
                f.at_ns / 1_000_000,
                f.attempt.task,
                f.attempt.number,
                f.kind
            );
        }
    };
    describe("baseline", &yarn);
    describe("alm", &alm);

    // Safety: identical output regardless of the recovery path taken.
    assert_eq!(yarn_out, alm_out, "recovery regime must not change the result");
    let expected = canonicalize(&reference_output(&Terasort::new(30_000), 6, 3, 42));
    assert_eq!(yarn_out, expected, "output must match the reference oracle");
    println!(
        "\nboth regimes produced byte-identical, oracle-verified sorted output ({} records)",
        alm_out.len()
    );
}
