//! Quickstart: run a real Wordcount job on the in-process mini-YARN,
//! inject a ReduceTask failure mid-flight, and watch the ALM framework
//! recover it — then read the counted words back off the simulated HDFS.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use alm_mapreduce::prelude::*;
use alm_mapreduce::shuffle::codec;

fn main() {
    // A 4-node cluster with test-scaled timeouts (milliseconds instead of
    // the paper's 70-second detection windows).
    let cluster = Arc::new(MiniCluster::for_tests(4));

    // Wordcount over ~8000 synthetic zipf words, 2 maps, 2 reducers,
    // full ALM recovery (analytics logging + speculative fast migration).
    let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
    alm.logging_interval_ms = 1; // log eagerly so the demo exercises resume
    let job = JobDef::new(JobId(1), Arc::new(Wordcount::new(4000, 20)), 2, 2, 42, alm);

    // Fault plan: the first attempt of reducer 0 dies with an injected OOM
    // at 50% of its progress (the paper's §V-A methodology).
    let faults = FaultPlan::kill_task(TaskId::reduce(JobId(1), 0), 0.5);

    println!("running wordcount with an injected ReduceTask failure...");
    let report = run_job(cluster.clone(), job.clone(), faults);

    let run = &report.run;
    println!("succeeded        : {}", run.succeeded);
    println!("job time         : {} ms (test-scaled)", run.job_ns / 1_000_000);
    println!("map attempts     : {}", run.trace.launches(TaskKind::Map));
    println!("reduce attempts  : {} (recovery attempts included)", run.trace.launches(TaskKind::Reduce));
    for f in run.trace.failures() {
        println!("observed failure : {} attempt {} — {}", f.attempt.task, f.attempt.number, f.kind);
    }

    // Read the committed output back from the DFS.
    let mut total_words = 0u64;
    let mut distinct = 0u64;
    for r in 0..job.num_reduces {
        let data = cluster.dfs.read(&job.output_path(r)).expect("output committed");
        let mut off = 0;
        while let Some((_k, v, next)) = codec::decode_at(&data, off).expect("valid output") {
            let mut arr = [0u8; 8];
            arr.copy_from_slice(&v);
            total_words += u64::from_be_bytes(arr);
            distinct += 1;
            off = next;
        }
    }
    println!("distinct words   : {distinct}");
    println!("total words      : {total_words} (expected 8000)");
    assert_eq!(total_words, 8000, "recovery must not lose or duplicate records");
}
