//! Reproduce the paper's headline phenomenon at paper scale: a single node
//! crash amplifying into repeated ReduceTask failures under stock YARN,
//! and the ALM framework cracking the amplification down.
//!
//! Runs the discrete-event simulator (21 nodes, Table I configuration,
//! 10 GB Wordcount with one long-running reducer — the Fig. 3 / Fig. 10
//! scenario) and prints both progress timelines side by side.
//!
//! ```text
//! cargo run --release --example failure_amplification
//! ```

use alm_mapreduce::prelude::*;
use alm_mapreduce::sim::experiment::{node_of_reduce, run_one};
use alm_mapreduce::types::FailureKind;

fn main() {
    let spec = SimJobSpec::paper(WorkloadKind::Wordcount, 42);

    for mode in [RecoveryMode::Baseline, RecoveryMode::Sfm] {
        let env = ExperimentEnv::paper(mode);
        // Crash the node hosting the single reducer (and some of the MOFs
        // it still needs) at 40% of its progress.
        let victim = node_of_reduce(&spec, &env, 0);
        let report = run_one(&spec, &env, FaultPlan::crash_node_at_reduce_progress(NodeId(victim), 0, 0.4));

        println!("===== {mode:?} =====");
        println!(
            "job time: {:.1}s   reduce attempts: {}   failures: {}",
            report.job_secs,
            report.reduce_attempts,
            report.failures.len()
        );
        for f in &report.failures {
            println!("  {:6.1}s  {} attempt {} failed: {}", f.at_secs, f.task, f.attempt_number, f.kind);
        }
        let repeats = report
            .failures
            .iter()
            .filter(|f| f.task.is_reduce() && f.kind == FailureKind::FetchFailureLimit)
            .count();
        match mode {
            RecoveryMode::Baseline => println!(
                "  -> the recovered reducer was preempted {repeats} more time(s) hunting lost MOFs: temporal amplification"
            ),
            _ => println!("  -> zero fetch-failure preemptions: amplification cracked down"),
        }
        println!("{}", report.timeline_of(0, "reduce progress").render_text());
    }
}
