//! Transient faults: healed partitions and checksummed corruption.
//!
//! ```text
//! cargo run --release --example transient_faults [seed]
//! ```
//!
//! The paper's amplification cascade (§II-C) starts with an *ambiguous*
//! fault: a reducer that cannot fetch presumes its sources dead, burns its
//! retry budget and gets preempted. This example injects the two transient
//! fault kinds — a network partition that heals inside the liveness
//! window, and data corruption caught by arrival checksums — at paper
//! scale on the simulator, and asserts the "resume, don't restart" story:
//! no node-lost declarations, no map re-execution, no retry-budget burn.
//! The same scenarios are then validated differentially on both engines
//! through the `transient-no-node-loss` and `corruption-bounded-recovery`
//! invariants.

use alm_mapreduce::chaos::{self, ChaosFault, ChaosScenario};
use alm_mapreduce::prelude::*;
use alm_mapreduce::sim::experiment::run_one;
use alm_mapreduce::types::{CorruptTarget, LinkDirection};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, seed);

    // 1. A partition severing reducer 0 from a shuffle source for 30
    //    virtual seconds — well inside the liveness window — must cost
    //    only time, in every recovery mode including baseline YARN.
    println!("healed partition at paper scale ({:?}, seed {seed}):", spec.workload);
    for mode in [RecoveryMode::Baseline, RecoveryMode::SfmAlg] {
        let env = ExperimentEnv::paper(mode);
        let clean = run_one(&spec, &env, FaultPlan::none());
        let red_node = clean.run.trace.nodes_of(TaskId::reduce(JobId(0), 0)).next().expect("reduce 0 ran").0;
        let partner = (red_node + 1) % env.cluster.worker_nodes();
        let from_ms = (clean.map_phase_secs * 1000.0) as u64;
        let cut = FaultPlan::partition_link(NodeId(red_node), NodeId(partner), from_ms, from_ms + 30_000);
        let rep = run_one(&spec, &env, cut);
        assert!(rep.run.succeeded, "{mode:?}: job must complete through a healed partition");
        assert!(
            rep.run.trace.failures().next().is_none(),
            "{mode:?}: a healed partition must not record failures"
        );
        assert_eq!(
            rep.run.trace.launches(TaskKind::Map),
            clean.run.trace.launches(TaskKind::Map),
            "{mode:?}: no map re-execution"
        );
        println!(
            "  {mode:?}: clean {:.0}s -> partitioned {:.0}s ({:+.0}s), {} failures, {} map attempts",
            clean.run.job_secs(),
            rep.run.job_secs(),
            rep.run.job_secs() - clean.run.job_secs(),
            rep.run.trace.failures().count(),
            rep.run.trace.launches(TaskKind::Map),
        );
    }

    // 2. A corrupted MOF partition chunk: the arrival checksum catches it,
    //    the map regenerates, the reducer transparently re-fetches — the
    //    retry budget (and so FetchFailureLimit) is never touched.
    let env = ExperimentEnv::paper(RecoveryMode::Baseline);
    let clean = run_one(&spec, &env, FaultPlan::none());
    let rep = run_one(
        &spec,
        &env,
        FaultPlan::corrupt_data(NodeId(0), CorruptTarget::MofPartition { map_index: 1, partition: 0 }, 0),
    );
    assert!(rep.run.succeeded && rep.run.trace.failures().next().is_none());
    assert!(
        rep.run.counters.corruption_refetches >= 1,
        "the corrupted chunk must be detected and re-fetched"
    );
    assert_eq!(
        rep.run.trace.launches(TaskKind::Map),
        clean.run.trace.launches(TaskKind::Map) + 1,
        "exactly the corrupted map regenerates"
    );
    println!(
        "\ncorrupted MOF chunk: {} transparent re-fetch(es), {} failures, FetchFailureLimit untouched",
        rep.run.counters.corruption_refetches,
        rep.run.trace.failures().count()
    );

    // 3. A rotted ALG log record under analytics logging: recovery
    //    truncates at the bad record and falls back one snapshot — at most
    //    one logging interval of redone work, not a restart from zero.
    let env = ExperimentEnv::paper(RecoveryMode::Alg);
    let rep = run_one(
        &spec,
        &env,
        FaultPlan::corrupt_data(NodeId(0), CorruptTarget::AlgRecord { reduce_index: 0, seq: 0 }, 0)
            .and(FaultPlan::kill_task(TaskId::reduce(JobId(0), 0), 0.9)),
    );
    assert!(rep.run.succeeded);
    assert_eq!(rep.log_truncations, 1, "exactly one snapshot lost to the bad record");
    assert!(rep.alg_snapshots > 0, "recovery still resumed from analytics logs");
    println!(
        "corrupted ALG record: {} truncation(s), recovery resumed from the previous snapshot",
        rep.log_truncations
    );

    // 4. Differentially validate both transient kinds on both engines at
    //    matched scale: the invariants assert zero node-lost declarations
    //    / map re-executions for the healed partition and bounded,
    //    budget-free recovery for corruption.
    println!();
    let modes = [RecoveryMode::Baseline, RecoveryMode::SfmAlg];
    for scenario in [
        ChaosScenario::new("healing-partition").with(ChaosFault::PartitionLink {
            a: 0,
            b: 2,
            direction: LinkDirection::Both,
            from_secs: 0.0,
            heal_secs: 40.0,
            flap: None,
        }),
        ChaosScenario::new("corrupt-mof").with(ChaosFault::CorruptData {
            node: 1,
            target: CorruptTarget::MofPartition { map_index: 1, partition: 2 },
            at_secs: 1.0,
        }),
    ] {
        let report = chaos::validate_scenario(&scenario, &modes);
        print!("{}", report.render_text());
        assert!(report.ok(), "differential invariants must hold for {}", scenario.name);
    }

    println!("\ntransient faults absorbed: no node loss, no re-execution cascade, bounded recovery");
}
