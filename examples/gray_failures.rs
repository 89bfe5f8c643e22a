//! Gray failures: asymmetric partitions, flapping links, degraded links.
//!
//! ```text
//! cargo run --release --example gray_failures [seed]
//! ```
//!
//! Real clusters rarely fail clean. This example walks the gray-failure
//! vocabulary at paper scale on the simulator — a link severed in one
//! direction only (heartbeats healthy, fetches dead), a link flapping
//! through seeded sever/heal cycles, and a link that is merely *bad*
//! (slow, lossy) — and asserts each is absorbed: no node-loss
//! declarations, no retry-budget burn, no re-execution cascade. The
//! scenarios are then validated differentially on both engines through
//! the `asymmetric-partition-no-node-loss` and `flap-backoff-budget`
//! invariants, and a randomized gray sweep is reduced to the ranked
//! root-cause triage report CI publishes as an artifact.

use alm_mapreduce::chaos::{self, ChaosFlap, FaultWeights};
use alm_mapreduce::prelude::*;
use alm_mapreduce::sim::experiment::run_one;
use alm_mapreduce::types::{FlapSchedule, LinkDirection};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, seed);
    let env = ExperimentEnv::paper(RecoveryMode::Baseline);
    let clean = run_one(&spec, &env, FaultPlan::none());
    let red_node = clean.run.trace.nodes_of(TaskId::reduce(JobId(0), 0)).next().expect("reduce 0 ran").0;
    let partner = (red_node + 1) % env.cluster.worker_nodes();

    // 1. Asymmetric partition: sever only the fetch direction
    //    (reducer-node -> source). The reverse path stays healthy, so
    //    heartbeats flow and nobody is declared dead. (Durations are not
    //    ordered between the cut shapes: severing a link also removes its
    //    flows from the shared-bandwidth pools, which can shift the whole
    //    schedule either way. The invariant is the failure accounting.)
    let from_ms = (clean.map_phase_secs * 1000.0) as u64;
    let dir_run = |direction: LinkDirection| {
        let cut = FaultPlan::partition_link_directed(
            NodeId(red_node),
            NodeId(partner),
            direction,
            from_ms,
            from_ms + 30_000,
        );
        run_one(&spec, &env, cut)
    };
    let sym = dir_run(LinkDirection::Both);
    let asym = dir_run(LinkDirection::AToB);
    for (label, rep) in [("symmetric", &sym), ("asymmetric", &asym)] {
        assert!(
            rep.run.succeeded && rep.run.trace.failures().next().is_none(),
            "{label} partition must be absorbed"
        );
        assert_eq!(
            rep.run.trace.launches(TaskKind::Map),
            clean.run.trace.launches(TaskKind::Map),
            "{label}: no map re-execution"
        );
    }
    println!(
        "asymmetric partition ({red_node}->{partner}, 30s window): clean {:.0}s, sym {:.0}s, asym {:.0}s — zero failures in all three",
        clean.run.job_secs(), sym.run.job_secs(), asym.run.job_secs()
    );

    // 2. Flapping link: a seeded schedule of sever/heal cycles, expanded
    //    deterministically by the shared FaultPlan lowering. Every heal
    //    re-pumps parked fetches; exponential backoff (capped at half the
    //    liveness window) keeps the retry budget intact across cycles.
    let plan = FaultPlan::flapping_link(
        NodeId(red_node),
        NodeId(partner),
        LinkDirection::Both,
        1_000, // start ms (scenario clock)
        FlapSchedule { seed, cycles: 3, period_ms: 12_000, down_ms: 6_000 },
    );
    let windows = plan.partition_windows();
    assert_eq!(windows.len(), 3, "one severed window per cycle");
    let flap = run_one(&spec, &env, plan);
    assert!(
        flap.run.succeeded && flap.run.trace.failures().next().is_none(),
        "flapping link must be absorbed"
    );
    println!(
        "flapping link (3 seeded cycles): windows {:?} -> {:.0}s, zero failures, budget intact",
        windows.iter().map(|w| (w.from_ms / 1000, w.heal_ms / 1000)).collect::<Vec<_>>(),
        flap.run.job_secs()
    );

    // 3. Degraded link: the canonical gray failure — the link is *up* but
    //    slow (4x) and lossy (30%). Dropped transfers are re-fetched
    //    without ever charging the FetchFailureLimit budget.
    let heal_ms = (clean.run.job_secs() * 3000.0) as u64;
    let degrade =
        (0..env.cluster.worker_nodes()).filter(|n| *n != red_node).fold(FaultPlan::none(), |p, n| {
            p.and(FaultPlan::degraded_link(
                NodeId(red_node),
                NodeId(n),
                LinkDirection::AToB,
                0,
                heal_ms,
                4.0,
                0.3,
            ))
        });
    let gray = run_one(&spec, &env, degrade);
    assert!(
        gray.run.succeeded && gray.run.trace.failures().next().is_none(),
        "degraded links must be absorbed"
    );
    assert!(gray.run.counters.degraded_drops >= 1, "a 30% lossy link must drop at least one transfer");
    println!(
        "degraded links from node {red_node} (4x slow, 30% loss): {:.0}s vs clean {:.0}s, {} transparent drop(s), zero failures\n",
        gray.run.job_secs(), clean.run.job_secs(), gray.run.counters.degraded_drops
    );

    // 4. Differential validation on BOTH engines: the gray invariants.
    let modes = [RecoveryMode::Baseline, RecoveryMode::SfmAlg];
    let asym_scenario = ChaosScenario::new("gray-asymmetric").with(ChaosFault::PartitionLink {
        a: 2,
        b: 0,
        direction: LinkDirection::AToB,
        from_secs: 0.0,
        heal_secs: 40.0,
        flap: None,
    });
    let flap_scenario = ChaosScenario::new("gray-flap").with(ChaosFault::PartitionLink {
        a: 0,
        b: 2,
        direction: LinkDirection::Both,
        from_secs: 1.0,
        heal_secs: 0.0,
        flap: Some(ChaosFlap { seed, cycles: 3, period_secs: 10.0, down_secs: 4.0 }),
    });
    for (scenario, invariant) in
        [(&asym_scenario, "asymmetric-partition-no-node-loss"), (&flap_scenario, "flap-backoff-budget")]
    {
        let report = chaos::validate_scenario(scenario, &modes);
        print!("{}", report.render_text());
        assert!(report.ok(), "differential invariants must hold for {}", scenario.name);
        assert!(
            report.invariants.iter().any(|i| i.name == invariant && i.passed),
            "{} must be checked for {}",
            invariant,
            scenario.name
        );
    }

    // 5. Randomized gray sweep -> ranked root-cause triage. The gray
    //    space adds direction/flap draws and degraded-link weight on top
    //    of the paper-shaped distribution.
    let profile = chaos::LoweringProfile::simulator(&env.cluster);
    let num_maps = spec.input_bytes.div_ceil(env.yarn.dfs_block_size).max(1) as u32;
    let space = FaultSpace {
        weights: FaultWeights { degraded_link: 3, ..FaultWeights::default() },
        ..FaultSpace::gray_like(profile.workers, profile.racks, num_maps, spec.num_reduces)
    };
    let campaign = SimCampaign::paper(
        spec.clone(),
        vec![RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg],
    );
    let scenarios = space.sample(20, seed);
    let mut report = CampaignReport::new("gray-sweep", seed);
    report.extend(campaign.run(&scenarios));
    let triage = report.triage();
    assert!(triage.groups.iter().all(|g| !g.remediation.is_empty()));
    println!("\n{}", triage.render_markdown());

    println!(
        "gray failures absorbed: no node loss, no budget burn, triage ranked by severity x blast radius"
    );
}
