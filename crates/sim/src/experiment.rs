//! Per-figure experiment runners (§II and §V of the paper).
//!
//! Each function reproduces one figure or table: it runs the simulations,
//! assembles the series/tables/timelines into an
//! [`alm_metrics::ExperimentReport`], and attaches headline observations
//! (average improvements etc.) as notes. The bench harness binaries are
//! thin wrappers over these.

use alm_metrics::{stats::improvement_pct, ExperimentReport, Series, TextTable};
use alm_types::units::GB;
use alm_types::{FaultPlan, JobId, NodeId, RecoveryMode, ReplicationLevel, TaskId};
use alm_workloads::WorkloadKind;

use crate::engine::Simulation;
use crate::spec::{ExperimentEnv, SimJobSpec};
use crate::trace::SimReport;

/// Run one simulation.
pub fn run_one(spec: &SimJobSpec, env: &ExperimentEnv, faults: FaultPlan) -> SimReport {
    Simulation::new(spec.clone(), env.clone(), faults).run()
}

/// Discover which node hosts attempt 0 of `reduce_index` (deterministic
/// given the spec), by running the failure-free job once.
pub fn node_of_reduce(spec: &SimJobSpec, env: &ExperimentEnv, reduce_index: u32) -> u32 {
    let clean = run_one(spec, env, FaultPlan::none());
    let first = clean.run.trace.nodes_of(TaskId::reduce(JobId(0), reduce_index)).next();
    first.map_or(0, |n| n.0)
}

fn env(mode: RecoveryMode) -> ExperimentEnv {
    ExperimentEnv::paper(mode)
}

fn kill_map(index: u32, at_progress: f64) -> FaultPlan {
    FaultPlan::kill_task(TaskId::map(JobId(0), index), at_progress)
}

fn kill_reduce(index: u32, at_progress: f64) -> FaultPlan {
    FaultPlan::kill_task(TaskId::reduce(JobId(0), index), at_progress)
}

fn crash_at_reduce_progress(node: u32, reduce_index: u32, at_progress: f64) -> FaultPlan {
    FaultPlan::crash_node_at_reduce_progress(NodeId(node), reduce_index, at_progress)
}

/// Fig. 1 — recovery time of N MapTask failures vs one ReduceTask failure.
pub fn fig1(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig1", "Recovery time: MapTask vs ReduceTask failures");
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, seed);
    let e = env(RecoveryMode::Baseline);
    rep.param("workload", "terasort").param("input", "100 GB").param("mode", "baseline").param("seed", seed);

    let clean = run_one(&spec, &e, FaultPlan::none()).run.job_secs();
    let mut maps = Series::new("map-failures", "failed MapTasks", "recovery time (s)");
    for n in [1u32, 50, 100, 150, 200] {
        let faults = (0..n).fold(FaultPlan::none(), |p, i| p.and(kill_map(i * 3, 0.5)));
        let r = run_one(&spec, &e, faults);
        maps.push(n as f64, (r.run.job_secs() - clean).max(0.0));
    }
    let mut reduce = Series::new("one-reduce-failure", "failed ReduceTasks", "recovery time (s)");
    let r = run_one(&spec, &e, kill_reduce(0, 0.9));
    reduce.push(1.0, (r.run.job_secs() - clean).max(0.0));

    let map200 = maps.y_at(200.0).unwrap_or(0.0);
    let red1 = reduce.y_at(1.0).unwrap_or(0.0);
    if map200 > 0.5 {
        rep.note(format!(
            "one ReduceTask failure costs {red1:.1}s vs {map200:.1}s for 200 MapTask failures ({:.1}x)",
            red1 / map200
        ));
    } else {
        rep.note(format!(
            "one ReduceTask failure costs {red1:.1}s of added job time; even 200 MapTask failures cost under a second (re-executions fit into wave slack)"
        ));
    }
    rep.series.push(maps);
    rep.series.push(reduce);
    rep
}

/// Fig. 2 — delayed job execution: slowdown vs failure-injection progress.
pub fn fig2(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig2", "Delayed execution under single task failures (baseline)");
    rep.param("mode", "baseline").param("seed", seed);
    let e = env(RecoveryMode::Baseline);
    for kind in [WorkloadKind::Terasort, WorkloadKind::Wordcount] {
        let spec = SimJobSpec::paper(kind, seed);
        let clean = run_one(&spec, &e, FaultPlan::none()).run.job_secs();
        let mut map_s = Series::new(format!("{kind}-map-failure"), "injection progress (%)", "slowdown (%)");
        let mut red_s =
            Series::new(format!("{kind}-reduce-failure"), "injection progress (%)", "slowdown (%)");
        for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let rm = run_one(&spec, &e, kill_map(0, p));
            map_s.push(p * 100.0, (rm.run.job_secs() / clean - 1.0) * 100.0);
            let rr = run_one(&spec, &e, kill_reduce(0, p));
            red_s.push(p * 100.0, (rr.run.job_secs() / clean - 1.0) * 100.0);
        }
        rep.note(format!(
            "{kind}: map failure worst-case slowdown {:.1}%, reduce failure worst-case {:.1}%",
            map_s.max_y().unwrap_or(0.0),
            red_s.max_y().unwrap_or(0.0)
        ));
        rep.series.push(map_s);
        rep.series.push(red_s);
    }
    rep
}

/// Fig. 3 — temporal failure amplification timeline (baseline Wordcount,
/// one reducer, crash of the node hosting it and its MOFs).
pub fn fig3(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig3", "Temporal amplification of a node failure (baseline)");
    let spec = SimJobSpec::paper(WorkloadKind::Wordcount, seed);
    let e = env(RecoveryMode::Baseline);
    rep.param("workload", "wordcount").param("reduces", 1).param("seed", seed);
    let victim = node_of_reduce(&spec, &e, 0);
    let r = run_one(&spec, &e, crash_at_reduce_progress(victim, 0, 0.4));
    let reduce0 = TaskId::reduce(alm_types::JobId(0), 0);
    let repeats = r.run.trace.repeats_of(reduce0);
    let mut tl = r.timeline_of(0, "wordcount reduce progress");
    tl.annotate(0.0, format!("node {victim} hosts the single reducer and its local MOFs"));
    rep.note(format!(
        "the single injected node crash became {} failures of the same ReduceTask (temporal amplification); job took {:.1}s",
        repeats + 1,
        r.run.job_secs()
    ));
    rep.note(format!(
        "longest progress stall: {:.1}s (includes the {}s liveness timeout)",
        tl.longest_stall_secs(),
        e.yarn.node_liveness_timeout_ms / 1000
    ));
    rep.timelines.push(tl);
    rep
}

/// Fig. 4 — spatial amplification: one node crash infects healthy reducers.
pub fn fig4(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig4", "Spatial amplification of a node failure (baseline)");
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, seed);
    let e = env(RecoveryMode::Baseline);
    rep.param("workload", "terasort").param("reduces", spec.num_reduces).param("seed", seed);
    // Crash early in the reduce phase so healthy reducers are still
    // shuffling and depend on the lost MOFs.
    let r = run_one(&spec, &e, crash_at_reduce_progress(1, 5, 0.05));
    rep.note(format!(
        "one node crash additionally failed {} healthy ReduceTasks (paper observed 6); total failures {}",
        r.run.trace.additional_failures(),
        r.run.trace.failures().count()
    ));
    let mut s = Series::new("failed-reduces-over-time", "time (s)", "cumulative reduce failures");
    let mut count = 0;
    for f in r.run.trace.failures().filter(|f| f.attempt.task.is_reduce()) {
        count += 1;
        s.push(f.at_secs(), count as f64);
    }
    rep.series.push(s);
    rep.timelines.push(r.timeline_of(5, "reduce 5 progress"));
    rep
}

/// Fig. 8 — ALG vs YARN under single ReduceTask failures at 10–90%.
pub fn fig8(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig8", "ALG vs YARN: single ReduceTask failure at varying progress");
    rep.param("seed", seed);
    let points: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    for kind in WorkloadKind::ALL {
        let spec = SimJobSpec::paper(kind, seed);
        let clean = run_one(&spec, &env(RecoveryMode::Baseline), FaultPlan::none()).run.job_secs();
        let mut yarn_s = Series::new(format!("{kind}-yarn"), "injection progress (%)", "execution time (s)");
        let mut alg_s = Series::new(format!("{kind}-alg"), "injection progress (%)", "execution time (s)");
        let mut gains = Vec::new();
        for &p in &points {
            let fault = kill_reduce(0, p);
            let yarn = run_one(&spec, &env(RecoveryMode::Baseline), fault.clone());
            let alg = run_one(&spec, &env(RecoveryMode::Alg), fault);
            yarn_s.push(p * 100.0, yarn.run.job_secs());
            alg_s.push(p * 100.0, alg.run.job_secs());
            gains.push(improvement_pct(yarn.run.job_secs(), alg.run.job_secs()));
        }
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        let at90 = *gains.last().expect("nine failure points sampled");
        rep.note(format!(
            "{kind}: ALG improves job time by {avg:.1}% on average over 9 failure points ({at90:.1}% at 90%); failure-free reference {clean:.1}s"
        ));
        // Variation across injection points (the predictability argument).
        let spread = |s: &Series| (s.max_y().unwrap_or(0.0) / s.min_y().unwrap_or(1.0) - 1.0) * 100.0;
        rep.note(format!(
            "{kind}: exec-time spread across failure points: YARN {:.1}%, ALG {:.1}%",
            spread(&yarn_s),
            spread(&alg_s)
        ));
        rep.series.push(yarn_s);
        rep.series.push(alg_s);
    }
    rep
}

/// Fig. 9 — SFM vs YARN under node failures at varying reduce progress.
pub fn fig9(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig9", "SFM vs YARN: node failure at varying reduce progress");
    rep.param("seed", seed);
    let points = [0.1, 0.3, 0.5, 0.7, 0.9];
    for kind in WorkloadKind::ALL {
        let spec = SimJobSpec::paper(kind, seed);
        let victim = node_of_reduce(&spec, &env(RecoveryMode::Baseline), 0);
        let mut yarn_s =
            Series::new(format!("{kind}-yarn"), "reduce progress at crash (%)", "execution time (s)");
        let mut sfm_s =
            Series::new(format!("{kind}-sfm"), "reduce progress at crash (%)", "execution time (s)");
        let mut gains = Vec::new();
        for &p in &points {
            let fault = crash_at_reduce_progress(victim, 0, p);
            let yarn = run_one(&spec, &env(RecoveryMode::Baseline), fault.clone());
            let sfm = run_one(&spec, &env(RecoveryMode::Sfm), fault);
            yarn_s.push(p * 100.0, yarn.run.job_secs());
            sfm_s.push(p * 100.0, sfm.run.job_secs());
            gains.push(improvement_pct(yarn.run.job_secs(), sfm.run.job_secs()));
        }
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        rep.note(format!("{kind}: SFM shortens migration+recovery by {avg:.1}% on average"));
        rep.series.push(yarn_s);
        rep.series.push(sfm_s);
    }
    rep
}

/// Fig. 10 — SFM eliminates temporal amplification (timeline +
/// proactive-regeneration ablation).
pub fn fig10(seed: u64, proactive: bool) -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "fig10",
        if proactive {
            "SFM recovery timeline (proactive map regeneration ON)"
        } else {
            "SFM recovery timeline (ablation: proactive regeneration OFF)"
        },
    );
    let spec = SimJobSpec::paper(WorkloadKind::Wordcount, seed);
    let mut e = env(RecoveryMode::Sfm);
    e.alm.proactive_map_regen = proactive;
    rep.param("workload", "wordcount").param("proactive_map_regen", proactive).param("seed", seed);
    let victim = node_of_reduce(&spec, &e, 0);
    let r = run_one(&spec, &e, crash_at_reduce_progress(victim, 0, 0.4));
    let reduce0 = TaskId::reduce(alm_types::JobId(0), 0);
    rep.note(format!(
        "repeated failures of the reducer: {} (0 means temporal amplification eliminated); job {:.1}s",
        r.run.trace.repeats_of(reduce0),
        r.run.job_secs()
    ));
    rep.timelines.push(r.timeline_of(0, "wordcount reduce progress under SFM"));
    rep
}

/// Table II — spatial amplification: YARN vs SFM at 10/20/30% first failure.
pub fn table2(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("table2", "Speculative recovery curbs infectious node failures");
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, seed);
    rep.param("workload", "terasort").param("seed", seed);
    let mut t = TextTable::new(
        "Table II analogue",
        &["Type", "Point of First Failure", "Additional Failures", "Execution Time"],
    );
    for p in [0.05, 0.10, 0.15] {
        for (name, mode) in [("YARN", RecoveryMode::Baseline), ("SFM", RecoveryMode::Sfm)] {
            let r = run_one(&spec, &env(mode), crash_at_reduce_progress(1, 5, p));
            t.row(&[
                name.to_string(),
                format!("{:.0}%", p * 100.0),
                r.run.trace.additional_failures().to_string(),
                format!("{:.0} seconds", r.run.job_secs()),
            ]);
        }
    }
    rep.tables.push(t);
    rep.note(
        "SFM rows must show 0 additional failures; YARN rows show infected healthy reducers".to_string(),
    );
    rep
}

/// Fig. 11 — ALG overhead in failure-free runs, Terasort 10–320 GB.
pub fn fig11(seed: u64, sizes_gb: &[u64]) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig11", "ALG overhead under failure-free execution");
    rep.param("workload", "terasort").param("seed", seed);
    let mut yarn_s = Series::new("yarn", "input size (GB)", "execution time (s)");
    let mut alg_s = Series::new("alg", "input size (GB)", "execution time (s)");
    let mut worst: f64 = 0.0;
    for &gb in sizes_gb {
        let spec = SimJobSpec::new(WorkloadKind::Terasort, gb * GB, 20, seed);
        let y = run_one(&spec, &env(RecoveryMode::Baseline), FaultPlan::none());
        let a = run_one(&spec, &env(RecoveryMode::Alg), FaultPlan::none());
        yarn_s.push(gb as f64, y.run.job_secs());
        alg_s.push(gb as f64, a.run.job_secs());
        worst = worst.max((a.run.job_secs() / y.run.job_secs() - 1.0) * 100.0);
    }
    rep.note(format!("worst-case ALG overhead across sizes: {worst:.1}% (paper: negligible)"));
    rep.series.push(yarn_s);
    rep.series.push(alg_s);
    rep
}

/// Fig. 12 — ALG performance at different logging frequencies.
pub fn fig12(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig12", "ALG at different logging frequencies");
    let spec = SimJobSpec::paper(WorkloadKind::Terasort, seed);
    rep.param("workload", "terasort").param("seed", seed);
    let mut s = Series::new("alg", "logging interval (s)", "execution time (s)");
    let mut snaps = Series::new("snapshots", "logging interval (s)", "log records written");
    for interval_s in [1u64, 2, 5, 10, 30, 60] {
        let mut e = env(RecoveryMode::Alg);
        e.alm.logging_interval_ms = interval_s * 1000;
        let r = run_one(&spec, &e, FaultPlan::none());
        s.push(interval_s as f64, r.run.job_secs());
        snaps.push(interval_s as f64, r.alg_snapshots as f64);
    }
    let spread = (s.max_y().unwrap_or(0.0) - s.min_y().unwrap_or(0.0)) / s.min_y().unwrap_or(1.0) * 100.0;
    rep.note(format!("execution-time spread across frequencies: {spread:.1}% (paper: insensitive)"));
    rep.series.push(s);
    rep.series.push(snaps);
    rep
}

/// Fig. 13 — impact of log/output replication level on the reduce stage.
pub fn fig13(seed: u64, sizes_gb: &[u64]) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig13", "Replication level impact on the reduce stage (ALG)");
    rep.param("workload", "terasort").param("seed", seed);
    for level in [ReplicationLevel::Node, ReplicationLevel::Rack, ReplicationLevel::Cluster] {
        let mut s =
            Series::new(format!("{level:?}").to_lowercase(), "input size (GB)", "reduce phase time (s)");
        for &gb in sizes_gb {
            let spec = SimJobSpec::new(WorkloadKind::Terasort, gb * GB, 20, seed);
            let mut e = env(RecoveryMode::Alg);
            e.alm.log_replication = level;
            let r = run_one(&spec, &e, FaultPlan::none());
            s.push(gb as f64, (r.run.job_secs() - r.map_phase_secs).max(0.0));
        }
        rep.series.push(s);
    }
    let y = |name: &str, gb: f64| rep.series_named(name).and_then(|s| s.y_at(gb)).unwrap_or(0.0);
    if let Some(&biggest) = sizes_gb.last() {
        let g = biggest as f64;
        rep.note(format!(
            "at {biggest} GB: rack-level delays the reduce stage by {:.1}% over node-level, cluster-level by {:.1}% (paper: 18.4% and 55.7%)",
            improvement_pct(y("node", g), y("rack", g)).abs(),
            improvement_pct(y("node", g), y("cluster", g)).abs()
        ));
    }
    rep
}

/// Fig. 14 — SFM recovery of multiple concurrent failures, 1–32 GB per
/// reducer.
pub fn fig14(seed: u64, fcm_cap: Option<usize>) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig14", "SFM vs YARN under concurrent ReduceTask failures");
    rep.param("workload", "terasort").param("seed", seed);
    if let Some(cap) = fcm_cap {
        rep.param("fcm_cap", cap);
    }
    let reduces = 20u32;
    for &concurrent in &[1usize, 5, 10] {
        let mut yarn_s =
            Series::new(format!("yarn-{concurrent}f"), "data per reducer (GB)", "recovery time (s)");
        let mut sfm_s =
            Series::new(format!("sfm-{concurrent}f"), "data per reducer (GB)", "recovery time (s)");
        let mut gains = Vec::new();
        for &per_red_gb in &[1u64, 4, 16, 32] {
            let spec =
                SimJobSpec::new(WorkloadKind::Terasort, per_red_gb * reduces as u64 * GB, reduces, seed);
            // Crash `concurrent` nodes once reduce 0 is mid-reduce.
            let faults = (0..concurrent as u32)
                .fold(FaultPlan::none(), |p, i| p.and(crash_at_reduce_progress((1 + i) % 20, 0, 0.75)));
            let mk_env = |mode| {
                let mut e = env(mode);
                if let Some(cap) = fcm_cap {
                    e.alm.fcm_cap = cap;
                }
                e
            };
            let clean = run_one(&spec, &mk_env(RecoveryMode::Baseline), FaultPlan::none()).run.job_secs();
            let yarn = run_one(&spec, &mk_env(RecoveryMode::Baseline), faults.clone());
            let sfm = run_one(&spec, &mk_env(RecoveryMode::Sfm), faults);
            let (ry, rs) = ((yarn.run.job_secs() - clean).max(0.0), (sfm.run.job_secs() - clean).max(0.0));
            yarn_s.push(per_red_gb as f64, ry);
            sfm_s.push(per_red_gb as f64, rs);
            gains.push(improvement_pct(ry, rs));
        }
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        rep.note(format!(
            "{concurrent} concurrent failures: SFM cuts recovery time by {avg:.1}% on average (gain at 1 GB {:.1}%, at 32 GB {:.1}%)",
            gains.first().copied().unwrap_or(0.0),
            gains.last().copied().unwrap_or(0.0)
        ));
        rep.series.push(yarn_s);
        rep.series.push(sfm_s);
    }
    rep
}

/// Fig. 15 — SFM alone vs SFM+ALG: the benefit of resuming logged
/// analytics during migration.
pub fn fig15(seed: u64) -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig15", "Benefits of enabling both ALG and SFM");
    rep.param("seed", seed);
    let mut t = TextTable::new(
        "recovery with/without logged analytics",
        &["Workload", "SFM (s)", "SFM+ALG (s)", "Improvement"],
    );
    for kind in WorkloadKind::ALL {
        let spec = SimJobSpec::paper(kind, seed);
        let victim = node_of_reduce(&spec, &env(RecoveryMode::Sfm), 0);
        // Crash mid-reduce so reduce-stage logs exist on the DFS.
        let fault = crash_at_reduce_progress(victim, 0, 0.8);
        let sfm = run_one(&spec, &env(RecoveryMode::Sfm), fault.clone());
        let both = run_one(&spec, &env(RecoveryMode::SfmAlg), fault);
        let gain = improvement_pct(sfm.run.job_secs(), both.run.job_secs());
        t.row(&[
            kind.name().to_string(),
            format!("{:.1}", sfm.run.job_secs()),
            format!("{:.1}", both.run.job_secs()),
            format!("{gain:.1}%"),
        ]);
        rep.note(format!("{kind}: SFM+ALG accelerates recovery by {gain:.1}% over SFM-only"));
    }
    rep.tables.push(t);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiment-level integration tests at paper scale: these assert the
    // *shape* of every headline result. They run in release CI in
    // milliseconds each; debug builds take a few seconds total.

    #[test]
    fn fig1_reduce_failure_dwarfs_map_failures() {
        let rep = fig1(3);
        let maps = rep.series_named("map-failures").unwrap();
        let red = rep.series_named("one-reduce-failure").unwrap();
        let worst_maps = maps.max_y().unwrap();
        let one_red = red.y_at(1.0).unwrap();
        assert!(
            one_red > worst_maps * 2.0,
            "one reduce failure ({one_red:.1}s) must cost more than 200 map failures ({worst_maps:.1}s)"
        );
    }

    #[test]
    fn fig2_reduce_failures_delay_much_more_than_map_failures() {
        let rep = fig2(3);
        let tm = rep.series_named("terasort-map-failure").unwrap().max_y().unwrap();
        let tr = rep.series_named("terasort-reduce-failure").unwrap();
        assert!(tr.max_y().unwrap() > tm.max(1.0) * 3.0);
        // Later reduce failures hurt more than earlier ones.
        assert!(tr.y_at(90.0).unwrap() > tr.y_at(10.0).unwrap());
    }

    #[test]
    fn fig3_temporal_amplification_exists_in_baseline() {
        let rep = fig3(3);
        assert!(
            rep.notes[0].contains("became 2 failures") || rep.notes[0].contains("became 3 failures"),
            "baseline must amplify the single crash into repeated reducer failures: {}",
            rep.notes[0]
        );
        let tl = &rep.timelines[0];
        assert!(tl.longest_stall_secs() >= 70.0, "the stall must cover the 70s detection timeout");
    }

    #[test]
    fn fig10_sfm_eliminates_temporal_amplification() {
        let rep = fig10(3, true);
        assert!(rep.notes[0].starts_with("repeated failures of the reducer: 0"), "{}", rep.notes[0]);
        // Ablation: disabling proactive regeneration brings it back.
        let ablated = fig10(3, false);
        assert!(
            !ablated.notes[0].starts_with("repeated failures of the reducer: 0"),
            "without proactive map regeneration the recovered reducer must fail again: {}",
            ablated.notes[0]
        );
    }

    #[test]
    fn table2_sfm_rows_have_zero_additional_failures() {
        let rep = table2(3);
        let t = &rep.tables[0];
        for row in &t.rows {
            if row[0] == "SFM" {
                assert_eq!(row[2], "0", "SFM must curb infection: {row:?}");
            }
        }
        // At least one YARN row shows infection.
        assert!(t.rows.iter().any(|r| r[0] == "YARN" && r[2] != "0"), "{:?}", t.rows);
    }

    #[test]
    fn fig11_alg_overhead_small() {
        let rep = fig11(3, &[10, 40]);
        let worst: f64 = rep.notes[0]
            .split("overhead across sizes: ")
            .nth(1)
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(worst < 10.0, "failure-free ALG overhead must stay small: {worst}%");
    }

    #[test]
    fn fig13_replication_order() {
        let rep = fig13(3, &[40, 160]);
        let y = |n: &str| rep.series_named(n).unwrap().y_at(160.0).unwrap();
        assert!(y("node") <= y("rack"), "rack adds overhead over node");
        assert!(y("rack") < y("cluster"), "cluster-level must be the most expensive");
    }
}
