//! Pinned simulator reports. Each run below is fixed — spec, recovery mode
//! and fault plan — and the test asserts what it produced when recorded:
//! the event count, the job time to the bit, the attempt and failure counts,
//! a CRC-32 each of the failure list, the progress samples and the scalar
//! counters, and a CRC-32 of the whole report as JSON. A change to the engine's
//! bookkeeping that shifts one tie-break (which flow completes first, which
//! attempt is pumped first, which id a flow gets) fails here by name, not
//! only as a golden-campaign diff. The runs cover fault kinds the golden
//! gate's 20 sampled scenarios rarely draw.
//!
//! A deliberate behaviour change re-records the table from the failure
//! message and says why in its commit.

use alm_shuffle::frame::crc32;
use alm_sim::{ExperimentEnv, SimJobSpec, SimReport, Simulation};
use alm_types::units::GB;
use alm_types::{
    CorruptTarget, FaultPlan, JobId, LinkDirection, NodeId, RecoveryMode, RunReport, TaskId, TaskKind,
};
use alm_workloads::WorkloadKind;

/// `(events, job_secs bits, map attempts, reduce attempts, failures,
/// CRC-32 of the failure list, of the progress samples, of the scalar
/// counters, CRC-32 of the report's JSON)`.
type Pin = (u64, u64, u32, u32, usize, u32, u32, u32, u32);

/// Recorded at e395026; the map and reduce kills at bda5a83; the failure
/// digests at 662c715; the progress and counter digests at f4483d0. The
/// report CRCs were re-recorded twice, every other column unchanged, each
/// time the JSON's shape changed: when the report's failure list and
/// per-reduce node list gave way to the attempt trace, and when the fields
/// both engines share moved into `run: RunReport` (job time and progress
/// in integer nanoseconds, attempt counts as trace queries).
const PINNED: [(&str, Pin); 11] = [
    ("clean terasort", (803, 4626354383178525038, 80, 8, 0, 0, 3745454851, 1293127523, 2327968616)),
    (
        "node crash, baseline",
        (19134, 4642159539171410529, 840, 23, 3, 132443855, 2366423461, 2713777128, 1859823273),
    ),
    (
        "node crash, alg",
        (15881, 4641583274456119364, 840, 23, 3, 2432099717, 2527840191, 435566026, 3300464930),
    ),
    (
        "node crash, sfm",
        (12763, 4640537708624276378, 840, 21, 1, 1031748158, 720961713, 2322566962, 3567840146),
    ),
    (
        "node crash, sfm+alg",
        (12722, 4639834332585936666, 840, 21, 1, 1031748158, 4270193357, 4151671860, 3336739621),
    ),
    ("healed partition", (1184, 4634330558135809356, 80, 8, 0, 0, 2888973441, 1293127523, 1938072084)),
    ("degraded lossy links", (1057, 4628416290193917636, 80, 8, 0, 0, 3191007065, 2108807716, 2732928446)),
    ("mof corruption", (810, 4626354383178243563, 81, 8, 0, 0, 2986172297, 2078351248, 1312287914)),
    ("alg record rot", (960, 4627685906037861442, 80, 9, 1, 618444459, 1561625541, 3156467792, 3924017970)),
    (
        "resident mofs, node crash",
        (750, 4636202310752247382, 84, 9, 1, 936549449, 446214601, 535318202, 3932051378),
    ),
    (
        "map and reduce kills, alg",
        (12676, 4639127392220713377, 801, 21, 2, 3117696129, 4171653870, 2448990387, 3824585315),
    ),
];

fn sim(gb: u64, reduces: u32, mode: RecoveryMode, faults: FaultPlan) -> Simulation {
    let spec = SimJobSpec::new(WorkloadKind::Terasort, gb * GB, reduces, 7);
    Simulation::new(spec, ExperimentEnv::paper(mode), faults)
}

/// The trace's failure view, one `(at_secs bits, task, attempt number,
/// kind)` line each, in trace order.
fn failure_digest(run: &RunReport) -> u32 {
    let lines: String = run
        .trace
        .failures()
        .map(|f| format!("{:?}\n", (f.at_secs().to_bits(), f.attempt.task, f.attempt.number, f.kind)))
        .collect();
    crc32(lines.as_bytes())
}

/// Every progress sample, one `(reduce, secs bits, fraction bits)` line each.
fn progress_digest(run: &RunReport) -> u32 {
    let lines: String = run
        .progress
        .iter()
        .flat_map(|(r, samples)| {
            samples.iter().map(move |&(t, p)| format!("{:?}\n", (r, (t as f64 / 1e9).to_bits(), p.to_bits())))
        })
        .collect();
    crc32(lines.as_bytes())
}

/// Every scalar counter the other columns leave out.
fn counter_digest(r: &SimReport) -> u32 {
    let (run, c) = (&r.run, &r.run.counters);
    let fcm = run.trace.fcm_launches();
    let line = format!(
        "{:?} {:?}",
        (run.succeeded, r.map_phase_secs.to_bits(), fcm, r.alg_snapshots, r.log_truncations),
        (
            c.corruption_refetches,
            c.degraded_drops,
            r.uplink_bytes,
            c.dfs_read_failovers,
            c.dfs_repair_bytes,
            c.dfs_corrupt_replicas,
            c.resident_fetch_hits,
            r.resident_invalidations,
        ),
    );
    crc32(line.as_bytes())
}

fn pin(report: &SimReport) -> Pin {
    let json = serde_json::to_string(report).expect("a report serialises");
    let run = &report.run;
    (
        report.events,
        report.job_secs.to_bits(),
        run.trace.launches(TaskKind::Map),
        run.trace.launches(TaskKind::Reduce),
        run.trace.failures().count(),
        failure_digest(run),
        progress_digest(run),
        counter_digest(report),
        crc32(json.as_bytes()),
    )
}

fn runs() -> Vec<(&'static str, Simulation)> {
    use RecoveryMode::{Alg, Baseline, Sfm, SfmAlg};
    let crash = || FaultPlan::crash_node_at_reduce_progress(NodeId(0), 0, 0.2);
    let healed = (1..4).fold(FaultPlan::none(), |plan, n| {
        plan.and(FaultPlan::partition_link(NodeId(0), NodeId(n), 0, 60_000))
    });
    let gray = (1..20).fold(FaultPlan::none(), |plan, n| {
        plan.and(FaultPlan::degraded_link(
            NodeId(0),
            NodeId(n),
            LinkDirection::AToB,
            0,
            1_000_000_000_000,
            4.0,
            0.5,
        ))
    });
    let mof_rot =
        FaultPlan::corrupt_data(NodeId(0), CorruptTarget::MofPartition { map_index: 1, partition: 2 }, 0);
    let alg_rot = FaultPlan::corrupt_data(NodeId(0), CorruptTarget::AlgRecord { reduce_index: 0, seq: 0 }, 0)
        .and(FaultPlan::kill_task(TaskId::reduce(JobId(0), 0), 0.9));
    let resident_crash = FaultPlan::crash_node_at_reduce_progress(NodeId(1), 0, 0.3);
    // Map 500 is killed while the map slots are full, so its relaunch
    // queues behind maps that cannot be placed yet.
    let kills = FaultPlan::kill_task(TaskId::map(JobId(0), 500), 0.5)
        .and(FaultPlan::kill_task(TaskId::reduce(JobId(0), 7), 0.5));
    vec![
        ("clean terasort", sim(10, 8, Baseline, FaultPlan::none())),
        ("node crash, baseline", sim(100, 20, Baseline, crash())),
        ("node crash, alg", sim(100, 20, Alg, crash())),
        ("node crash, sfm", sim(100, 20, Sfm, crash())),
        ("node crash, sfm+alg", sim(100, 20, SfmAlg, crash())),
        ("healed partition", sim(10, 8, Baseline, healed)),
        ("degraded lossy links", sim(10, 8, Baseline, gray)),
        ("mof corruption", sim(10, 8, Baseline, mof_rot)),
        ("alg record rot", sim(10, 8, Alg, alg_rot)),
        ("resident mofs, node crash", sim(10, 8, SfmAlg, resident_crash).with_resident_mofs()),
        ("map and reduce kills, alg", sim(100, 20, Alg, kills)),
    ]
}

#[test]
fn reports_match_their_pinned_values() {
    let actual: Vec<(&str, Pin)> = runs().into_iter().map(|(name, sim)| (name, pin(&sim.run()))).collect();
    let table: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    assert!(actual == PINNED, "a pinned simulator report moved; the runs now give:\n{table}");
}

/// The attempt trace of every pinned run (time order, a launch first and
/// at most one end per attempt), and the job time the report keeps for
/// `benchmark/` bit-equal to the run's.
#[test]
fn traces_keep_their_invariants() {
    for (name, sim) in runs() {
        let report = sim.run();
        assert_eq!(report.run.trace.check(), Ok(()), "{name}");
        assert_eq!(report.job_secs.to_bits(), (report.run.job_ns as f64 / 1e9).to_bits(), "{name}");
    }
}
