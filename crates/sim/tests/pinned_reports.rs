//! Pinned simulator reports. Each run below is fixed — spec, recovery mode
//! and fault plan — and the test asserts what it produced when recorded:
//! the event count, the job time to the bit, the attempt and failure counts
//! and a CRC-32 of the whole report as JSON. A change to the engine's
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
use alm_types::{CorruptTarget, FaultPlan, JobId, LinkDirection, NodeId, RecoveryMode, TaskId};
use alm_workloads::WorkloadKind;

/// `(events, job_secs bits, map attempts, reduce attempts, failures,
/// CRC-32 of the report's JSON)`.
type Pin = (u64, u64, u32, u32, usize, u32);

/// Recorded at e395026; the map and reduce kills at bda5a83.
const PINNED: [(&str, Pin); 11] = [
    ("clean terasort", (803, 4626354383178525038, 80, 8, 0, 2896675147)),
    ("node crash, baseline", (19134, 4642159539171410529, 840, 23, 3, 3510556223)),
    ("node crash, alg", (15881, 4641583274456119364, 840, 23, 3, 959880646)),
    ("node crash, sfm", (12763, 4640537708624276378, 840, 21, 1, 3179678640)),
    ("node crash, sfm+alg", (12722, 4639834332585936666, 840, 21, 1, 4072836422)),
    ("healed partition", (1184, 4634330558135809356, 80, 8, 0, 3019706015)),
    ("degraded lossy links", (1057, 4628416290193917636, 80, 8, 0, 3963964357)),
    ("mof corruption", (810, 4626354383178243563, 81, 8, 0, 1334286921)),
    ("alg record rot", (960, 4627685906037861442, 80, 9, 1, 3101671950)),
    ("resident mofs, node crash", (750, 4636202310752247382, 84, 9, 1, 3123603075)),
    ("map and reduce kills, alg", (12676, 4639127392220713377, 801, 21, 2, 358096053)),
];

fn sim(gb: u64, reduces: u32, mode: RecoveryMode, faults: FaultPlan) -> Simulation {
    let spec = SimJobSpec::new(WorkloadKind::Terasort, gb * GB, reduces, 7);
    Simulation::new(spec, ExperimentEnv::paper(mode), faults)
}

fn pin(report: &SimReport) -> Pin {
    let json = serde_json::to_string(report).expect("a report serialises");
    (
        report.events,
        report.job_secs.to_bits(),
        report.map_attempts,
        report.reduce_attempts,
        report.failures.len(),
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
