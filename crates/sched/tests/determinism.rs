//! Integration-level determinism and scale acceptance for the warehouse
//! engine.
//!
//! The whole subsystem's contract is that a `(spec, seed)` pair names one
//! exact simulation: same events, same report bytes, on any machine. These
//! tests pin that contract at realistic scale — the unit tests inside the
//! crate cover it on small topologies.

use alm_sched::{SchedPolicyKind, WarehouseCampaign, WarehouseFault};
use alm_types::RecoveryMode;

/// FNV-1a (64-bit): a dependency-free fingerprint of a canonical report.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// The pinned campaign: 3 tenants × 30 jobs on 200 nodes, rack 2 lost at
/// 90 s and node 18 (rack 3) at 240 s, inside the reduce phase of running
/// jobs — so Baseline and ALG go through `SourceLoss` and the
/// wedged-`ReduceDone` path as well as the crash/detect paths.
fn pinned_campaign(policy: SchedPolicyKind, mode: RecoveryMode) -> WarehouseCampaign {
    WarehouseCampaign::synthetic(200, 3, 30, policy, mode, 42)
        .with_fault(WarehouseFault::CrashRack { rack: 2, at_secs: 90.0 })
        .with_fault(WarehouseFault::CrashNode { node: 18, at_secs: 240.0 })
}

/// `(events, fnv1a(canonical_json))` per policy × mode, recorded at commit
/// 5943317, before the engine's bookkeeping went incremental. Every
/// scheduling decision shows up in these bytes; a change that moves one
/// is a behaviour change and must say so.
const PINNED: [(SchedPolicyKind, RecoveryMode, u64, u64); 12] = [
    (SchedPolicyKind::Fifo, RecoveryMode::Baseline, 15081, 14_000_166_848_528_241_550),
    (SchedPolicyKind::Fifo, RecoveryMode::Alg, 15081, 10_587_748_081_915_973_808),
    (SchedPolicyKind::Fifo, RecoveryMode::Sfm, 14770, 14_428_200_153_547_516_038),
    (SchedPolicyKind::Fifo, RecoveryMode::SfmAlg, 14770, 17_924_508_208_312_798_133),
    (SchedPolicyKind::Capacity, RecoveryMode::Baseline, 15081, 17_229_937_028_741_257_256),
    (SchedPolicyKind::Capacity, RecoveryMode::Alg, 15081, 2_036_900_358_834_517_354),
    (SchedPolicyKind::Capacity, RecoveryMode::Sfm, 14770, 16_990_071_656_400_106_616),
    (SchedPolicyKind::Capacity, RecoveryMode::SfmAlg, 14770, 15_162_581_660_131_117_103),
    (SchedPolicyKind::Fair, RecoveryMode::Baseline, 15081, 13_417_850_290_729_489_474),
    (SchedPolicyKind::Fair, RecoveryMode::Alg, 15081, 11_658_328_183_649_910_860),
    (SchedPolicyKind::Fair, RecoveryMode::Sfm, 14770, 17_248_051_695_753_801_282),
    (SchedPolicyKind::Fair, RecoveryMode::SfmAlg, 14770, 5_743_110_022_057_560_121),
];

#[test]
fn decisions_match_the_pinned_matrix() {
    let got: Vec<(SchedPolicyKind, RecoveryMode, u64, u64)> = PINNED
        .iter()
        .map(|&(policy, mode, _, _)| {
            let r = pinned_campaign(policy, mode).run().expect("pinned campaign");
            assert!(r.succeeded(), "{policy:?}/{mode:?} must finish");
            if !mode.sfm_enabled() {
                assert!(
                    r.jobs.iter().any(|j| j.fetch_failures > 0),
                    "{policy:?}/{mode:?}: the reduce-phase crash must reach SourceLoss"
                );
            }
            (policy, mode, r.events, fnv1a(r.canonical_json().as_bytes()))
        })
        .collect();
    let table: String = got.iter().map(|row| format!("    {row:?},\n")).collect();
    assert_eq!(got, PINNED, "pinned decisions moved; now:\n{table}");
}

/// The ISSUE acceptance campaign: 3 tenants, 8 concurrent jobs each, on a
/// 200-node cluster, with a rack crash mid-flight.
fn acceptance_200(policy: SchedPolicyKind, seed: u64) -> WarehouseCampaign {
    WarehouseCampaign::synthetic(200, 3, 8, policy, RecoveryMode::SfmAlg, seed)
        .with_fault(WarehouseFault::CrashRack { rack: 2, at_secs: 90.0 })
}

#[test]
fn multi_tenant_campaign_is_byte_identical_across_runs() {
    for policy in [SchedPolicyKind::Fifo, SchedPolicyKind::Capacity, SchedPolicyKind::Fair] {
        let a = acceptance_200(policy, 7).run().expect("run a");
        let b = acceptance_200(policy, 7).run().expect("run b");
        assert_eq!(a.canonical_json(), b.canonical_json(), "{policy:?} must be reproducible");
        assert!(a.succeeded(), "{policy:?} campaign must finish");
    }
}

/// ISSUE acceptance: the fixed-seed 1000-node / 3-tenant / 24-job campaign
/// completes deterministically under both FIFO and fair policies.
#[test]
fn warehouse_1000_nodes_24_jobs_deterministic_under_fifo_and_fair() {
    for policy in [SchedPolicyKind::Fifo, SchedPolicyKind::Fair] {
        let mk = || {
            WarehouseCampaign::synthetic(1000, 3, 8, policy, RecoveryMode::SfmAlg, 42)
                .with_fault(WarehouseFault::CrashRack { rack: 3, at_secs: 120.0 })
        };
        let a = mk().run().expect("1000-node campaign");
        let b = mk().run().expect("1000-node campaign");
        assert_eq!(a.canonical_json(), b.canonical_json(), "{policy:?}");
        assert_eq!(a.jobs.len(), 24);
        assert!(a.succeeded(), "{policy:?}: all 24 jobs must finish");
        // worker_nodes(): one of the 1000 is the master.
        assert_eq!(a.nodes, 999);
    }
}

/// Recovery-mode ordering must survive scale and multi-tenancy: on the
/// crashed campaign, full treatment (SFM+ALG) cannot be slower than no
/// treatment (baseline) for the tenant that ate the crash.
#[test]
fn recovery_modes_keep_their_ordering_at_scale() {
    let slow = |mode: RecoveryMode| {
        let r = WarehouseCampaign::synthetic(200, 3, 8, SchedPolicyKind::Fair, mode, 7)
            .with_fault(WarehouseFault::CrashRack { rack: 2, at_secs: 90.0 })
            .run()
            .expect("run");
        let rows = r.per_tenant_rows();
        let hit = rows.iter().max_by(|a, b| a.failures.cmp(&b.failures)).expect("rows");
        hit.mean_slowdown
    };
    let baseline = slow(RecoveryMode::Baseline);
    let treated = slow(RecoveryMode::SfmAlg);
    assert!(
        treated <= baseline + 1e-9,
        "SFM+ALG must not slow the wounded tenant down: treated={treated} baseline={baseline}"
    );
}
