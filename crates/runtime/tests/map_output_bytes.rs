//! Every committed MOF is pinned byte for byte.
//!
//! `run_map` executes every map of three fixed-seed jobs on this thread and
//! the test hashes each committed MOF blob (every partition's sorted run in
//! its CRC frame) with FNV-1a. The pinned values were recorded before the
//! map-side sort buffer was rebuilt as a byte arena, so a change to how the
//! map side sorts, spills, combines or assembles its output that moves a
//! single byte fails here. The three jobs cover the three paths that
//! matter: spill pressure without a combiner (Terasort), a combiner within
//! and across spills (Wordcount), and a composite comparator with many
//! records sharing a primary key (Secondarysort).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use alm_runtime::maptask::{run_map, MapCtx};
use alm_runtime::{JobDef, MiniCluster, TaskEvent};
use alm_shuffle::{codec, LocalFs};
use alm_types::{AlmConfig, JobId, NodeId, RecoveryMode, YarnConfig};
use alm_workloads::{SecondarySort, Terasort, Wordcount, Workload};
use crossbeam::channel::unbounded;

const SEED: u64 = 42;
const MAPS: u32 = 2;
const REDUCES: u32 = 3;

/// 64-bit FNV-1a.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Run every map of `workload` with a `map_heap_bytes` heap and return the
/// FNV-1a hash of each committed MOF blob, in map order.
fn mof_hashes(workload: Arc<dyn Workload>, map_heap_bytes: u64) -> Vec<u64> {
    let cluster = MiniCluster::for_tests(2);
    let config = YarnConfig { map_heap_bytes, ..cluster.config.clone() };
    // `run_map`'s spill threshold: a quarter of the map heap, at least 4 KiB.
    let threshold = (map_heap_bytes / 4).max(4096);
    let job = Arc::new(JobDef::new(
        JobId(3),
        workload.clone(),
        MAPS,
        REDUCES,
        SEED,
        AlmConfig::with_mode(RecoveryMode::Baseline),
    ));
    let node = cluster.node(NodeId(0));
    let mut hashes = Vec::new();
    for m in 0..MAPS {
        let mut emitted = 0u64;
        for rec in workload.gen_split(m, SEED) {
            workload
                .map(&rec, &mut |out| emitted += codec::encoded_len(out.key.len(), out.value.len()) as u64);
        }
        assert!(emitted >= 3 * threshold, "map {m} must spill at least three times ({emitted} B)");

        let (tx, rx) = unbounded();
        run_map(MapCtx {
            job: job.clone(),
            attempt: job.map_task(m).attempt(0),
            node: node.clone(),
            events: tx,
            config: config.clone(),
            kill_at: None,
            cancelled: Arc::new(AtomicBool::new(false)),
        });
        let mof = rx
            .iter()
            .find_map(|ev| match ev {
                TaskEvent::MapCompleted { mof, .. } => Some(mof),
                _ => None,
            })
            .expect("the map commits");
        hashes.push(fnv1a(&node.fs.read(&mof.path).expect("the MOF is on the map's node")));
    }
    hashes
}

#[test]
fn terasort_mofs_under_spill_pressure_are_pinned() {
    let got = mof_hashes(Arc::new(Terasort::new(2_000)), 64 << 10);
    assert_eq!(got, [0x7e8e_26c2_74b0_529c, 0x59b6_43ea_d198_59aa], "{got:#x?}");
}

#[test]
fn wordcount_mofs_combined_within_and_across_spills_are_pinned() {
    let got = mof_hashes(Arc::new(Wordcount::new(5_000, 20)), 16 << 10);
    assert_eq!(got, [0x9867_f688_31e0_c786, 0x4e43_87c1_f74c_1d7f], "{got:#x?}");
}

#[test]
fn secondarysort_mofs_under_the_composite_comparator_are_pinned() {
    let got = mof_hashes(Arc::new(SecondarySort::new(20_000)), 256 << 10);
    assert_eq!(got, [0xf0f4_45d3_7ad4_ed2d, 0xecd5_6f20_5d51_49d7], "{got:#x?}");
}
