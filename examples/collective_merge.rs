//! Fast Collective Merging in isolation: the real pipelined implementation
//! from `alm-core`, merging sorted segments spread over "participant
//! nodes" into one globally ordered stream, compared against a single-node
//! merge of the same data.
//!
//! ```text
//! cargo run --release --example collective_merge
//! ```

use std::time::Instant;

use alm_mapreduce::prelude::*;
use alm_mapreduce::shuffle::segment::{build_segment, SegmentReader, SegmentSource};
use alm_mapreduce::shuffle::{bytewise_cmp, MergeQueue};
use rand::{rngs::SmallRng, RngCore, SeedableRng};

#[allow(clippy::disallowed_methods, reason = "the demo times two real merges on host threads")]
fn main() {
    // 4 participants, 8 sorted segments each, 100-byte records.
    let mut rng = SmallRng::seed_from_u64(5);
    let node_segments: Vec<Vec<::bytes::Bytes>> = (0..4)
        .map(|_| {
            (0..8)
                .map(|_| {
                    let mut recs: Vec<(Vec<u8>, Vec<u8>)> = (0..20_000)
                        .map(|_| {
                            let mut key = vec![0u8; 10];
                            rng.fill_bytes(&mut key);
                            (key, vec![0u8; 90])
                        })
                        .collect();
                    recs.sort();
                    build_segment(&recs)
                })
                .collect()
        })
        .collect();
    let total_bytes: usize = node_segments.iter().flatten().map(|s| s.len()).sum();
    println!("merging {:.1} MB across 4 participants x 8 segments\n", total_bytes as f64 / (1 << 20) as f64);

    // Single-node merge: one MPQ over all 32 segments (what a plain
    // recovering ReduceTask does).
    let t0 = Instant::now();
    let readers: Vec<SegmentReader> = node_segments
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, s)| SegmentReader::new(SegmentSource::Memory { id: i as u64 }, s.clone()).unwrap())
        .collect();
    let mut q = MergeQueue::new(bytewise_cmp(), readers);
    let mut single = 0u64;
    while q.pop().unwrap().is_some() {
        single += 1;
    }
    let single_t = t0.elapsed();
    println!("single-node merge : {single} records in {single_t:?}");

    // Fast Collective Merging: each participant pre-merges its own
    // segments on its own thread and streams to the Global-MPQ.
    let t0 = Instant::now();
    let participants: Vec<Participant> = node_segments
        .iter()
        .enumerate()
        .map(|(n, segs)| Participant {
            node: NodeId(n as u32),
            segments: segs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    SegmentReader::new(SegmentSource::Memory { id: (n * 100 + i) as u64 }, s.clone()).unwrap()
                })
                .collect(),
        })
        .collect();
    let mut last_key: Option<Vec<u8>> = None;
    let stats = collective_merge(&bytewise_cmp(), participants, 64 * 1024, |k, _| {
        if let Some(prev) = &last_key {
            assert!(prev.as_slice() <= k, "global order violated");
        }
        last_key = Some(k.to_vec());
    })
    .unwrap();
    let fcm_t = t0.elapsed();
    println!(
        "collective merge  : {} records in {fcm_t:?} ({} participants)",
        stats.records, stats.participants
    );
    assert_eq!(stats.records, single);
    println!(
        "\nidentical record counts, globally sorted — collective/single time ratio {:.2}x",
        fcm_t.as_secs_f64() / single_t.as_secs_f64()
    );
    println!(
        "(in-process, both merges share one machine's cores; the paper's FCM win comes from\n distributing the pre-merge I/O and CPU across cluster nodes — see `cargo run -p alm-bench\n --release --bin all_figures -- fig14` for the cluster-scale comparison)"
    );
}
