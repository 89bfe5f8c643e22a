//! DFS replica management: verified reads, failover, re-replication.
//!
//! ```text
//! cargo run --release --example dfs_recovery
//! ```
//!
//! Every replica of a DFS block carries its own CRC32, so corruption is a
//! per-replica event rather than a file-wide one. This
//! example walks the whole recovery story on real bytes:
//!
//! 1. rot one replica of a committed file — a verified read serves clean
//!    bytes from a healthy copy, charges the failover, and queues the
//!    block for re-replication; `repair()` then restores the replication
//!    level rack-aware;
//! 2. rot *every* replica — the read surfaces the distinct
//!    `AllReplicasCorrupt` error (the bytes are present but rotten
//!    everywhere; retrying against liveness cannot help);
//! 3. the Fig. 13 trade-off: per [`ReplicationLevel`], kill a replica
//!    holder and measure the re-replication bytes against the estimated
//!    recovery latency on the §V-A testbed hardware — node-level writes
//!    are free to repair only because the data is simply gone.

use alm_mapreduce::dfs::{DfsCluster, DfsError, Topology};
use alm_mapreduce::prelude::*;
use bytes::Bytes;

const MB: u64 = 1024 * 1024;
const BLOCK: u64 = 4 * MB;
const REPLICATION: u16 = 2; // dfs.replication (Table I)
const REPAIR_CONCURRENCY: u32 = 2;

/// Deterministic payload so reads can be checked byte-for-byte.
fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

fn main() {
    let hw = ClusterSpec::default();

    // ---- 1. One rotten replica: failover + repair -----------------------
    let dfs = DfsCluster::with_policy(Topology::even(6, 2), BLOCK, REPLICATION, true, REPAIR_CONCURRENCY);
    let data = payload((3 * BLOCK) as usize + 517);
    let meta = dfs
        .write("/out/part-00000", data.clone(), NodeId(0), ReplicationLevel::Rack)
        .expect("write must place replicas");
    println!("wrote {} bytes as {} blocks x {} replicas", meta.len, meta.num_blocks, REPLICATION);

    assert!(dfs.corrupt_replica("/out/part-00000", 1, Some(meta.replicas[1][0])));
    let read = dfs.read("/out/part-00000").expect("verified read must fail over");
    assert_eq!(read, data, "the reader must never see rotten bytes");
    let stats = dfs.stats();
    assert_eq!(stats.read_failovers, 1);
    assert_eq!(dfs.repair_queue_len(), 1, "detected rot must queue re-replication");
    println!(
        "rotted 1 replica of block 1: read served clean bytes, {} failover charged",
        stats.read_failovers
    );

    let repaired = dfs.repair();
    assert!(repaired > 0, "repair must copy bytes");
    assert_eq!(dfs.corrupt_replica_count(), 0, "repair must evict the rotten replica");
    println!("repair copied {repaired} bytes; corrupt replicas now {}", dfs.corrupt_replica_count());

    // ---- 2. Every replica rotten: a distinct, diagnosable error ---------
    for node in &meta.replicas[0] {
        assert!(dfs.corrupt_replica("/out/part-00000", 0, Some(*node)));
    }
    match dfs.read("/out/part-00000") {
        Err(DfsError::AllReplicasCorrupt { block, .. }) => {
            println!("rotted all replicas of block {block}: read failed with AllReplicasCorrupt (not BlockUnavailable)");
        }
        other => panic!("expected AllReplicasCorrupt, got {other:?}"),
    }

    // ---- 3. Fig. 13: re-replication bytes vs recovery latency -----------
    // Kill one replica holder per level and let repair restore the
    // replication level. Copy pipeline: source disk read -> NIC -> dest
    // disk write; cluster-level repairs also cross the oversubscribed
    // rack uplink, shared by the concurrent repair streams.
    let file_bytes = 24 * BLOCK;
    let intra_bw = hw.nic_bandwidth.min(hw.disk_read_bandwidth).min(hw.disk_write_bandwidth);
    let cross_bw = intra_bw.min(hw.rack_uplink_bandwidth / u64::from(REPAIR_CONCURRENCY));
    println!("\nreplica management after losing one holder node ({} MB file, {} racks):", file_bytes / MB, 2);
    println!(
        "  {:<8} {:>9} {:>18} {:>17}  outcome",
        "level", "replicas", "re-replication", "recovery latency"
    );
    for level in [ReplicationLevel::Node, ReplicationLevel::Rack, ReplicationLevel::Cluster] {
        let dfs =
            DfsCluster::with_policy(Topology::even(20, 2), BLOCK, REPLICATION, true, REPAIR_CONCURRENCY);
        let meta = dfs
            .write("/out/part-00000", payload(file_bytes as usize), NodeId(0), level)
            .expect("write must place replicas");
        dfs.set_node_alive(meta.replicas[0][0], false);
        let copied = dfs.repair();
        let bw = if level == ReplicationLevel::Cluster { cross_bw } else { intra_bw };
        let (latency, outcome) = if dfs.lost_block_count() > 0 {
            assert_eq!(level, ReplicationLevel::Node, "replicated levels must survive one node loss");
            ("-".to_string(), "data lost (no surviving replica)")
        } else {
            assert_eq!(copied, file_bytes, "repair must re-replicate the whole lost holder");
            assert!(dfs.is_available("/out/part-00000"));
            (format!("{:.3} s", copied as f64 / bw as f64), "replication level restored")
        };
        println!(
            "  {:<8} {:>9} {:>15} MB {:>17}  {outcome}",
            format!("{level:?}"),
            level.replica_count(REPLICATION),
            copied / MB,
            latency,
        );
    }
    println!("\ndfs_recovery: OK");
}
