//! Regression tests for fault-accounting bugs: duplicate crash injection
//! from overlapping rack faults, rack-blind amplification denominators,
//! record-presence (instead of commit-status) partition counting, and
//! rack-count drift between the lowering profile and the real cluster.

use std::sync::Arc;

use alm_chaos::{ChaosFault, ChaosScenario, RuntimeCampaign};
use alm_runtime::{JobDef, MiniCluster};
use alm_types::{AlmConfig, JobId, NodeId, RecoveryMode, ReplicationLevel};
use alm_workloads::{Record, Terasort, Workload, WorkloadModel};
use bytes::Bytes;

/// Terasort with a partitioner that never routes to the last partition:
/// a legal workload whose final reduce partition is legitimately empty.
struct HolePartition(Terasort);

impl Workload for HolePartition {
    fn name(&self) -> &'static str {
        "terasort-hole"
    }
    fn gen_split(&self, split: u32, seed: u64) -> Vec<Record> {
        self.0.gen_split(split, seed)
    }
    fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record)) {
        self.0.map(rec, emit)
    }
    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record)) {
        self.0.reduce(key, values, emit)
    }
    fn partition(&self, key: &[u8], num_reduces: u32) -> u32 {
        if num_reduces > 1 {
            self.0.partition(key, num_reduces - 1)
        } else {
            0
        }
    }
    fn model(&self) -> WorkloadModel {
        self.0.model()
    }
}

/// An empty reduce partition is *committed*, not lost: the campaign must
/// report all partitions committed and the oracle must verify, so the
/// differential `no-mof-loss` invariant sees no false MOF loss.
#[test]
fn empty_partition_commits_and_verifies() {
    let campaign = RuntimeCampaign {
        workload: Arc::new(HolePartition(Terasort::new(600))),
        num_maps: 3,
        num_reduces: 3,
        seed: 42,
        nodes: 4,
        ms_per_scenario_sec: 5.0,
        modes: vec![RecoveryMode::Baseline, RecoveryMode::SfmAlg],
    };
    let scenarios = vec![
        ChaosScenario::new("clean"),
        ChaosScenario::new("kill").with(ChaosFault::KillReduce { index: 0, at_progress: 0.5 }),
    ];
    for o in campaign.run(&scenarios) {
        assert!(o.succeeded, "{o:?}");
        assert_eq!(o.output_verified, Some(true), "empty partition broke the oracle: {o:?}");
        assert_eq!(
            o.partitions_committed,
            Some(3),
            "empty partition must count as committed (commit status, not record presence): {o:?}"
        );
    }
}

/// Commit-status counting: an empty committed file counts, a never-written
/// partition does not, and a committed file whose blocks lost every live
/// replica no longer counts — record-presence accounting would miss the
/// last case entirely.
#[test]
fn committed_partitions_track_commit_status_not_record_presence() {
    let cluster = MiniCluster::for_tests(4);
    let job = JobDef::new(JobId(0), Arc::new(Terasort::new(100)), 2, 3, 1, AlmConfig::baseline());

    let mut buf = Vec::new();
    alm_shuffle::codec::encode_into(&mut buf, b"key", b"value");
    let meta0 = cluster
        .dfs
        .write(&job.output_path(0), Bytes::from(buf), NodeId(0), ReplicationLevel::Cluster)
        .unwrap();
    cluster.dfs.write(&job.output_path(1), Bytes::new(), NodeId(0), ReplicationLevel::Cluster).unwrap();

    // Partition 0 has records, partition 1 committed empty, partition 2
    // was never committed.
    assert_eq!(RuntimeCampaign::committed_partitions(&cluster, &job), 2);

    // Lose every replica of partition 0's blocks: the commit is gone, even
    // though a record-presence accounting would still count the partition.
    for block_replicas in &meta0.replicas {
        for n in block_replicas {
            cluster.dfs.set_node_alive(*n, false);
        }
    }
    assert_eq!(RuntimeCampaign::committed_partitions(&cluster, &job), 1);
}

/// The campaign's lowering profile and the cluster the campaign actually
/// builds must agree on the rack count for every cluster size — rack-fault
/// membership is computed from the profile and executed on the cluster.
#[test]
fn campaign_profile_racks_match_cluster_topology() {
    for nodes in 1..=6u32 {
        let campaign = RuntimeCampaign {
            workload: Arc::new(Terasort::new(100)),
            num_maps: 2,
            num_reduces: 2,
            seed: 7,
            nodes,
            ms_per_scenario_sec: 5.0,
            modes: vec![RecoveryMode::Baseline],
        };
        let cluster = MiniCluster::for_tests(nodes);
        assert_eq!(campaign.profile().racks, cluster.racks(), "nodes = {nodes}");
        assert_eq!(campaign.profile().racks, MiniCluster::test_racks(nodes), "nodes = {nodes}");
    }
}
