//! Logical nodes and the mini-cluster.

use alm_dfs::{DfsCluster, Topology};
use alm_shuffle::MemFs;
use alm_types::{LinkState, NodeId, YarnConfig};

use crate::resident::ResidentCache;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One compute node: a local store, a liveness flag, and crash bookkeeping.
pub struct NodeHandle {
    pub id: NodeId,
    pub fs: MemFs,
    alive: AtomicBool,
    /// When the node was crashed (for the AM's detection delay).
    crashed_at: Mutex<Option<Instant>>,
    /// Compute-slowdown factor as f64 bits (1.0 = healthy). Injected
    /// `Fault::SlowNode` degradations raise it; task threads throttle
    /// against it at their safe points. The node keeps heartbeating.
    slow_factor: AtomicU64,
}

impl NodeHandle {
    fn new(id: NodeId) -> NodeHandle {
        NodeHandle {
            id,
            fs: MemFs::new(),
            alive: AtomicBool::new(true),
            crashed_at: Mutex::new(None),
            slow_factor: AtomicU64::new(1.0f64.to_bits()),
        }
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Degrade (or restore, with 1.0) the node's compute speed
    /// (`FaultPlan::arm` has clamped `factor` to >= 1).
    pub fn set_slow(&self, factor: f64) {
        self.slow_factor.store(factor.to_bits(), Ordering::Release);
    }

    pub fn slow_factor(&self) -> f64 {
        f64::from_bits(self.slow_factor.load(Ordering::Acquire))
    }

    /// Called by task threads at their record-loop safe points: on a
    /// degraded node, sleep proportionally to the slowdown factor so the
    /// node's tasks become stragglers without ever failing. Healthy nodes
    /// pay only an atomic load.
    pub fn throttle(&self) {
        let f = self.slow_factor();
        if f > 1.0 {
            let us = ((f - 1.0) * 200.0).min(5_000.0) as u64;
            std::thread::sleep(Duration::from_micros(us));
        }
    }

    /// Crash the node: wipe its store (MOFs, spills, local logs all gone)
    /// and stop heartbeating. Running task threads notice via
    /// [`NodeHandle::is_alive`] at their next safe point and die silently.
    pub fn crash(&self) {
        if self.alive.swap(false, Ordering::AcqRel) {
            self.fs.wipe();
            *self.crashed_at.lock() = Some(Instant::now());
        }
    }

    /// How long ago the node crashed, if it did.
    pub fn crashed_for(&self) -> Option<std::time::Duration> {
        self.crashed_at.lock().map(|t| t.elapsed())
    }
}

/// The whole in-process cluster: nodes + DFS + configuration.
pub struct MiniCluster {
    pub nodes: Vec<Arc<NodeHandle>>,
    pub dfs: Arc<DfsCluster>,
    /// Which links are cut or degraded, as the AM's injected faults left
    /// them; the shuffle fetch path and FCM's participant reads consult it.
    pub links: Arc<Mutex<LinkState>>,
    pub config: YarnConfig,
    /// Chain-layer resident MOF cache, installed by `alm-mem` when a job
    /// chain drives this cluster; [`MiniCluster::crash_node`] wipes a dead
    /// node's entries (RAM does not survive a crash).
    resident: Mutex<Option<Arc<dyn ResidentCache>>>,
}

impl MiniCluster {
    /// A cluster of `n` nodes over `racks` racks with the given config.
    pub fn new(n: u32, racks: u32, config: YarnConfig) -> MiniCluster {
        let topo = Topology::even(n, racks);
        let dfs = Arc::new(DfsCluster::with_policy(
            topo,
            config.dfs_block_size,
            config.dfs_replication,
            config.dfs_verify_on_read,
            config.dfs_repair_concurrency,
        ));
        let nodes = (0..n).map(|i| Arc::new(NodeHandle::new(NodeId(i)))).collect();
        MiniCluster { nodes, dfs, links: Arc::default(), config, resident: Mutex::new(None) }
    }

    /// Test-scaled cluster (fast timeouts, small buffers).
    pub fn for_tests(n: u32) -> MiniCluster {
        MiniCluster::new(n, MiniCluster::test_racks(n), YarnConfig::scaled_for_tests())
    }

    /// Rack count [`MiniCluster::for_tests`] uses for an `n`-node cluster.
    /// Single-sourced here so fault tooling that lowers rack faults (e.g.
    /// `alm-chaos`) cannot drift from the topology the cluster actually
    /// builds.
    pub fn test_racks(n: u32) -> u32 {
        2.min(n)
    }

    /// Number of distinct racks in this cluster's topology.
    pub fn racks(&self) -> u32 {
        self.dfs.topology().num_racks() as u32
    }

    pub fn node(&self, id: NodeId) -> &Arc<NodeHandle> {
        &self.nodes[id.0 as usize]
    }

    /// Install (or clear, with `None`) the chain layer's resident MOF
    /// cache; subsequent jobs' fetches consult it before any disk path.
    pub fn set_resident(&self, cache: Option<Arc<dyn ResidentCache>>) {
        *self.resident.lock() = cache;
    }

    /// The installed resident MOF cache, if any.
    pub fn resident(&self) -> Option<Arc<dyn ResidentCache>> {
        self.resident.lock().clone()
    }

    /// Crash a node everywhere: local store, DFS replicas, liveness, and
    /// any resident in-memory MOF copies it held.
    pub fn crash_node(&self, id: NodeId) {
        self.node(id).crash();
        self.dfs.set_node_alive(id, false);
        if let Some(cache) = self.resident() {
            cache.invalidate_node(id);
        }
    }

    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.is_alive()).map(|n| n.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_shuffle::LocalFs;
    use bytes::Bytes;

    #[test]
    fn crash_wipes_store_and_liveness() {
        let c = MiniCluster::for_tests(3);
        let n = c.node(NodeId(1));
        n.fs.write("mof/x", Bytes::from_static(b"data")).unwrap();
        assert!(n.is_alive());
        assert!(n.crashed_for().is_none());
        c.crash_node(NodeId(1));
        assert!(!n.is_alive());
        assert!(n.fs.read("mof/x").is_err());
        assert!(n.crashed_for().is_some());
        assert!(!c.dfs.is_node_alive(NodeId(1)));
        assert_eq!(c.alive_nodes(), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn slow_factor_defaults_healthy() {
        let c = MiniCluster::for_tests(2);
        let n = c.node(NodeId(0));
        assert_eq!(n.slow_factor(), 1.0);
        n.set_slow(3.5);
        assert_eq!(n.slow_factor(), 3.5);
        n.set_slow(1.0);
        assert_eq!(n.slow_factor(), 1.0);
    }

    #[test]
    fn test_rack_policy_matches_built_topology() {
        for n in 1..=6 {
            let c = MiniCluster::for_tests(n);
            assert_eq!(c.racks(), MiniCluster::test_racks(n), "n = {n}");
        }
    }

    #[test]
    fn crash_wipes_resident_entries() {
        use crate::resident::testutil::MapResident;
        use crate::resident::ResidentCache;
        use alm_types::JobId;
        let c = MiniCluster::for_tests(3);
        assert!(c.resident().is_none(), "no cache installed by default");
        let cache = Arc::new(MapResident::default());
        c.set_resident(Some(cache.clone()));
        cache.admit(NodeId(1), JobId(0), 0, 0, &Bytes::from_static(b"aa"));
        cache.admit(NodeId(2), JobId(0), 1, 0, &Bytes::from_static(b"bb"));
        c.crash_node(NodeId(1));
        assert!(cache.lookup(JobId(0), 0, 0).is_none(), "dead node's RAM is gone");
        assert!(cache.lookup(JobId(0), 1, 0).is_some(), "survivor entries stay");
        c.set_resident(None);
        assert!(c.resident().is_none());
    }

    #[test]
    fn double_crash_is_idempotent() {
        let c = MiniCluster::for_tests(2);
        c.crash_node(NodeId(0));
        let t1 = c.node(NodeId(0)).crashed_for().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        c.crash_node(NodeId(0));
        assert!(c.node(NodeId(0)).crashed_for().unwrap() >= t1, "crash time not reset");
    }
}
