//! The MOF registry and shuffle fetch service.
//!
//! The AM-side registry maps each map index to the node and MOF of its
//! latest successful attempt; reducers fetch partitions through
//! [`try_fetch`], which tells them what they met as an
//! `alm_core::fetch::Outcome` (§II-C): data, not ready (unregistered, or
//! regenerating: the reducer waits instead of burning retries), corrupt
//! bytes from a healthy source, or a refusal by a dead source or across a
//! severed link. What the reducer does about it, `FetchCore` decides.

use alm_core::fetch::Outcome;
use alm_shuffle::{MofData, ShuffleError};
use alm_types::{JobId, LinkState, NodeId};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::cluster::NodeHandle;
use crate::resident::ResidentCache;

/// One map's registered MOF: where it lives, and which registration of
/// that map it is.
#[derive(Debug, Clone)]
pub struct RegisteredMof {
    pub node: NodeId,
    pub mof: MofData,
    /// Bumped by every [`MofRegistry::register`] of the map, so a report
    /// about bytes read from this copy can be told apart from one about
    /// the copy that replaced it.
    pub generation: u64,
}

/// Shared MOF location table. One lock over both maps, so a registration
/// and a regeneration claim each see and change them atomically.
#[derive(Default)]
pub struct MofRegistry {
    inner: Mutex<Registry>,
}

#[derive(Default)]
struct Registry {
    mofs: BTreeMap<u32, RegisteredMof>,
    /// Map indices whose MOFs are being proactively regenerated (SFM).
    regenerating: BTreeSet<u32>,
}

impl MofRegistry {
    pub fn new() -> MofRegistry {
        MofRegistry::default()
    }

    /// Register (or replace, after re-execution) a map's MOF location.
    pub fn register(&self, map_index: u32, node: NodeId, mof: MofData) {
        let mut inner = self.inner.lock();
        let generation = inner.mofs.get(&map_index).map_or(0, |r| r.generation + 1);
        inner.mofs.insert(map_index, RegisteredMof { node, mof, generation });
        inner.regenerating.remove(&map_index);
    }

    pub fn lookup(&self, map_index: u32) -> Option<RegisteredMof> {
        self.inner.lock().mofs.get(&map_index).cloned()
    }

    /// Map indices whose registered MOF lives on `node`.
    pub fn mofs_on_node(&self, node: NodeId) -> Vec<u32> {
        self.inner.lock().mofs.iter().filter(|(_, r)| r.node == node).map(|(i, _)| *i).collect()
    }

    /// Mark a map's MOF as being regenerated; fetches return NotReady
    /// instead of SourceDead until the new MOF registers.
    pub fn mark_regenerating(&self, map_index: u32) {
        self.inner.lock().regenerating.insert(map_index);
    }

    pub fn is_regenerating(&self, map_index: u32) -> bool {
        self.inner.lock().regenerating.contains(&map_index)
    }

    /// Start regenerating map `map_index` because a reducer found the copy
    /// registered as `generation` corrupt. `false` — nothing to do — when
    /// a regeneration is already underway, or when that copy has since
    /// been replaced: the reducer read the rotten bytes before the fresh
    /// MOF registered, and its re-fetch will find the fresh one.
    pub fn claim_regeneration(&self, map_index: u32, generation: u64) -> bool {
        let mut inner = self.inner.lock();
        inner.mofs.get(&map_index).is_some_and(|r| r.generation == generation)
            && inner.regenerating.insert(map_index)
    }
}

/// What one fetch found, with the partition's bytes when it read them
/// (and whether the chain layer's resident cache served them: the reducer
/// reports such hits, which the run counts as the simulator does).
pub type Fetched = (Outcome, Option<(Bytes, bool)>);

/// Fetch `partition` of map `map_index` of `job` for the reducer running
/// on `fetcher`, honouring the cluster's data-plane link state.
///
/// When a chain-layer [`ResidentCache`] is installed, it is consulted
/// *before* any disk path: a resident copy on a live, reachable node is
/// served at memory speed (and shields the fetch from rotten disk bytes —
/// the copy was CRC-framed into RAM at admission); a successful disk fetch
/// admits its bytes back into the cache on the MOF's home node.
#[allow(clippy::too_many_arguments)]
pub fn try_fetch(
    nodes: &[Arc<NodeHandle>],
    links: &Mutex<LinkState>,
    registry: &MofRegistry,
    resident: Option<&dyn ResidentCache>,
    fetcher: NodeId,
    job: JobId,
    map_index: u32,
    partition: u32,
) -> Fetched {
    let loss = |source| links.lock().degradation(fetcher, source).map_or(0.0, |(_, loss)| loss);
    if let Some(cache) = resident {
        if let Some((holder, data)) = cache.lookup(job, map_index, partition) {
            if nodes[holder.0 as usize].is_alive() && !links.lock().is_severed(fetcher, holder) {
                return (Outcome::Data { source: holder, loss: loss(holder) }, Some((data, true)));
            }
        }
    }
    let Some(RegisteredMof { node: source, mof, generation }) = registry.lookup(map_index) else {
        return (Outcome::NotReady, None);
    };
    // Unreadable bytes are a wait while a regeneration is underway.
    let unless_regenerating =
        |outcome| if registry.is_regenerating(map_index) { Outcome::NotReady } else { outcome };
    let node = &nodes[source.0 as usize];
    if !node.is_alive() {
        return (unless_regenerating(Outcome::Refused { source, source_dead: true }), None);
    }
    if links.lock().is_severed(fetcher, source) {
        // Alive and heartbeating, just cut off in the fetcher → source
        // direction (an asymmetric partition leaves the reverse path — and
        // with it heartbeats — healthy): this must never look like a dead
        // source or the partition amplifies into task preemption.
        return (Outcome::Refused { source, source_dead: false }, None);
    }
    match mof.read_partition(&node.fs, partition) {
        Ok(data) => {
            if let Some(cache) = resident {
                cache.admit(source, job, map_index, partition, &data);
            }
            (Outcome::Data { source, loss: loss(source) }, Some((data, false)))
        }
        Err(ShuffleError::ChecksumMismatch(_)) => {
            (unless_regenerating(Outcome::Corrupt { source, generation, loss: loss(source) }), None)
        }
        // Store wiped between liveness check and read, or MOF dropped.
        Err(_) => (unless_regenerating(Outcome::Refused { source, source_dead: true }), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MiniCluster;
    use alm_shuffle::mof::write_mof;
    use alm_shuffle::LocalFs;
    use alm_types::{LinkChange, LinkDirection, LinkOp};

    /// Flip one payload byte inside partition 0's stored frame.
    fn rot(c: &MiniCluster, host: NodeId, mof: &MofData) {
        let fs = &c.node(host).fs;
        let (off, _) = mof.frame_range(0).unwrap();
        let mut blob = fs.read(&mof.path).unwrap().to_vec();
        blob[off as usize + alm_shuffle::frame::FRAME_HEADER_LEN] ^= 0x55;
        fs.write(&mof.path, Bytes::from(blob)).unwrap();
    }

    fn link(c: &MiniCluster, a: NodeId, b: NodeId, direction: LinkDirection, op: LinkOp) {
        c.links.lock().apply(&LinkChange { a, b, direction, op });
    }

    fn mini() -> (MiniCluster, MofData) {
        let c = MiniCluster::for_tests(3);
        let mut p0 = Vec::new();
        alm_shuffle::codec::encode_into(&mut p0, b"k", b"v");
        let mof = write_mof(&c.node(NodeId(1)).fs, "mof/m0", &[p0]).unwrap();
        (c, mof)
    }

    #[test]
    fn fetch_states() {
        let (c, mof) = mini();
        let reg = MofRegistry::new();
        let me = NodeId(0);
        // Unregistered: not ready.
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, me, JobId(0), 0, 0),
            (Outcome::NotReady, None)
        ));
        // Registered + alive: data.
        reg.register(0, NodeId(1), mof);
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, me, JobId(0), 0, 0),
            (Outcome::Data { .. }, Some(_))
        ));
        // Node crash: source dead.
        c.crash_node(NodeId(1));
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, me, JobId(0),0, 0),
            (Outcome::Refused { source, source_dead: true }, None) if source == NodeId(1)
        ));
        // SFM marks regenerating: reducers wait instead of failing.
        reg.mark_regenerating(0);
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, me, JobId(0), 0, 0),
            (Outcome::NotReady, None)
        ));
    }

    #[test]
    fn partitioned_link_parks_instead_of_declaring_death() {
        let (c, mof) = mini();
        let reg = MofRegistry::new();
        reg.register(0, NodeId(1), mof);
        link(&c, NodeId(0), NodeId(1), LinkDirection::Both, LinkOp::Sever);
        // Fetcher behind the partition parks; the source is NOT dead.
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(0), JobId(0),0, 0),
            (Outcome::Refused { source, source_dead: false }, None) if source == NodeId(1)
        ));
        // A reducer on an unaffected node still fetches normally.
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(2), JobId(0), 0, 0),
            (Outcome::Data { .. }, Some(_))
        ));
        // The map's own node always reaches itself.
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(1), JobId(0), 0, 0),
            (Outcome::Data { .. }, Some(_))
        ));
        // Healing restores the flow.
        link(&c, NodeId(0), NodeId(1), LinkDirection::Both, LinkOp::Heal);
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(0), JobId(0), 0, 0),
            (Outcome::Data { .. }, Some(_))
        ));
    }

    #[test]
    fn asymmetric_partition_gates_only_the_cut_direction() {
        // Sever node 0 → node 1 only. Node 0 cannot fetch from node 1,
        // but a MOF on node 0 is still fetchable *by* node 1 — the gray
        // half-open link the symmetric model could not express.
        let (c, mof) = mini();
        let reg = MofRegistry::new();
        reg.register(0, NodeId(1), mof);
        let mut p0 = Vec::new();
        alm_shuffle::codec::encode_into(&mut p0, b"k2", b"v2");
        let mof0 = write_mof(&c.node(NodeId(0)).fs, "mof/m1", &[p0]).unwrap();
        reg.register(1, NodeId(0), mof0);
        link(&c, NodeId(0), NodeId(1), LinkDirection::AToB, LinkOp::Sever);
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(0), JobId(0),0, 0),
            (Outcome::Refused { source, source_dead: false }, None) if source == NodeId(1)
        ));
        assert!(
            matches!(
                try_fetch(&c.nodes, &c.links, &reg, None, NodeId(1), JobId(0), 1, 0),
                (Outcome::Data { .. }, Some(_))
            ),
            "reverse direction must stay fetchable"
        );
    }

    #[test]
    fn rotted_partition_is_corrupt_data_until_regeneration() {
        let (c, mof) = mini();
        let reg = MofRegistry::new();
        rot(&c, NodeId(1), &mof);
        reg.register(0, NodeId(1), mof);
        // Healthy source, bad bytes: distinct from SourceDead.
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(0), JobId(0),0, 0),
            (Outcome::Corrupt { source, .. }, None) if source == NodeId(1)
        ));
        // Once regeneration is underway, the reducer just waits.
        reg.mark_regenerating(0);
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(0), JobId(0), 0, 0),
            (Outcome::NotReady, None)
        ));
    }

    #[test]
    fn stale_corruption_report_starts_no_second_regeneration() {
        let (c, mof) = mini();
        let reg = MofRegistry::new();
        rot(&c, NodeId(1), &mof);
        reg.register(0, NodeId(1), mof);
        let corrupt_generation =
            |fetcher| match try_fetch(&c.nodes, &c.links, &reg, None, fetcher, JobId(0), 0, 0) {
                (Outcome::Corrupt { generation, .. }, _) => generation,
                other => panic!("expected CorruptData, got {other:?}"),
            };
        // Two reducers read the rotten copy before the AM hears from either.
        let (first, second) = (corrupt_generation(NodeId(0)), corrupt_generation(NodeId(2)));
        // The first report starts the regeneration; a repeat while it runs
        // does not start another.
        assert!(reg.claim_regeneration(0, first));
        assert!(!reg.claim_regeneration(0, first));
        // The fresh MOF registers before the AM gets to the second report.
        let mut p0 = Vec::new();
        alm_shuffle::codec::encode_into(&mut p0, b"k", b"v");
        let fresh = write_mof(&c.node(NodeId(2)).fs, "mof/m0r1", &[p0]).unwrap();
        reg.register(0, NodeId(2), fresh.clone());
        assert!(!reg.is_regenerating(0));
        // That report names the replaced copy: nothing to regenerate, and
        // the reducer's re-fetch finds the fresh bytes.
        assert!(!reg.claim_regeneration(0, second));
        assert!(!reg.is_regenerating(0));
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(2), JobId(0), 0, 0),
            (Outcome::Data { .. }, Some(_))
        ));
        // Rot in the fresh copy is news: its report claims again.
        rot(&c, NodeId(2), &fresh);
        let third = corrupt_generation(NodeId(0));
        assert_ne!(third, second);
        assert!(reg.claim_regeneration(0, third));
    }

    #[test]
    fn no_generation_is_claimed_twice_while_registrations_race() {
        let (_c, mof) = mini();
        let reg = MofRegistry::new();
        reg.register(0, NodeId(1), mof.clone());
        let done = std::sync::atomic::AtomicBool::new(false);
        let claimed: Vec<u64> = std::thread::scope(|s| {
            let claimers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut won = Vec::new();
                        while !done.load(std::sync::atomic::Ordering::Relaxed) {
                            let generation = reg.lookup(0).expect("registered").generation;
                            if reg.claim_regeneration(0, generation) {
                                won.push(generation);
                            }
                        }
                        won
                    })
                })
                .collect();
            for _ in 0..20_000 {
                reg.register(0, NodeId(1), mof.clone());
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            claimers.into_iter().flat_map(|h| h.join().expect("claimer panicked")).collect()
        });
        let distinct: BTreeSet<u64> = claimed.iter().copied().collect();
        assert_eq!(distinct.len(), claimed.len(), "a generation was claimed twice");
    }

    #[test]
    fn resident_cache_serves_before_disk_and_admits_on_fetch() {
        use crate::resident::testutil::MapResident;
        let (c, mof) = mini();
        let reg = MofRegistry::new();
        reg.register(0, NodeId(1), mof.clone());
        let cache = MapResident::default();
        let job = JobId(0);

        // First fetch reads disk (resident: false) and admits the bytes
        // into the cache.
        let first = try_fetch(&c.nodes, &c.links, &reg, Some(&cache), NodeId(0), job, 0, 0);
        assert!(matches!(first, (Outcome::Data { source, .. }, Some((_, false))) if source == NodeId(1)));
        assert_eq!(cache.len(), 1, "fetched partition must be admitted");

        // Rot the on-disk frame: the resident copy shields the fetch, and
        // the outcome is marked resident so the AM can count the hit.
        rot(&c, NodeId(1), &mof);
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, Some(&cache), NodeId(0), job, 0, 0),
            (Outcome::Data { .. }, Some((_, true)))
        ));

        // A severed fetcher → holder link skips the resident copy (and the
        // disk path behind it): parked, never declared dead.
        link(&c, NodeId(0), NodeId(1), LinkDirection::AToB, LinkOp::Sever);
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, Some(&cache), NodeId(0), job, 0, 0),
            (Outcome::Refused { source_dead: false, .. }, None)
        ));
        link(&c, NodeId(0), NodeId(1), LinkDirection::AToB, LinkOp::Heal);

        // Invalidation exposes the rotten disk bytes again.
        cache.invalidate_node(NodeId(1));
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, Some(&cache), NodeId(0), job, 0, 0),
            (Outcome::Corrupt { source, .. }, None) if source == NodeId(1)
        ));
    }

    #[test]
    fn reregistration_clears_regenerating_and_redirects() {
        let (c, mof) = mini();
        let reg = MofRegistry::new();
        reg.register(0, NodeId(1), mof);
        c.crash_node(NodeId(1));
        reg.mark_regenerating(0);

        // Re-executed map commits on node 2.
        let mut p0 = Vec::new();
        alm_shuffle::codec::encode_into(&mut p0, b"k", b"v");
        let mof2 = write_mof(&c.node(NodeId(2)).fs, "mof/m0r1", &[p0]).unwrap();
        reg.register(0, NodeId(2), mof2);
        assert!(!reg.is_regenerating(0));
        assert!(matches!(
            try_fetch(&c.nodes, &c.links, &reg, None, NodeId(0), JobId(0), 0, 0),
            (Outcome::Data { .. }, Some(_))
        ));
        assert_eq!(reg.mofs_on_node(NodeId(2)), vec![0]);
        assert!(reg.mofs_on_node(NodeId(1)).is_empty());
    }
}
