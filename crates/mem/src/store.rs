//! `ResidentStore` — the per-node, capacity-bounded RAM store behind the
//! in-memory iterative mode.
//!
//! Entries are MOF partition bytes (admitted by the runtime fetch path via
//! [`alm_runtime::ResidentCache`]) and chain state stripes (put by the
//! chain layer in `crate::chain`). Every entry is CRC-framed with the
//! shuffle wire format ([`alm_shuffle::frame`]) at admission and verified
//! at lookup, so a resident hit carries the same integrity guarantee as a
//! disk read — and, unlike the disk path, is immune to at-rest rot.
//!
//! Capacity is accounted **per node**: each logical node may hold at most
//! `capacity_per_node` bytes of framed entries, mirroring a real per-worker
//! RAM budget. Admission under pressure evicts the least-recently-touched
//! *unpinned* entry on that node; pinned entries (the chain's hot state
//! stripes) are never evicted, only invalidated by a node crash. Eviction
//! is deterministic: a single monotonic touch tick orders entries totally,
//! so identical admit/lookup sequences always evict identically.

use alm_runtime::ResidentCache;
use alm_shuffle::frame::{frame, unframe};
use alm_types::{JobId, NodeId};
use bytes::Bytes;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counters the store accumulates over its lifetime. `bytes_used` is the
/// current framed footprint across all nodes; everything else is monotonic.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreStats {
    /// Lookups served from RAM (frame verified).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries accepted (initial insert or replacement).
    pub admitted: u64,
    /// Offers rejected: entry larger than a node's budget, or the node is
    /// full of pinned entries.
    pub declined: u64,
    /// Entries displaced by LRU pressure.
    pub evicted: u64,
    /// Entries dropped by node-crash invalidation.
    pub invalidated: u64,
    /// Current resident footprint (framed bytes, all nodes).
    pub bytes_used: u64,
}

#[derive(Debug)]
struct Entry {
    node: u32,
    framed: Vec<u8>,
    tick: u64,
    pinned: bool,
}

#[derive(Default)]
struct Inner {
    /// (job, map_index, partition) -> entry. BTreeMap keeps scans ordered,
    /// which together with unique ticks makes eviction deterministic.
    entries: BTreeMap<(u32, u32, u32), Entry>,
    tick: u64,
    stats: StoreStats,
}

impl Inner {
    fn used_on(&self, node: u32) -> u64 {
        self.entries.values().filter(|e| e.node == node).map(|e| e.framed.len() as u64).sum()
    }

    /// Least-recently-touched unpinned entry on `node`, if any.
    fn lru_victim(&self, node: u32) -> Option<(u32, u32, u32)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.node == node && !e.pinned)
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| *k)
    }
}

/// Per-node capacity-bounded resident store. Shared between the chain layer
/// and (for the threaded engine) the runtime's shuffle fetch path.
pub struct ResidentStore {
    capacity_per_node: u64,
    inner: Mutex<Inner>,
}

impl ResidentStore {
    pub fn new(capacity_per_node_bytes: u64) -> ResidentStore {
        ResidentStore { capacity_per_node: capacity_per_node_bytes, inner: Mutex::new(Inner::default()) }
    }

    /// Convenience for the engine adapters: an `Arc`'d store sized from the
    /// chain config.
    pub fn shared(capacity_per_node_bytes: u64) -> Arc<ResidentStore> {
        Arc::new(ResidentStore::new(capacity_per_node_bytes))
    }

    pub fn capacity_per_node(&self) -> u64 {
        self.capacity_per_node
    }

    /// Offer `payload` for residency on `node`. Returns whether it was
    /// admitted; a decline leaves the store unchanged apart from any LRU
    /// evictions already performed while making room.
    pub fn put(
        &self,
        node: NodeId,
        job: JobId,
        map_index: u32,
        partition: u32,
        payload: &[u8],
        pinned: bool,
    ) -> bool {
        let framed = frame(payload);
        let size = framed.len() as u64;
        let mut inner = self.inner.lock();
        if size > self.capacity_per_node {
            inner.stats.declined += 1;
            return false;
        }
        // Replacing an existing entry frees its footprint first.
        inner.entries.remove(&(job.0, map_index, partition));
        while inner.used_on(node.0) + size > self.capacity_per_node {
            match inner.lru_victim(node.0) {
                Some(victim) => {
                    inner.entries.remove(&victim);
                    inner.stats.evicted += 1;
                }
                None => {
                    // Everything resident on this node is pinned.
                    inner.stats.declined += 1;
                    return false;
                }
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert((job.0, map_index, partition), Entry { node: node.0, framed, tick, pinned });
        inner.stats.admitted += 1;
        true
    }

    /// The resident payload and its home node, if cached and its frame
    /// still verifies. Counts a hit/miss and refreshes the LRU tick.
    pub fn get(&self, job: JobId, map_index: u32, partition: u32) -> Option<(NodeId, Bytes)> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (job.0, map_index, partition);
        let Some(entry) = inner.entries.get_mut(&key) else {
            inner.stats.misses += 1;
            return None;
        };
        entry.tick = tick;
        let node = NodeId(entry.node);
        match unframe(&Bytes::from(entry.framed.clone())) {
            Ok(payload) => {
                inner.stats.hits += 1;
                Some((node, payload))
            }
            Err(_) => {
                // RAM should never rot; if it somehow did, the frame check
                // turns the entry into a miss rather than serving bad bytes.
                inner.entries.remove(&key);
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Clear every pin (the chain unpins generation g's stripes before
    /// pinning generation g+1's).
    pub fn unpin_all(&self) {
        for entry in self.inner.lock().entries.values_mut() {
            entry.pinned = false;
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats.clone();
        stats.bytes_used = inner.entries.values().map(|e| e.framed.len() as u64).sum();
        stats
    }
}

impl ResidentCache for ResidentStore {
    fn lookup(&self, job: JobId, map_index: u32, partition: u32) -> Option<(NodeId, Bytes)> {
        self.get(job, map_index, partition)
    }

    fn admit(&self, node: NodeId, job: JobId, map_index: u32, partition: u32, data: &Bytes) {
        // MOF partitions admitted off the fetch path are reclaimable cache,
        // never pinned — only the chain pins (its hot state stripes).
        self.put(node, job, map_index, partition, data, false);
    }

    fn invalidate_node(&self, node: NodeId) -> u64 {
        let mut inner = self.inner.lock();
        let before = inner.entries.len();
        inner.entries.retain(|_, e| e.node != node.0);
        let dropped = (before - inner.entries.len()) as u64;
        inner.stats.invalidated += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_shuffle::frame::FRAME_HEADER_LEN;

    fn job(n: u32) -> JobId {
        JobId(n)
    }

    #[test]
    fn round_trips_with_crc_frame_overhead() {
        let store = ResidentStore::new(1024);
        assert!(store.put(NodeId(0), job(1), 2, 3, b"payload", false));
        let (node, data) = store.get(job(1), 2, 3).expect("resident");
        assert_eq!((node, data.as_ref()), (NodeId(0), b"payload".as_slice()));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.admitted), (1, 0, 1));
        assert_eq!(stats.bytes_used, (FRAME_HEADER_LEN + b"payload".len()) as u64);
        assert!(store.get(job(1), 2, 4).is_none());
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn capacity_is_per_node_and_eviction_is_lru() {
        // Each framed entry is 8 + 12 = 20 bytes; budget fits two per node.
        let store = ResidentStore::new(40);
        assert!(store.put(NodeId(0), job(0), 0, 0, b"aaaaaaaaaaaa", false));
        assert!(store.put(NodeId(0), job(0), 1, 0, b"bbbbbbbbbbbb", false));
        // A different node has its own budget.
        assert!(store.put(NodeId(1), job(0), 2, 0, b"cccccccccccc", false));
        // Touch map 0 so map 1 becomes the LRU victim on node 0.
        assert!(store.get(job(0), 0, 0).is_some());
        assert!(store.put(NodeId(0), job(0), 3, 0, b"dddddddddddd", false));
        assert!(store.get(job(0), 0, 0).is_some(), "recently touched survives");
        assert!(store.get(job(0), 1, 0).is_none(), "LRU entry evicted");
        assert!(store.get(job(0), 2, 0).is_some(), "other node untouched");
        assert_eq!(store.stats().evicted, 1);
    }

    #[test]
    fn pinned_entries_never_evict_and_oversize_declines() {
        let store = ResidentStore::new(40);
        assert!(store.put(NodeId(0), job(0), 0, 0, b"aaaaaaaaaaaa", true));
        assert!(store.put(NodeId(0), job(0), 1, 0, b"bbbbbbbbbbbb", true));
        // Node full of pins: the offer is declined, pins survive.
        assert!(!store.put(NodeId(0), job(0), 2, 0, b"cccccccccccc", false));
        assert!(store.get(job(0), 0, 0).is_some());
        assert!(store.get(job(0), 1, 0).is_some());
        // An entry larger than the whole node budget is declined outright.
        assert!(!store.put(NodeId(1), job(0), 0, 1, &[0u8; 64], false));
        assert_eq!(store.stats().declined, 2);
        // After unpinning, pressure evicts normally.
        store.unpin_all();
        assert!(store.put(NodeId(0), job(0), 2, 0, b"cccccccccccc", false));
        assert_eq!(store.stats().evicted, 1);
    }

    #[test]
    fn node_crash_invalidates_only_that_node() {
        let store = ResidentStore::new(1024);
        store.put(NodeId(0), job(0), 0, 0, b"a", true);
        store.put(NodeId(0), job(0), 1, 0, b"b", false);
        store.put(NodeId(2), job(0), 2, 0, b"c", true);
        assert_eq!(store.invalidate_node(NodeId(0)), 2, "pins do not survive a crash");
        assert_eq!(store.len(), 1);
        assert!(store.get(job(0), 2, 0).is_some());
        assert_eq!(store.stats().invalidated, 2);
    }

    #[test]
    fn replacement_frees_old_footprint() {
        let store = ResidentStore::new(40);
        assert!(store.put(NodeId(0), job(0), 0, 0, b"aaaaaaaaaaaa", false));
        assert!(store.put(NodeId(0), job(0), 1, 0, b"bbbbbbbbbbbb", false));
        // Re-putting an existing key must not trigger eviction of the other.
        assert!(store.put(NodeId(0), job(0), 0, 0, b"AAAAAAAAAAAA", false));
        assert_eq!(store.stats().evicted, 0);
        let (_, data) = store.get(job(0), 0, 0).expect("replaced");
        assert_eq!(data.as_ref(), b"AAAAAAAAAAAA");
        assert!(store.get(job(0), 1, 0).is_some());
    }
}
