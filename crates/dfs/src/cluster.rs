//! The DFS itself: files → blocks → per-replica checksummed replicas.
//!
//! Every replica holds its *own* CRC32 ([`alm_shuffle::frame::crc32`]) and
//! its own handle on the block's bytes. A write copies no payload: each
//! replica's bytes are a slice of the writer's [`Bytes`], and a file pins
//! the buffer it was written from, so writers hand over exact buffers.
//! Corruption is still a per-replica event — rotting a replica copies that
//! replica alone — so a verified read detects a rotten replica, fails over
//! to a healthy one, and queues the block for re-replication; only when
//! every live replica fails its checksum does the read surface an error —
//! and a *distinct* one ([`DfsError::AllReplicasCorrupt`]) from the
//! no-live-replica case ([`DfsError::BlockUnavailable`]). A background
//! style [`DfsCluster::repair`] pipeline restores the configured
//! replication level after node death or detected rot, rack-aware via the
//! same placement policy writes use, with per-repair byte accounting for
//! the Fig. 13 replication-cost axis.

use alm_shuffle::frame::crc32;
use alm_types::{NodeId, ReplicationLevel};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::placement::choose_replicas;
use crate::topology::Topology;

/// DFS operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    NotFound(String),
    /// A block of the file has no replica on any live node. For MOF-less
    /// recovery this is the "lost data" condition; for ALG it means the
    /// log's replication level was insufficient for the failure.
    BlockUnavailable {
        path: String,
        block: usize,
    },
    /// Every live replica of the block failed its checksum — the data is
    /// *present* but rotten everywhere. Distinct from
    /// [`DfsError::BlockUnavailable`]: the nodes are healthy, the bytes
    /// are not, so retrying against liveness cannot help.
    AllReplicasCorrupt {
        path: String,
        block: usize,
    },
    /// No live node satisfied the placement request at all.
    NoLiveReplicaTarget,
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "dfs: not found: {p}"),
            DfsError::BlockUnavailable { path, block } => {
                write!(f, "dfs: block {block} of {path} has no live replica")
            }
            DfsError::AllReplicasCorrupt { path, block } => {
                write!(f, "dfs: every live replica of block {block} of {path} failed its checksum")
            }
            DfsError::NoLiveReplicaTarget => write!(f, "dfs: no live node to place replicas on"),
        }
    }
}

impl std::error::Error for DfsError {}

/// Metadata returned by a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsFileMeta {
    pub path: String,
    pub len: u64,
    pub num_blocks: usize,
    /// Replica nodes per block.
    pub replicas: Vec<Vec<NodeId>>,
}

/// Repair and verified-read counters, for charging replica management to
/// a scenario's cost ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfsStats {
    /// Payload bytes accepted by successful `write` calls, before
    /// replication — what callers handed the DFS, not what it stored.
    pub bytes_written: u64,
    /// Rotten replicas skipped over by verified reads.
    pub read_failovers: u64,
    /// Blocks the repair pipeline re-replicated.
    pub repaired_blocks: u64,
    /// Payload bytes copied to new replicas by repair (the Fig. 13 axis).
    pub repair_bytes: u64,
}

/// One replica: its host node, the CRC it was stored with, and its bytes —
/// a slice of the written buffer until rot gives it a copy of its own.
/// Validity is computed from the bytes, never cached.
#[derive(Debug, Clone)]
struct Replica {
    node: NodeId,
    crc: u32,
    payload: Bytes,
}

impl Replica {
    /// Whether the replica's bytes have the block's length `len` and the
    /// CRC stored with it.
    fn healthy(&self, len: u64) -> bool {
        self.holds(len, crc32(&self.payload))
    }

    /// Whether the replica has the block's length `len` and, given that
    /// `crc` is the CRC of its bytes, the CRC stored with it.
    fn holds(&self, len: u64, crc: u32) -> bool {
        self.payload.len() as u64 == len && crc == self.crc
    }
}

#[derive(Debug)]
struct Block {
    /// Payload length (every replica holds the same logical bytes).
    len: u64,
    /// The level the block was written at — repair restores *this* level's
    /// replica count, with the same rack-awareness.
    level: ReplicationLevel,
    replicas: Vec<Replica>,
}

#[derive(Debug)]
struct DfsFile {
    blocks: Vec<u64>,
    /// The written buffer, which every replica's payload slices until it
    /// rots: a verified read that served every block from a healthy
    /// replica served exactly these bytes, so it returns this handle.
    data: Bytes,
}

struct Inner {
    files: BTreeMap<String, DfsFile>,
    blocks: BTreeMap<u64, Block>,
    alive: BTreeSet<NodeId>,
    /// Blocks whose replication needs restoring: fed by verified-read
    /// corruption detection and by node death; drained by `repair`.
    repair_queue: BTreeSet<u64>,
    stats: DfsStats,
}

/// A shared, thread-safe simulated HDFS instance.
pub struct DfsCluster {
    topo: Topology,
    block_size: u64,
    replication: u16,
    verify_on_read: bool,
    repair_concurrency: u32,
    inner: Mutex<Inner>,
    next_block: AtomicU64,
}

impl DfsCluster {
    /// A cluster with the default policy: verified reads on, repair
    /// concurrency 2 (the `YarnConfig` defaults).
    pub fn new(topo: Topology, block_size: u64, replication: u16) -> DfsCluster {
        DfsCluster::with_policy(topo, block_size, replication, true, 2)
    }

    /// A cluster with explicit read-verification and repair-concurrency
    /// policy. `verify_on_read: false` is the unsafe pre-checksum
    /// behaviour (reads trust the first live replica), kept as an
    /// experiment ablation.
    pub fn with_policy(
        topo: Topology,
        block_size: u64,
        replication: u16,
        verify_on_read: bool,
        repair_concurrency: u32,
    ) -> DfsCluster {
        let alive = topo.nodes().collect();
        DfsCluster {
            topo,
            block_size: block_size.max(1),
            replication,
            verify_on_read,
            repair_concurrency: repair_concurrency.max(1),
            inner: Mutex::new(Inner {
                files: BTreeMap::new(),
                blocks: BTreeMap::new(),
                alive,
                repair_queue: BTreeSet::new(),
                stats: DfsStats::default(),
            }),
            next_block: AtomicU64::new(0),
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Mark a node dead (crash) or alive (replacement). Death enqueues
    /// every block with a replica on the node for repair; the replicas
    /// themselves stay until repair decides, so a node that returns
    /// before repair runs serves its copies again.
    pub fn set_node_alive(&self, node: NodeId, alive: bool) {
        let mut inner = self.inner.lock();
        if alive {
            inner.alive.insert(node);
        } else {
            inner.alive.remove(&node);
            let hosted: Vec<u64> = inner
                .blocks
                .iter()
                .filter(|(_, b)| b.replicas.iter().any(|r| r.node == node))
                .map(|(id, _)| *id)
                .collect();
            inner.repair_queue.extend(hosted);
        }
    }

    pub fn is_node_alive(&self, node: NodeId) -> bool {
        self.inner.lock().alive.contains(&node)
    }

    /// Write (or overwrite) a file from `writer` at the given replication
    /// level. Data is split into blocks; each block gets its own replica
    /// set per the placement policy, and each replica a slice of `data`
    /// with the block's CRC. No payload byte is copied, and the file keeps
    /// `data`'s whole allocation alive: pass a buffer of exactly the file.
    ///
    /// The overwrite is atomic: every block is staged and placed first,
    /// and the previous version is swapped out only after the whole new
    /// version is placeable. A placement failure leaves the old version
    /// readable and leaks no blocks.
    pub fn write(
        &self,
        path: &str,
        data: Bytes,
        writer: NodeId,
        level: ReplicationLevel,
    ) -> Result<DfsFileMeta, DfsError> {
        // Checksum outside the lock: the CRC is the only per-byte work of a
        // write, and under the lock it would serialise every task's writes.
        let len = data.len() as u64;
        let nblocks = (len.div_ceil(self.block_size)).max(1) as usize;
        let checked: Vec<(Bytes, u32)> = (0..nblocks)
            .map(|i| {
                let start = (i as u64 * self.block_size) as usize;
                let end = (((i + 1) as u64 * self.block_size) as usize).min(data.len());
                let payload = data.slice(start..end);
                let crc = crc32(&payload);
                (payload, crc)
            })
            .collect();

        let mut inner = self.inner.lock();
        if inner.alive.is_empty() {
            return Err(DfsError::NoLiveReplicaTarget);
        }
        let mut staged: Vec<(u64, Block)> = Vec::with_capacity(nblocks);
        let mut replicas_meta = Vec::with_capacity(nblocks);
        for (payload, crc) in checked {
            let id = self.next_block.fetch_add(1, Ordering::Relaxed);
            let nodes = choose_replicas(&self.topo, writer, level, self.replication, &inner.alive, id);
            if nodes.is_empty() {
                // Nothing committed yet: the old version (if any) is intact.
                return Err(DfsError::NoLiveReplicaTarget);
            }
            let block_len = payload.len() as u64;
            let replicas =
                nodes.iter().map(|&node| Replica { node, crc, payload: payload.clone() }).collect();
            replicas_meta.push(nodes);
            staged.push((id, Block { len: block_len, level, replicas }));
        }
        // Every block placed — now swap: drop the previous version's blocks
        // and commit the staged ones.
        if let Some(old) = inner.files.remove(path) {
            for b in old.blocks {
                inner.blocks.remove(&b);
                inner.repair_queue.remove(&b);
            }
        }
        let mut blocks = Vec::with_capacity(nblocks);
        for (id, block) in staged {
            inner.blocks.insert(id, block);
            blocks.push(id);
        }
        inner.files.insert(path.to_string(), DfsFile { blocks, data });
        inner.stats.bytes_written += len;
        Ok(DfsFileMeta { path: path.to_string(), len, num_blocks: nblocks, replicas: replicas_meta })
    }

    /// Read a whole file, verifying each block replica's checksum (unless
    /// verification is off). A rotten replica is skipped — counted as a
    /// read failover and queued for repair — and the next live replica
    /// serves the block. Fails with [`DfsError::AllReplicasCorrupt`] only
    /// when every live replica of a block is rotten, and with
    /// [`DfsError::BlockUnavailable`] when a block has no live replica.
    ///
    /// A verified read returns the written buffer itself, not a copy: a
    /// replica's bytes differ from the written slice only if it rotted,
    /// and a rotten replica fails its CRC, so every block it served was
    /// the written slice. The unverified ablation concatenates what the
    /// first live replicas hold, rotten or not.
    pub fn read(&self, path: &str) -> Result<Bytes, DfsError> {
        let mut inner = self.inner.lock();
        let file = inner.files.get(path).ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        let block_ids = file.blocks.clone();
        let data = file.data.clone();
        let mut unverified = Vec::new();
        for (i, bid) in block_ids.iter().enumerate() {
            let block = inner.blocks.get(bid).expect("file block must exist");
            let mut served = false;
            let mut rotten_live = 0u64;
            let mut any_live = false;
            // The CRC of each distinct slice (pointer and length) this
            // block's replicas hold: replicas that share one slice share
            // its bytes, so it is checksummed once, and each replica's own
            // stored CRC is still compared with it.
            let mut scrubbed: Vec<(&Bytes, u32)> = Vec::new();
            for r in &block.replicas {
                if !inner.alive.contains(&r.node) {
                    continue;
                }
                any_live = true;
                if self.verify_on_read {
                    // Verify every live replica, not just until one passes:
                    // serving from the first clean copy while skipping the
                    // scan would let rot on a later-ordered replica survive
                    // unreported until the healthy copies die. The bytes
                    // are already in memory, so the full scan is a free
                    // read-triggered scrub.
                    let seen = scrubbed
                        .iter()
                        .find(|(p, _)| p.as_ptr() == r.payload.as_ptr() && p.len() == r.payload.len());
                    let crc = match seen {
                        Some(&(_, crc)) => crc,
                        None => {
                            let crc = crc32(&r.payload);
                            scrubbed.push((&r.payload, crc));
                            crc
                        }
                    };
                    if r.holds(block.len, crc) {
                        served = true;
                    } else {
                        rotten_live += 1;
                    }
                } else {
                    // Ablation mode: trust the first live replica blindly.
                    unverified.extend_from_slice(&r.payload);
                    served = true;
                    break;
                }
            }
            if rotten_live > 0 {
                inner.stats.read_failovers += rotten_live;
                inner.repair_queue.insert(*bid);
            }
            match (served, any_live) {
                (true, _) => {}
                (false, true) => {
                    return Err(DfsError::AllReplicasCorrupt { path: path.to_string(), block: i });
                }
                (false, false) => {
                    return Err(DfsError::BlockUnavailable { path: path.to_string(), block: i });
                }
            }
        }
        Ok(if self.verify_on_read { data } else { Bytes::from(unverified) })
    }

    /// Whether every block of `path` is currently readable.
    pub fn is_available(&self, path: &str) -> bool {
        self.read(path).is_ok()
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    /// Whether `path` exists and every block of it still has a replica on
    /// a live node — the NameNode's view from block reports: no byte is
    /// read, so rot is not seen, only loss.
    pub fn has_live_replicas(&self, path: &str) -> bool {
        let inner = self.inner.lock();
        inner.files.get(path).is_some_and(|f| {
            f.blocks.iter().all(|b| inner.blocks[b].replicas.iter().any(|r| inner.alive.contains(&r.node)))
        })
    }

    pub fn delete(&self, path: &str) -> bool {
        let mut inner = self.inner.lock();
        match inner.files.remove(path) {
            None => false,
            Some(f) => {
                for b in f.blocks {
                    inner.blocks.remove(&b);
                    inner.repair_queue.remove(&b);
                }
                true
            }
        }
    }

    /// Paths starting with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner
            .lock()
            .files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of blocks with no live *healthy* replica — per-replica
    /// truth: a block whose only live copies are rotten is lost for
    /// reading even though the bytes exist.
    pub fn lost_block_count(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .blocks
            .values()
            .filter(|b| !b.replicas.iter().any(|r| inner.alive.contains(&r.node) && r.healthy(b.len)))
            .count()
    }

    /// Total payload bytes stored across live, checksum-valid replicas
    /// (capacity accounting). A corrupt replica is repair-pending, not
    /// stored-healthy, so it does not count.
    #[cfg(test)]
    fn stored_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .blocks
            .values()
            .map(|b| {
                let healthy =
                    b.replicas.iter().filter(|r| inner.alive.contains(&r.node) && r.healthy(b.len)).count();
                b.len * healthy as u64
            })
            .sum()
    }

    /// Stored replicas (on any node, live or dead) whose bytes fail
    /// verification — what the `dfs-verified-read` invariant checks is
    /// driven back to zero by repair.
    pub fn corrupt_replica_count(&self) -> usize {
        let inner = self.inner.lock();
        inner.blocks.values().map(|b| b.replicas.iter().filter(|r| !r.healthy(b.len)).count()).sum()
    }

    /// Blocks currently queued for re-replication.
    pub fn repair_queue_len(&self) -> usize {
        self.inner.lock().repair_queue.len()
    }

    /// Verified-read and repair counters.
    pub fn stats(&self) -> DfsStats {
        self.inner.lock().stats
    }

    /// Flip a payload byte in one stored replica of `path`'s block
    /// `block_index` — the fault-injection hook behind
    /// `CorruptTarget::DfsBlock`. Prefers the replica hosted on
    /// `prefer_node` when one lives there, the first replica otherwise.
    /// The rotten replica gets a copy of its own; the others keep sharing
    /// the written bytes. An empty block's stored CRC is rotted instead.
    /// An out-of-range block index clamps to the last block so a sampled
    /// fault always lands once the file exists. Returns false when the
    /// file does not exist yet (the fault stays pending until commit).
    pub fn corrupt_replica(&self, path: &str, block_index: usize, prefer_node: Option<NodeId>) -> bool {
        let mut inner = self.inner.lock();
        let Some(file) = inner.files.get(path) else { return false };
        let Some(&bid) = file.blocks.get(block_index.min(file.blocks.len().saturating_sub(1))) else {
            return false;
        };
        let Some(block) = inner.blocks.get_mut(&bid) else { return false };
        if block.replicas.is_empty() {
            return false;
        }
        let idx = prefer_node.and_then(|n| block.replicas.iter().position(|r| r.node == n)).unwrap_or(0);
        let replica = &mut block.replicas[idx];
        if replica.payload.is_empty() {
            // Empty payload: rot the stored CRC instead.
            replica.crc ^= 0x40 << 24;
        } else {
            // Rot a payload byte: detected as a checksum mismatch, and the
            // unverified-read ablation really does return rotten bytes.
            replica.payload = flip_byte(&replica.payload, 0);
        }
        true
    }

    /// One repair pass: re-replicate up to `repair_concurrency` queued
    /// blocks. Returns the number of queue entries processed (including
    /// currently-unrepairable ones, which are dropped — a block whose
    /// every replica is dead or rotten has no healthy source to copy
    /// from).
    fn repair_step(&self) -> usize {
        let mut inner = self.inner.lock();
        let take: Vec<u64> =
            inner.repair_queue.iter().copied().take(self.repair_concurrency as usize).collect();
        for id in &take {
            inner.repair_queue.remove(id);
        }
        let processed = take.len();
        for id in take {
            self.repair_block(&mut inner, id);
        }
        processed
    }

    /// Drain the repair queue, restoring each block's replication level.
    /// Returns the payload bytes copied to new replicas by this call.
    pub fn repair(&self) -> u64 {
        let before = self.stats().repair_bytes;
        while self.repair_step() > 0 {}
        self.stats().repair_bytes - before
    }

    /// Restore one block's replication: drop dead-node and rotten
    /// replicas, then copy from a healthy live replica onto fresh nodes —
    /// rack-aware relative to the source via the placement policy.
    fn repair_block(&self, inner: &mut Inner, id: u64) {
        let Inner { blocks, alive, stats, .. } = inner;
        let Some(block) = blocks.get_mut(&id) else { return };
        let len = block.len;
        if !block.replicas.iter().any(|r| alive.contains(&r.node) && r.healthy(len)) {
            return; // no healthy live source — unrepairable for now
        }
        block.replicas.retain(|r| alive.contains(&r.node) && r.healthy(len));
        let want = block.level.replica_count(self.replication) as usize;
        if block.replicas.len() >= want {
            return;
        }
        let source = block.replicas[0].clone();
        let holders: BTreeSet<NodeId> = block.replicas.iter().map(|r| r.node).collect();
        let fresh: BTreeSet<NodeId> = alive.difference(&holders).copied().collect();
        let targets = choose_replicas(&self.topo, source.node, block.level, self.replication, &fresh, id);
        let mut copied = 0u64;
        for node in targets {
            if block.replicas.len() >= want {
                break;
            }
            block.replicas.push(Replica { node, ..source.clone() });
            copied += block.len;
        }
        if copied > 0 {
            stats.repaired_blocks += 1;
            stats.repair_bytes += copied;
        }
    }

    /// Live, checksum-valid replica count of every block of `path`, in
    /// block order — what "replication restored" means concretely.
    #[cfg(test)]
    fn healthy_replica_counts(&self, path: &str) -> Option<Vec<usize>> {
        let inner = self.inner.lock();
        let file = inner.files.get(path)?;
        Some(
            file.blocks
                .iter()
                .map(|bid| {
                    let block = inner.blocks.get(bid).expect("file block must exist");
                    block
                        .replicas
                        .iter()
                        .filter(|r| inner.alive.contains(&r.node) && r.healthy(block.len))
                        .count()
                })
                .collect(),
        )
    }

    /// Every replica's bytes of every block of `path`, in block order.
    #[cfg(test)]
    fn replica_payloads(&self, path: &str) -> Vec<Vec<Bytes>> {
        let inner = self.inner.lock();
        inner.files[path]
            .blocks
            .iter()
            .map(|bid| inner.blocks[bid].replicas.iter().map(|r| r.payload.clone()).collect())
            .collect()
    }

    /// Apply `damage` to replica `replica` of `path`'s block `block`.
    #[cfg(test)]
    fn damage_replica(&self, path: &str, block: usize, replica: usize, damage: impl FnOnce(&mut Replica)) {
        let mut inner = self.inner.lock();
        let bid = inner.files[path].blocks[block];
        damage(&mut inner.blocks.get_mut(&bid).expect("file block must exist").replicas[replica]);
    }
}

/// A copy of `bytes` with the byte at `at` flipped.
fn flip_byte(bytes: &Bytes, at: usize) -> Bytes {
    let mut rotten = bytes.to_vec();
    rotten[at] ^= 0x40;
    Bytes::from(rotten)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs(nodes: u32, racks: u32, block: u64) -> DfsCluster {
        DfsCluster::new(Topology::even(nodes, racks), block, 2)
    }

    #[test]
    fn write_read_round_trip_multi_block() {
        let d = dfs(6, 2, 10);
        let data = Bytes::from((0..35u8).collect::<Vec<u8>>());
        let meta = d.write("/out/part-0", data.clone(), NodeId(0), ReplicationLevel::Rack).unwrap();
        assert_eq!(meta.num_blocks, 4);
        assert_eq!(d.read("/out/part-0").unwrap(), data);
        assert!(d.exists("/out/part-0"));
        assert!(!d.exists("/nope"));
    }

    #[test]
    fn empty_file_round_trips() {
        let d = dfs(3, 1, 10);
        d.write("/e", Bytes::new(), NodeId(1), ReplicationLevel::Node).unwrap();
        assert_eq!(d.read("/e").unwrap().len(), 0);
    }

    #[test]
    fn node_level_file_dies_with_writer() {
        let d = dfs(4, 2, 1024);
        d.write("/log", Bytes::from_static(b"progress"), NodeId(1), ReplicationLevel::Node).unwrap();
        assert!(d.is_available("/log"));
        d.set_node_alive(NodeId(1), false);
        assert!(!d.is_available("/log"));
        assert_eq!(d.lost_block_count(), 1);
        assert!(matches!(d.read("/log"), Err(DfsError::BlockUnavailable { .. })));
    }

    #[test]
    fn rack_level_survives_writer_crash() {
        let d = dfs(6, 2, 1024);
        d.write("/log", Bytes::from_static(b"progress"), NodeId(0), ReplicationLevel::Rack).unwrap();
        d.set_node_alive(NodeId(0), false);
        assert!(d.is_available("/log"), "rack replica keeps the log readable");
    }

    #[test]
    fn cluster_level_survives_whole_rack() {
        let d = dfs(6, 2, 1024);
        d.write("/log", Bytes::from_static(b"progress"), NodeId(0), ReplicationLevel::Cluster).unwrap();
        // Kill all of rack 0 (nodes 0, 2, 4).
        for n in [0u32, 2, 4] {
            d.set_node_alive(NodeId(n), false);
        }
        assert!(d.is_available("/log"));
        // Rack-level placement would NOT survive this.
        let d2 = dfs(6, 2, 1024);
        d2.write("/log", Bytes::from_static(b"progress"), NodeId(0), ReplicationLevel::Rack).unwrap();
        for n in [0u32, 2, 4] {
            d2.set_node_alive(NodeId(n), false);
        }
        assert!(!d2.is_available("/log"));
    }

    #[test]
    fn overwrite_replaces_content_and_frees_blocks() {
        let d = dfs(3, 1, 4);
        d.write("/f", Bytes::from_static(b"aaaaaaaa"), NodeId(0), ReplicationLevel::Node).unwrap();
        let before = d.stored_bytes();
        d.write("/f", Bytes::from_static(b"bb"), NodeId(0), ReplicationLevel::Node).unwrap();
        assert_eq!(&d.read("/f").unwrap()[..], b"bb");
        assert!(d.stored_bytes() < before);
    }

    #[test]
    fn bytes_written_counts_payload_accepted_not_replicas_stored() {
        let d = dfs(6, 2, 10);
        d.write("/f", Bytes::from(vec![0u8; 25]), NodeId(0), ReplicationLevel::Rack).unwrap();
        d.write("/f", Bytes::from(vec![1u8; 5]), NodeId(0), ReplicationLevel::Node).unwrap();
        assert_eq!(d.stats().bytes_written, 30, "an overwrite is written again; replication is not");
        d.set_node_alive(NodeId(1), false);
        assert!(d.write("/g", Bytes::from_static(b"lost"), NodeId(1), ReplicationLevel::Node).is_err());
        assert_eq!(d.stats().bytes_written, 30, "a refused write wrote nothing");
    }

    #[test]
    fn has_live_replicas_sees_loss_but_not_rot() {
        let d = dfs(6, 2, 10);
        assert!(!d.has_live_replicas("/f"), "no such file");
        let meta = d.write("/f", Bytes::from(vec![7u8; 25]), NodeId(0), ReplicationLevel::Cluster).unwrap();
        d.corrupt_replica("/f", 0, None);
        assert!(d.has_live_replicas("/f"), "metadata only: rot is the verified read's business");
        let holders = &meta.replicas[2];
        d.set_node_alive(holders[0], false);
        assert!(d.has_live_replicas("/f"), "one replica of the last block survives");
        d.set_node_alive(holders[1], false);
        assert!(!d.has_live_replicas("/f"), "the last block has no live replica");
    }

    #[test]
    fn delete_frees_space() {
        let d = dfs(3, 1, 4);
        d.write("/f", Bytes::from_static(b"xxxx"), NodeId(0), ReplicationLevel::Node).unwrap();
        assert!(d.delete("/f"));
        assert!(!d.delete("/f"));
        assert_eq!(d.stored_bytes(), 0);
        assert!(matches!(d.read("/f"), Err(DfsError::NotFound(_))));
    }

    #[test]
    fn list_prefix() {
        let d = dfs(3, 1, 1024);
        for p in ["/logs/r1/0", "/logs/r1/1", "/logs/r2/0", "/out/x"] {
            d.write(p, Bytes::new(), NodeId(0), ReplicationLevel::Node).unwrap();
        }
        assert_eq!(d.list("/logs/r1/"), vec!["/logs/r1/0", "/logs/r1/1"]);
        assert_eq!(d.list("/logs/").len(), 3);
    }

    #[test]
    fn replicated_bytes_accounting() {
        let d = dfs(6, 2, 10);
        d.write("/f", Bytes::from(vec![0u8; 25]), NodeId(0), ReplicationLevel::Rack).unwrap();
        // 3 blocks (10+10+5), 2 replicas each.
        assert_eq!(d.stored_bytes(), 50);
    }

    #[test]
    fn all_nodes_dead_rejects_writes() {
        let d = dfs(2, 1, 1024);
        d.set_node_alive(NodeId(0), false);
        d.set_node_alive(NodeId(1), false);
        assert_eq!(
            d.write("/f", Bytes::from_static(b"x"), NodeId(0), ReplicationLevel::Node),
            Err(DfsError::NoLiveReplicaTarget)
        );
    }

    #[test]
    fn verified_read_fails_over_and_repair_restores_replication() {
        let d = dfs(6, 2, 10);
        let data = Bytes::from((0..25u8).collect::<Vec<u8>>());
        d.write("/f", data.clone(), NodeId(0), ReplicationLevel::Rack).unwrap();
        assert!(d.corrupt_replica("/f", 1, Some(NodeId(0))));
        assert_eq!(d.corrupt_replica_count(), 1);

        // The read never surfaces rotten bytes: it fails over past the
        // corrupt replica and queues the block for repair.
        assert_eq!(d.read("/f").unwrap(), data);
        assert_eq!(d.stats().read_failovers, 1);
        assert_eq!(d.repair_queue_len(), 1);
        // Per-replica accounting: the rotten copy is repair-pending, not
        // stored-healthy (3 blocks x 2 replicas x payload, minus block 1's
        // rotten 10-byte copy).
        assert_eq!(d.stored_bytes(), 50 - 10);

        let copied = d.repair();
        assert_eq!(copied, 10, "one 10-byte block re-replicated once");
        assert_eq!(d.corrupt_replica_count(), 0);
        assert_eq!(d.stats().repaired_blocks, 1);
        assert_eq!(d.healthy_replica_counts("/f").unwrap(), vec![2, 2, 2]);
        assert_eq!(d.stored_bytes(), 50);
        assert_eq!(d.read("/f").unwrap(), data);
    }

    #[test]
    fn corrupting_every_replica_is_a_checksum_failure_not_unavailable() {
        let d = dfs(6, 2, 1024);
        let meta = d.write("/f", Bytes::from_static(b"payload"), NodeId(0), ReplicationLevel::Rack).unwrap();
        assert_eq!(d.healthy_replica_counts("/f").unwrap(), vec![2]);
        for &n in &meta.replicas[0] {
            assert!(d.corrupt_replica("/f", 0, Some(n)));
        }
        assert_eq!(d.corrupt_replica_count(), 2, "both replicas rotten");
        assert!(matches!(d.read("/f"), Err(DfsError::AllReplicasCorrupt { block: 0, .. })));
        assert_eq!(d.lost_block_count(), 1, "no healthy live replica left");
    }

    #[test]
    fn repair_restores_replication_after_node_death() {
        let d = dfs(6, 2, 1024);
        let data = Bytes::from_static(b"progress");
        let meta = d.write("/log", data.clone(), NodeId(0), ReplicationLevel::Rack).unwrap();
        let holders = meta.replicas[0].clone();
        d.set_node_alive(holders[1], false);
        assert_eq!(d.repair_queue_len(), 1, "node death queues hosted blocks");

        let copied = d.repair();
        assert_eq!(copied, data.len() as u64);
        assert_eq!(d.healthy_replica_counts("/log").unwrap(), vec![2]);
        // The new replica is real: kill the surviving original holder and
        // the file must still be readable from the repaired copy.
        d.set_node_alive(holders[0], false);
        d.repair();
        assert_eq!(d.read("/log").unwrap(), data);
    }

    #[test]
    fn repair_skips_unrepairable_blocks() {
        let d = dfs(4, 2, 1024);
        d.write("/log", Bytes::from_static(b"x"), NodeId(1), ReplicationLevel::Node).unwrap();
        d.set_node_alive(NodeId(1), false);
        assert_eq!(d.repair(), 0, "no healthy live source to copy from");
        assert_eq!(d.repair_queue_len(), 0, "unrepairable entries are dropped, not spun on");
        assert_eq!(d.lost_block_count(), 1);
        // The dead node's replica was not discarded: the node returning
        // makes the block readable again.
        d.set_node_alive(NodeId(1), true);
        assert!(d.is_available("/log"));
    }

    #[test]
    fn failed_overwrite_keeps_old_version_and_leaks_nothing() {
        let d = dfs(6, 2, 10);
        let data = Bytes::from((0..25u8).collect::<Vec<u8>>());
        d.write("/f", data.clone(), NodeId(1), ReplicationLevel::Rack).unwrap();
        let before = d.stored_bytes();

        // Node-level overwrite from a dead writer: placement fails.
        d.set_node_alive(NodeId(0), false);
        assert_eq!(
            d.write("/f", Bytes::from_static(b"new"), NodeId(0), ReplicationLevel::Node),
            Err(DfsError::NoLiveReplicaTarget)
        );

        // The old version is untouched and nothing leaked.
        assert_eq!(d.read("/f").unwrap(), data);
        assert_eq!(d.stored_bytes(), before, "failed overwrite must not change stored bytes");
    }

    #[test]
    fn unverified_reads_return_rotten_bytes() {
        // The ablation: with verification off, corruption flows straight
        // through to the reader — the bug this module exists to fix.
        let d = DfsCluster::with_policy(Topology::even(6, 2), 1024, 2, false, 2);
        let data = Bytes::from_static(b"precious output bytes");
        d.write("/f", data.clone(), NodeId(0), ReplicationLevel::Rack).unwrap();
        d.corrupt_replica("/f", 0, Some(NodeId(0)));
        let got = d.read("/f").unwrap();
        assert_ne!(got, data, "unverified read serves the rotten replica");
        assert_eq!(d.stats().read_failovers, 0);
    }

    /// Whether `part`'s bytes lie inside `whole`'s allocation.
    fn shares(whole: &Bytes, part: &Bytes) -> bool {
        let w = whole.as_ptr_range();
        let p = part.as_ptr_range();
        w.start <= p.start && p.end <= w.end
    }

    #[test]
    fn writes_and_verified_reads_copy_no_payload() {
        let d = dfs(6, 2, 10);
        let data = Bytes::from((0..35u8).collect::<Vec<u8>>());
        d.write("/f", data.clone(), NodeId(0), ReplicationLevel::Rack).unwrap();
        let payloads = d.replica_payloads("/f");
        assert_eq!(payloads.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 2, 2, 2]);
        assert!(payloads.iter().flatten().all(|p| shares(&data, p)), "every replica is a slice of the write");

        let got = d.read("/f").unwrap();
        assert_eq!(got, data);
        assert_eq!(got.as_ptr(), data.as_ptr(), "a verified read returns the written buffer");

        // A rotten replica is skipped, not served, so the read still
        // returns the written buffer.
        assert!(d.corrupt_replica("/f", 1, Some(NodeId(0))));
        let got = d.read("/f").unwrap();
        assert_eq!(d.stats().read_failovers, 1);
        assert_eq!(got, data);
        assert_eq!(got.as_ptr(), data.as_ptr());
    }

    #[test]
    fn damaged_bytes_at_every_offset_are_never_served() {
        const BLOCK: usize = 8;
        let data = Bytes::from((0..20u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect::<Vec<u8>>());
        let flip: fn(&Bytes, usize) -> Bytes = flip_byte;
        let truncate: fn(&Bytes, usize) -> Bytes = |b, at| b.slice(..at);
        for replication in [2u16, 1] {
            for block in 0..data.len().div_ceil(BLOCK) {
                let block_len = BLOCK.min(data.len() - block * BLOCK);
                for replica in 0..replication as usize {
                    for at in 0..block_len {
                        for (how, damage) in [("flip", flip), ("truncate", truncate)] {
                            let case =
                                format!("{how} replica {replica} of block {block} at {at}, R={replication}");
                            let d = DfsCluster::new(Topology::even(6, 2), BLOCK as u64, replication);
                            d.write("/f", data.clone(), NodeId(0), ReplicationLevel::Rack).unwrap();
                            d.damage_replica("/f", block, replica, |r| r.payload = damage(&r.payload, at));
                            assert_eq!(d.corrupt_replica_count(), 1, "{case}");

                            let read = d.read("/f");
                            assert_eq!(d.stats().read_failovers, 1, "{case}");
                            assert_eq!(d.repair_queue_len(), 1, "{case}");
                            if replication == 1 {
                                assert_eq!(
                                    read,
                                    Err(DfsError::AllReplicasCorrupt { path: "/f".into(), block }),
                                    "{case}"
                                );
                            } else {
                                assert_eq!(read.as_ref().map(|b| b.as_ptr()), Ok(data.as_ptr()), "{case}");
                                assert_eq!(read, Ok(data.clone()), "{case}");
                            }
                            let payloads = d.replica_payloads("/f");
                            for (b, replicas) in payloads.iter().enumerate() {
                                for (r, p) in replicas.iter().enumerate() {
                                    if (b, r) != (block, replica) {
                                        assert!(
                                            shares(&data, p),
                                            "{case}: untouched replica {r} of block {b}"
                                        );
                                    }
                                }
                            }

                            if replication == 2 {
                                d.repair();
                                assert_eq!(d.corrupt_replica_count(), 0, "{case}");
                                assert_eq!(d.healthy_replica_counts("/f").unwrap(), vec![2; 3], "{case}");
                                let payloads = d.replica_payloads("/f");
                                assert!(payloads.iter().flatten().all(|p| shares(&data, p)), "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rot_of_an_empty_block_is_its_stored_crc() {
        for replication in [2u16, 1] {
            let d = DfsCluster::new(Topology::even(6, 2), 8, replication);
            d.write("/e", Bytes::new(), NodeId(0), ReplicationLevel::Rack).unwrap();
            assert!(d.corrupt_replica("/e", 0, None));
            assert_eq!(d.corrupt_replica_count(), 1, "R={replication}");
            let read = d.read("/e");
            assert_eq!(d.stats().read_failovers, 1, "R={replication}");
            if replication == 1 {
                assert_eq!(read, Err(DfsError::AllReplicasCorrupt { path: "/e".into(), block: 0 }));
            } else {
                assert_eq!(read, Ok(Bytes::new()));
                d.repair();
                assert_eq!(d.corrupt_replica_count(), 0);
            }
        }
    }

    #[test]
    fn rot_of_a_stored_crc_on_a_shared_slice_charges_that_replica_alone() {
        // The three replicas of a block are one slice of the write, so a
        // verified read checksums that slice once; it must still compare
        // the result with each replica's own stored CRC.
        let data = Bytes::from((0..20u8).collect::<Vec<u8>>());
        for replica in 0..3 {
            let d = DfsCluster::new(Topology::even(6, 2), 8, 3);
            let meta = d.write("/f", data.clone(), NodeId(0), ReplicationLevel::Rack).unwrap();
            assert_eq!(meta.replicas[1].len(), 3);
            let shared = &d.replica_payloads("/f")[1];
            assert!(shared.iter().all(|p| p.as_ptr() == shared[0].as_ptr() && p.len() == 8));
            d.damage_replica("/f", 1, replica, |r| r.crc ^= 1);

            let read = d.read("/f");
            assert_eq!(read.as_ref().map(|b| b.as_ptr()), Ok(data.as_ptr()), "replica {replica}");
            assert_eq!(d.stats().read_failovers, 1, "replica {replica}");
            assert_eq!(d.repair_queue_len(), 1, "replica {replica}");
            assert_eq!(d.healthy_replica_counts("/f").unwrap(), vec![3, 2, 3], "replica {replica}");
            d.repair();
            assert_eq!(d.healthy_replica_counts("/f").unwrap(), vec![3; 3], "replica {replica}");
        }
    }

    #[test]
    fn repair_is_rack_aware_for_cluster_level_blocks() {
        let d = DfsCluster::new(Topology::even(8, 2), 1024, 2);
        let meta = d.write("/f", Bytes::from_static(b"data"), NodeId(0), ReplicationLevel::Cluster).unwrap();
        let holders = meta.replicas[0].clone();
        assert!(!d.topology().same_rack(holders[0], holders[1]), "cluster level crosses racks");
        // Kill the off-rack holder; repair must pick a fresh off-rack node
        // relative to the surviving source.
        d.set_node_alive(holders[1], false);
        d.repair();
        let counts = d.healthy_replica_counts("/f").unwrap();
        assert_eq!(counts, vec![2]);
        // Read back fine even after the whole source rack dies: the
        // repaired replica must have landed off-rack.
        let src_rack_peers: Vec<NodeId> =
            d.topology().rack_peers(holders[0]).into_iter().chain([holders[0]]).collect();
        for n in src_rack_peers {
            d.set_node_alive(n, false);
        }
        assert!(d.is_available("/f"), "repair preserved cross-rack durability");
    }
}
