//! A simulated HDFS.
//!
//! The paper's framework leans on HDFS in three places: job input splits,
//! committed reduce output, and — new in ALG — reduce-stage analytics logs,
//! whose durability/overhead trade-off is governed by the *replication
//! level* (node / rack / cluster, §III-B and Fig. 13). This crate provides
//! a block-based DFS with:
//!
//! * a rack [`topology::Topology`],
//! * a rack-aware [`placement`] policy implementing the three levels,
//! * a [`cluster::DfsCluster`] storing real bytes per block — each replica
//!   holding its *own* CRC32 and a slice of the writer's buffer, so a write
//!   copies no payload and a file pins the buffer it was written from —
//!   with node-liveness-dependent readability: crash a node and every
//!   block whose only replicas lived there becomes unreadable — the
//!   condition a recovering ReduceTask (and ALG's HDFS log lookup) runs
//!   into,
//! * a verified read path that detects a rotten replica, fails over to a
//!   healthy one, and queues re-replication, plus a [`DfsCluster::repair`]
//!   pipeline restoring the configured replication level after node death
//!   or corruption, with per-repair byte accounting ([`DfsStats`]).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod placement;
pub mod topology;

pub use cluster::{DfsCluster, DfsError, DfsFileMeta, DfsStats};
pub use placement::choose_replicas;
pub use topology::Topology;
