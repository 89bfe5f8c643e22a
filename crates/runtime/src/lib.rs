//! An in-process mini-YARN that executes real MapReduce jobs on threads.
//!
//! Logical nodes (each with its own in-memory local store) host MapTask and
//! ReduceTask attempts running as real threads over real bytes: map-side
//! sort/spill, MOF commits, shuffle fetches with retry/failure semantics,
//! factor merges, MPQ reduce — plus the ALM framework's analytics logging
//! and speculative fast migration from `alm-core`.
//!
//! Failure semantics mirror YARN's (§II-A "Fault resiliency"):
//!
//! * a **task failure** (injected OOM) kills the attempt; the AM relaunches;
//! * a **node crash** wipes the node's store (spills, MOFs, local logs) and
//!   silently kills its threads; the AM only notices after the liveness
//!   timeout;
//! * a reducer that exhausts its fetch retries against a registered-but-
//!   unreachable MOF **fails itself** and reports the bad source — the
//!   mechanism that, under baseline recovery, produces the paper's temporal
//!   and spatial failure amplification.
//!
//! The per-experiment clock is real time; configs from
//! `YarnConfig::scaled_for_tests` shrink detection timeouts to milliseconds
//! so whole failure/recovery cycles finish in tens of milliseconds.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the threaded engine: real time and thread interleaving are its point, so neither its hash \
              order nor its clock reads can leak into anything that is expected to replay bit-for-bit"
)]

pub mod am;
pub mod cluster;
pub mod events;
pub mod job;
pub mod maptask;
pub mod reducetask;
pub mod registry;
pub mod report;
pub mod resident;

pub use alm_types::failure::{Fault, FaultPlan};
pub use am::JobRunner;
pub use cluster::{LinkTable, MiniCluster, NodeHandle};
pub use events::TaskEvent;
pub use job::JobDef;
pub use report::{FailureEvent, JobReport, LogRecoveryEvent};
pub use resident::ResidentCache;
