//! Shared vocabulary for the ALM MapReduce reproduction.
//!
//! This crate holds the types every other crate speaks: task/job/node
//! identifiers, task kinds and reduce phases, the YARN configuration
//! surface (the modelled part of the paper's Table I), failure descriptions (the input of the
//! enhanced recovery scheduling policy, Algorithm 1), fault injection and
//! the attempt trace, over which every amplification count is defined.
//!
//! Nothing in here performs I/O or simulation; it is pure data so that the
//! real threaded runtime (`alm-runtime`) and the discrete-event simulator
//! (`alm-sim`) can share one set of definitions.

#![forbid(unsafe_code)]

pub mod config;
pub mod failure;
pub mod id;
pub mod state;
pub mod trace;
pub mod units;

pub use config::{AlmConfig, ClusterSpec, MemConfig, MemMode, RecoveryMode, ReplicationLevel, YarnConfig};
pub use failure::{
    CorruptTarget, FailureKind, FailureReport, Fault, FaultPlan, FaultTimeline, FlapSchedule, LinkChange,
    LinkDirection, LinkOp, LinkState, PartitionWindow, Trigger,
};
pub use id::{rack_members, rack_of, AttemptId, JobId, NodeId, RackId, TaskId};
pub use state::{ReducePhase, TaskKind};
pub use trace::{Failure, FailureCounts, RunCounters, RunReport, Trace, TraceEvent, TraceKind};
