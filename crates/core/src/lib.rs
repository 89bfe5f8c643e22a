//! The ALM framework — the paper's contribution.
//!
//! Two cooperating techniques crack down MapReduce failure amplification:
//!
//! * [`alg`] — **Analytics LogGing** (§III): a non-intrusive, task-level,
//!   asynchronous logging mechanism that snapshots the key progress of a
//!   running ReduceTask (Fig. 6's stage-specific record formats) so a
//!   recovering attempt resumes instead of restarting. Shuffle/merge-stage
//!   logs go to the node-local store; reduce-stage logs and flushed reduce
//!   output go to the DFS with a configurable replication level.
//!
//! * [`sfm`] — **Speculative Fast Migration** (§IV): the enhanced recovery
//!   scheduling policy (Algorithm 1) that proactively re-executes MapTasks
//!   from failed nodes, migrates ReduceTasks, and recovers them with
//!   **Fast Collective Merging** — every participant node pre-merges its
//!   local segments into a Local-MPQ and streams the merged run to the
//!   recovering ReduceTask's Global-MPQ, overlapping shuffle, merge and
//!   reduce entirely in memory.
//!
//! Both techniques are engine-agnostic: the threaded runtime
//! (`alm-runtime`) executes them over real bytes, the discrete-event
//! simulator (`alm-sim`) drives the same policy logic with modelled costs.
//! Both engines run one ApplicationMaster, [`am::Am`]: it keeps the
//! attempts and the run queues, applies the attempt budget, asks the
//! policy and places what it decides; each engine only executes launches.

#![forbid(unsafe_code)]

pub mod alg;
pub mod am;
pub mod sfm;

pub use alg::logger::PartialOutput;
pub use alg::logger::{AnalyticsLogger, LogPaths};
pub use alg::record::{LogRecord, MpqLogEntry, StageLog};
pub use alg::recovery::{
    find_latest_log, find_latest_log_with_report, recover_attempt, recover_state, recover_state_with_report,
    RecoveredState, RecoveryReport,
};
pub use am::{Am, Command, Slots};
pub use sfm::fcm::{collective_merge, spawn_participants, ChannelRun, FcmPipeline, FcmStats, Participant};
pub use sfm::policy::{schedule_recovery, ExecMode, PolicyCtx, SchedAction};
