//! Discrete-event cluster experiment engine.
//!
//! Models the paper's 21-node testbed (§V-A) in virtual time so that every
//! figure and table of the evaluation — 100 GB Terasort runs, node crashes
//! with 70-second detection timeouts, replication sweeps to 320 GB — runs
//! in milliseconds of real time while preserving the *mechanisms* the
//! results depend on: bandwidth contention (equal-share NIC/disk/uplink
//! pools from `alm-des`), fetch-retry treadmills against lost MOFs,
//! liveness-timeout failure detection, and the recovery policies of
//! `alm-core` (shared verbatim with the threaded runtime).
//!
//! | module | role |
//! |---|---|
//! | [`spec`] | experiment inputs: job spec and environment (faults arrive as `alm_types::FaultPlan`) |
//! | [`quantities`] | derived byte/cost quantities from the workload model |
//! | [`engine`] | the simulation itself: nodes, tasks, AM, failure handling |
//! | [`trace`] | outputs: completion times, failures, progress timelines |
//! | [`experiment`] | per-figure runners used by the bench harness |

#![forbid(unsafe_code)]

pub mod engine;
pub mod experiment;
pub mod quantities;
pub mod spec;
pub mod trace;

pub use engine::Simulation;
pub use quantities::Quantities;
pub use spec::{ExperimentEnv, SimFault, SimJobSpec};
pub use trace::SimReport;
