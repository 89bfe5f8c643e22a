//! `alm-sched`: multi-tenant scheduling over the ALM failure models.
//!
//! The single-job engines answer *how long does recovery take*; this crate
//! answers the warehouse question the paper's motivation opens with: when a
//! node dies in a **shared** cluster, who pays? A tenant whose reducers are
//! preempted by `FetchFailureLimit` re-queues work through the same
//! scheduler every other tenant is waiting on, so amplification escapes the
//! wounded job and becomes a cross-tenant phenomenon — and how far it
//! spreads depends on the scheduling policy in force.
//!
//! Layers:
//!
//! * [`config`] — [`SchedConfig`] / [`TenantSpec`], validated with the
//!   same rest-free destructuring discipline as `YarnConfig`.
//! * [`policy`] — the [`SchedPolicy`] trait and its three implementations:
//!   global [`FifoPolicy`], guaranteed-share [`CapacityPolicy`], weighted
//!   max-min [`FairPolicy`].
//! * [`engine`] — the task-level warehouse DES: slot contention on
//!   1000+-node topologies, node/rack crashes, MOF-loss semantics per
//!   [`alm_types::RecoveryMode`].
//! * [`report`] — per-job and per-tenant results, cross-tenant
//!   amplification, byte-stable canonical JSON.
//! * [`campaign`] — reproducible synthetic campaigns.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod config;
pub mod engine;
pub mod policy;
pub mod report;

pub use campaign::WarehouseCampaign;
pub use config::{validate_tenants, SchedConfig, SchedPolicyKind, TenantSpec};
pub use engine::{Warehouse, WarehouseFault, WarehouseJob, WarehouseSpec};
pub use policy::{CapacityPolicy, FairPolicy, FifoPolicy, SchedPolicy, SchedView, TenantId, TenantView};
pub use report::{JobOutcome, TenantRow, WarehouseReport};
