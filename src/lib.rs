//! # ALM-MapReduce
//!
//! A from-scratch Rust reproduction of *"Cracking Down MapReduce Failure
//! Amplification through Analytics Logging and Migration"* (Wang, Fu, Yu —
//! IPDPS 2015): the **ALM** fault-tolerance framework — **A**nalytics
//! **L**ogging (ALG) and Speculative Fast **M**igration (SFM) — together
//! with everything it runs on, built from scratch:
//!
//! * a real MapReduce data plane ([`shuffle`]): map-side sort buffer with
//!   spills, IFile-like segments, MOFs, k-way MPQ merging, reduce-side
//!   fetch buffers;
//! * a mini-YARN threaded runtime ([`runtime`]) executing real jobs with
//!   real bytes, fault injection, and both baseline and ALM recovery;
//! * a discrete-event cluster simulator ([`sim`], on the [`des`] kernel)
//!   reproducing every figure and table of the paper's evaluation at
//!   paper scale (21 nodes, 10–320 GB inputs) in milliseconds;
//! * the paper's three workloads ([`workloads`]): Terasort, Wordcount,
//!   Secondarysort, each with an executable and an analytic form;
//! * a block-based DFS with rack-aware replica placement ([`dfs`]).
//!
//! ## Quick start
//!
//! Run a Wordcount job on an in-process cluster, inject a ReduceTask
//! failure, and let analytics logging resume it:
//!
//! ```
//! use std::sync::Arc;
//! use alm_mapreduce::prelude::*;
//!
//! let cluster = Arc::new(MiniCluster::for_tests(4));
//! let job = JobDef::new(
//!     JobId(1),
//!     Arc::new(Wordcount::new(2000, 20)),
//!     2,  // maps
//!     2,  // reduces
//!     42, // seed
//!     AlmConfig::with_mode(RecoveryMode::SfmAlg),
//! );
//! let faults = FaultPlan::kill_task(TaskId::reduce(JobId(1), 0), 0.5);
//! let report = run_job(cluster.clone(), job.clone(), faults);
//! assert!(report.succeeded);
//! assert_eq!(report.failures.len(), 1); // the injected OOM, recovered
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `alm-core` | the paper's contribution: ALG + SFM |
//! | [`runtime`] | `alm-runtime` | threaded mini-YARN engine |
//! | [`sim`] | `alm-sim` | discrete-event experiment engine |
//! | [`shuffle`] | `alm-shuffle` | the real data plane |
//! | [`dfs`] | `alm-dfs` | simulated HDFS |
//! | [`workloads`] | `alm-workloads` | Terasort / Wordcount / Secondarysort |
//! | [`des`] | `alm-des` | DES kernel (clock, events, flow pools) |
//! | [`types`] | `alm-types` | ids, configs (Table I), failure vocabulary |
//! | [`metrics`] | `alm-metrics` | series, timelines, experiment reports |
//! | [`chaos`] | `alm-chaos` | declarative fault campaigns + differential cross-engine validation |
//! | [`sched`] | `alm-sched` | multi-tenant warehouse scheduler (FIFO / capacity / fair) over the DES |
//! | [`mem`] | `alm-mem` | in-memory iterative mode: resident MOF cache + partition-stable job chains |

#![forbid(unsafe_code)]

pub use alm_chaos as chaos;
pub use alm_core as core;
pub use alm_des as des;
pub use alm_dfs as dfs;
pub use alm_mem as mem;
pub use alm_metrics as metrics;
pub use alm_runtime as runtime;
pub use alm_sched as sched;
pub use alm_shuffle as shuffle;
pub use alm_sim as sim;
pub use alm_types as types;
pub use alm_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use alm_chaos::{
        CampaignReport, ChainCampaign, ChainDifferentialReport, ChaosFault, ChaosScenario, FaultSpace,
        RuntimeCampaign, SimCampaign,
    };
    pub use alm_core::{
        collective_merge, recover_state, schedule_recovery, AnalyticsLogger, ExecMode, LogPaths, LogRecord,
        PartialOutput, Participant, PolicyCtx, RecoveredState, SchedAction, StageLog,
    };
    pub use alm_mem::{
        run_chain, ChainReport, CrashPlan, IterativeSpec, ResidentStore, RuntimeChainEngine, SimChainEngine,
    };
    pub use alm_runtime::am::run_job;
    pub use alm_runtime::{FaultPlan, JobDef, JobReport, MiniCluster};
    pub use alm_sched::{
        SchedConfig, SchedPolicyKind, TenantSpec, WarehouseCampaign, WarehouseFault, WarehouseReport,
    };
    pub use alm_sim::{ExperimentEnv, SimJobSpec, Simulation};
    pub use alm_types::{
        AlmConfig, AttemptId, ClusterSpec, FailureKind, JobId, MemConfig, MemMode, NodeId, RecoveryMode,
        ReplicationLevel, TaskId, YarnConfig,
    };
    pub use alm_workloads::{
        JobSpec, KMeans, Pagerank, Record, SecondarySort, Terasort, Wordcount, Workload, WorkloadKind,
    };
}
