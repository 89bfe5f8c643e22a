//! Declarative fault-campaign subsystem for the ALM reproduction.
//!
//! The repo has two engines that execute the same recovery policies: the
//! threaded mini-YARN (`alm-runtime`, real bytes, wall time) and the
//! discrete-event simulator (`alm-sim`, paper scale, virtual time). This
//! crate closes the loop between them:
//!
//! | module | role |
//! |---|---|
//! | [`scenario`] | serde scenario spec: task kills, node crashes (timed, progress-triggered), slow nodes, correlated rack failures — lowered to both engines through the shared `alm_types::FaultPlan` |
//! | [`space`]    | seeded randomized sweeps: a [`FaultSpace`] distribution sampled into N reproducible scenarios |
//! | [`campaign`] | campaign runner: scenarios × recovery modes on either engine, runtime outputs checked against the reference oracle |
//! | [`analyze`]  | amplification analyzer: temporal (repeated-failure chains, Figs. 3/10) and spatial (fetch-failure-infected reducers, Fig. 4 / Table II) metrics, JSON + text reports |
//! | [`differential`] | differential validator: the same scenario on both engines at matched scale, asserting invariant agreement |
//! | [`calibrate`]    | magnitude calibration: per-mode normalized-slowdown curves across engines, checked against recorded tolerance bands |
//! | [`triage`]       | ranked root-cause triage: outcomes grouped by failure signature (stuck → amplified → absorbed), ranked by severity × blast radius, each with a remediation |
//! | [`chain`]        | in-memory chain campaigns: the `alm-mem` iterative mode crashed mid-chain on both engines, `mem-amplification-bounded` differential invariant, iterations-lost table |

#![forbid(unsafe_code)]

pub mod analyze;
pub mod calibrate;
pub mod campaign;
pub mod chain;
pub mod differential;
pub mod scenario;
pub mod space;
pub mod triage;

pub use analyze::{analyze_runtime, analyze_sim, DfsAudit, EngineKind, ScenarioOutcome};
pub use calibrate::{
    calibrate, calibration_suite, transient_calibration_suite, validate_calibrated, CalibrationReport,
    ModeCurve, SlowdownPoint, ToleranceBands,
};
pub use campaign::{CampaignReport, RuntimeCampaign, SimCampaign};
pub use chain::{ChainCampaign, ChainDifferentialReport, ChainModeRow};
pub use differential::{validate_at, validate_scenario, DifferentialReport, Invariant, MatchedScale};
pub use scenario::{ChaosFault, ChaosFlap, ChaosScenario, LoweringProfile};
pub use space::{FaultSpace, FaultWeights};
pub use triage::{triage, Severity, TriageGroup, TriageReport};
