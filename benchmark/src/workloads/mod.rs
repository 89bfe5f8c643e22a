//! The five workloads. Each builds its inputs from the seed and exposes a
//! fixed cycle of ops to the harness; see the README for why each is here
//! and which layers it does and does not enter.

pub mod runtime_jobs;
pub mod sim_campaign;
pub mod warehouse;

/// Workload names, as `--workload` and `BENCHMARK.json` spell them.
pub const NAMES: &[&str] = &["sim-campaign", "warehouse", "runtime-clean", "runtime-alg", "runtime-crash"];
