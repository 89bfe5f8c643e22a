//! Multi-tenant campaign construction.
//!
//! A [`WarehouseCampaign`] bundles a [`WarehouseSpec`] with a concrete job
//! mix and fault plan; [`WarehouseCampaign::synthetic`] generates the
//! standard mix deterministically from a seed via labelled RNG streams, so
//! the same `(topology, seed)` pair names the same campaign everywhere —
//! tests, benches, CI gates.

use alm_des::rng;
use alm_types::RecoveryMode;
use alm_workloads::WorkloadKind;
use rand::Rng;

use crate::config::{SchedConfig, SchedPolicyKind, TenantSpec};
use crate::engine::{Warehouse, WarehouseFault, WarehouseJob, WarehouseSpec};
use crate::report::WarehouseReport;

use alm_sim::SimJobSpec;

/// A reproducible multi-tenant scenario: topology + job mix + fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct WarehouseCampaign {
    pub spec: WarehouseSpec,
    pub seed: u64,
    pub jobs: Vec<WarehouseJob>,
    pub faults: Vec<WarehouseFault>,
}

impl WarehouseCampaign {
    /// The standard synthetic mix: `tenants` tenants with distinct weights
    /// and equal guaranteed shares, each submitting `jobs_per_tenant` jobs
    /// with log-uniform input sizes (1–64 GB) and staggered arrivals over
    /// a few minutes. Everything derives from labelled streams of `seed`.
    pub fn synthetic(
        nodes: u32,
        tenants: u32,
        jobs_per_tenant: u32,
        policy: SchedPolicyKind,
        mode: RecoveryMode,
        seed: u64,
    ) -> WarehouseCampaign {
        let tenants = tenants.max(1);
        let share = (100 / tenants.max(1)).min(100);
        let specs: Vec<TenantSpec> = (0..tenants)
            // Distinct weights (heaviest tenant first) make fair-vs-FIFO
            // contrasts visible without per-experiment tuning.
            .map(|t| TenantSpec::new(format!("tenant-{t}"), tenants - t, share))
            .collect();
        let mut sizes = rng::stream(seed, "warehouse-input-sizes");
        let mut gaps = rng::stream(seed, "warehouse-arrival-gaps");
        let workloads = [WorkloadKind::Terasort, WorkloadKind::Wordcount, WorkloadKind::SecondarySort];
        let gb = alm_types::units::GB;
        let mut jobs = Vec::new();
        for t in 0..tenants {
            let mut at = 0.0f64;
            for j in 0..jobs_per_tenant {
                // Log-uniform over 1..=64 GB: most jobs small, a few
                // elephants — the mix where policy choice matters.
                let input = (gb as f64 * 2f64.powf(sizes.random_range(0.0..6.0))) as u64;
                let workload = workloads[((t + j) % 3) as usize];
                let reduces = match workload {
                    WorkloadKind::Terasort => 20,
                    WorkloadKind::Wordcount => 4,
                    WorkloadKind::SecondarySort => 8,
                    // The warehouse mix draws from the paper's three
                    // single-job workloads only; iterative kinds are driven
                    // by the `alm-mem` chain layer, not this campaign.
                    WorkloadKind::Pagerank | WorkloadKind::KMeans => 8,
                };
                // Short gaps keep several jobs per tenant in flight, so
                // policies actually arbitrate contention.
                at += gaps.random_range(2.0..20.0);
                jobs.push(WarehouseJob {
                    tenant: t,
                    arrival_secs: at,
                    job: SimJobSpec::new(workload, input, reduces, seed ^ ((t as u64) << 32 | j as u64)),
                });
            }
        }
        WarehouseCampaign {
            spec: WarehouseSpec::warehouse(nodes, SchedConfig::with_policy(policy), specs, mode),
            seed,
            jobs,
            faults: Vec::new(),
        }
    }

    /// Add a fault to the plan (builder style).
    pub fn with_fault(mut self, fault: WarehouseFault) -> WarehouseCampaign {
        self.faults.push(fault);
        self
    }

    /// Run the campaign to completion.
    pub fn run(&self) -> Result<WarehouseReport, String> {
        Ok(Warehouse::new(self.spec.clone(), self.seed, &self.jobs, &self.faults)?.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_reproducible() {
        let a = WarehouseCampaign::synthetic(50, 3, 4, SchedPolicyKind::Fair, RecoveryMode::Baseline, 7);
        let b = WarehouseCampaign::synthetic(50, 3, 4, SchedPolicyKind::Fair, RecoveryMode::Baseline, 7);
        assert_eq!(a, b);
        let c = WarehouseCampaign::synthetic(50, 3, 4, SchedPolicyKind::Fair, RecoveryMode::Baseline, 8);
        assert_ne!(a.jobs, c.jobs);
    }

    #[test]
    fn synthetic_job_mix_is_sane() {
        let c = WarehouseCampaign::synthetic(50, 3, 4, SchedPolicyKind::Fair, RecoveryMode::Baseline, 7);
        assert_eq!(c.jobs.len(), 12);
        assert!(c.spec.validate().is_ok());
        let gb = alm_types::units::GB;
        for j in &c.jobs {
            assert!(j.job.input_bytes >= gb && j.job.input_bytes <= 64 * gb);
            assert!(j.arrival_secs > 0.0);
        }
    }
}
