//! Warehouse-scale multi-tenant chaos campaigns.
//!
//! Bridges the declarative [`ChaosScenario`] vocabulary onto the
//! `alm-sched` warehouse engine: node/rack crash faults lower to
//! [`WarehouseFault`]s, every scenario runs under every recovery mode on a
//! shared multi-tenant cluster, and the results reduce to per-tenant
//! impact rows — slowdown under the fault vs. the same campaign clean —
//! that plug into [`CampaignReport`](crate::CampaignReport) alongside the
//! single-job outcomes.
//!
//! This is the cross-tenant half of the amplification story: the single-
//! job campaigns measure how far a fault spreads *within* a job; these
//! measure how far it spreads *between* tenants, through nothing but slot
//! contention with the wounded tenant's recovery work.

use alm_sched::{SchedPolicyKind, WarehouseCampaign, WarehouseFault, WarehouseReport};
use alm_types::RecoveryMode;
use serde::Serialize;

use crate::scenario::{ChaosFault, ChaosScenario};

/// Lower a scenario's faults to warehouse vocabulary. Only node and rack
/// crashes exist at warehouse granularity — task kills, slow nodes, link
/// partitions and data corruption are intra-job phenomena the single-job
/// engines cover — so everything else lowers to nothing. Returns the
/// lowered faults and how many were dropped.
pub fn lower_warehouse(scenario: &ChaosScenario) -> (Vec<WarehouseFault>, usize) {
    let mut out = Vec::new();
    let mut dropped = 0usize;
    for f in &scenario.faults {
        match f {
            ChaosFault::CrashNode { node, at_secs } => {
                out.push(WarehouseFault::CrashNode { node: *node, at_secs: *at_secs });
            }
            ChaosFault::CrashRack { rack, at_secs } => {
                out.push(WarehouseFault::CrashRack { rack: *rack, at_secs: *at_secs });
            }
            ChaosFault::KillMap { .. }
            | ChaosFault::KillReduce { .. }
            | ChaosFault::CrashNodeAtReduceProgress { .. }
            | ChaosFault::SlowNode { .. }
            | ChaosFault::PartitionLink { .. }
            | ChaosFault::DegradedLink { .. }
            | ChaosFault::CorruptData { .. } => dropped += 1,
        }
    }
    (out, dropped)
}

/// One tenant's fate in one faulted warehouse scenario, against its clean
/// baseline on the identical campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantImpactRow {
    pub scenario: String,
    pub mode: RecoveryMode,
    pub policy: String,
    pub tenant: String,
    pub jobs: u32,
    pub finished: u32,
    /// Task-failure records this tenant's jobs accumulated (0 = the fault
    /// never touched it directly).
    pub failures: u32,
    /// `FetchFailureLimit` preemptions — spatial amplification records.
    pub fetch_failures: u32,
    /// Mean slowdown (latency / ideal) under the fault.
    pub mean_slowdown: f64,
    /// Mean slowdown of the same tenant in the same campaign with no
    /// faults: the queueing-only baseline.
    pub clean_mean_slowdown: f64,
    pub p99_latency_secs: f64,
}

impl TenantImpactRow {
    /// Fault-attributable slowdown: how much slower than the clean run of
    /// the *same* contended campaign. 1.0 = the fault cost this tenant
    /// nothing; meaningful even for tenants with `failures == 0`, where it
    /// is pure cross-tenant amplification.
    pub fn amplification(&self) -> f64 {
        if self.clean_mean_slowdown <= 0.0 || self.mean_slowdown < 0.0 {
            return -1.0;
        }
        self.mean_slowdown / self.clean_mean_slowdown
    }
}

/// A multi-tenant campaign: one synthetic warehouse per `(scenario, mode)`
/// pair, plus one clean run per mode for the slowdown baselines.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WarehouseChaosCampaign {
    pub nodes: u32,
    pub tenants: u32,
    pub jobs_per_tenant: u32,
    pub policy: SchedPolicyKind,
    pub modes: Vec<RecoveryMode>,
    pub seed: u64,
}

impl WarehouseChaosCampaign {
    /// The campaign behind one `(mode)` cell, before faults.
    fn campaign(&self, mode: RecoveryMode) -> WarehouseCampaign {
        WarehouseCampaign::synthetic(
            self.nodes,
            self.tenants,
            self.jobs_per_tenant,
            self.policy,
            mode,
            self.seed,
        )
    }

    /// Run one scenario under one mode, returning the faulted report and
    /// its per-tenant impact rows (clean baseline recomputed internally).
    pub fn run_scenario(
        &self,
        scenario: &ChaosScenario,
        mode: RecoveryMode,
    ) -> Result<(WarehouseReport, Vec<TenantImpactRow>), String> {
        let (faults, _) = lower_warehouse(scenario);
        let mut faulted = self.campaign(mode);
        faulted.faults = faults;
        let report = faulted.run()?;
        let clean = self.campaign(mode).run()?;
        let clean_rows = clean.per_tenant_rows();
        let rows = report
            .per_tenant_rows()
            .into_iter()
            .enumerate()
            .map(|(i, r)| TenantImpactRow {
                scenario: scenario.name.clone(),
                mode,
                policy: report.policy.clone(),
                tenant: r.tenant,
                jobs: r.jobs,
                finished: r.finished,
                failures: r.failures,
                fetch_failures: r.fetch_failures,
                mean_slowdown: r.mean_slowdown,
                clean_mean_slowdown: clean_rows.get(i).map(|c| c.mean_slowdown).unwrap_or(-1.0),
                p99_latency_secs: r.p99_latency_secs,
            })
            .collect();
        Ok((report, rows))
    }

    /// Every scenario under every mode; rows accumulate in (scenario,
    /// mode, tenant) order.
    pub fn run(&self, scenarios: &[ChaosScenario]) -> Result<Vec<TenantImpactRow>, String> {
        let mut out = Vec::new();
        for s in scenarios {
            for &m in &self.modes {
                let (_, rows) = self.run_scenario(s, m)?;
                out.extend(rows);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack_crash(name: &str, rack: u32, at: f64) -> ChaosScenario {
        ChaosScenario::new(name).with(ChaosFault::CrashRack { rack, at_secs: at })
    }

    #[test]
    fn lowering_keeps_crashes_drops_intra_job_faults() {
        let s = ChaosScenario::new("mixed")
            .with(ChaosFault::CrashNode { node: 3, at_secs: 10.0 })
            .with(ChaosFault::KillReduce { index: 0, at_progress: 0.5 })
            .with(ChaosFault::SlowNode { node: 1, at_secs: 5.0, factor: 2.0 });
        let (faults, dropped) = lower_warehouse(&s);
        assert_eq!(faults, vec![WarehouseFault::CrashNode { node: 3, at_secs: 10.0 }]);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn campaign_produces_per_tenant_rows_with_clean_baselines() {
        let c = WarehouseChaosCampaign {
            nodes: 40,
            tenants: 3,
            jobs_per_tenant: 3,
            policy: SchedPolicyKind::Fair,
            modes: vec![RecoveryMode::Baseline, RecoveryMode::SfmAlg],
            seed: 11,
        };
        let rows = c.run(&[rack_crash("rack1", 1, 60.0)]).expect("campaign");
        // 1 scenario x 2 modes x 3 tenants.
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.scenario, "rack1");
            assert_eq!(r.policy, "fair");
            assert!(r.finished > 0, "{r:?}");
            assert!(r.clean_mean_slowdown >= 1.0, "{r:?}");
            // Faulted can never beat clean on the same campaign.
            assert!(r.mean_slowdown >= r.clean_mean_slowdown - 1e-9, "{r:?}");
            assert!(r.amplification() >= 1.0 - 1e-9, "{r:?}");
        }
        // The crash must actually hurt someone.
        assert!(rows.iter().any(|r| r.failures > 0));
    }

    #[test]
    fn impact_rows_are_deterministic() {
        let c = WarehouseChaosCampaign {
            nodes: 30,
            tenants: 2,
            jobs_per_tenant: 2,
            policy: SchedPolicyKind::Fifo,
            modes: vec![RecoveryMode::Alg],
            seed: 5,
        };
        let a = c.run(&[rack_crash("r", 0, 30.0)]).expect("campaign");
        let b = c.run(&[rack_crash("r", 0, 30.0)]).expect("campaign");
        assert_eq!(a, b);
    }
}
