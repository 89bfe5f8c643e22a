//! `warehouse`: thousands of jobs from three tenants on a 1000-node shared
//! cluster, with a rack lost two minutes in, on the `alm-sched` engine.
//!
//! One op is one whole campaign (`Warehouse::new` + `run`), reported per
//! simulated job. This is the other user of `alm-des` — `EventQueue` only,
//! no `FlowPool` — it bypasses `alm-sim` entirely, and at this job count
//! the per-event cost is visibly higher than at the 24-job scale
//! `BENCH_sched.json` guards, which is the growth later issues target.

use alm_sched::{SchedPolicyKind, Warehouse, WarehouseCampaign, WarehouseFault};
use alm_shuffle::frame::crc32;
use alm_types::RecoveryMode;

use crate::clock;
use crate::harness::{Measurement, OpOutcome, Role, Workload};
use crate::metrics::Metrics;
use crate::trace::Recorder;
use crate::{replay, report};

pub const NODES: u32 = 1000;
pub const TENANTS: u32 = 3;
/// Jobs per tenant in the measured campaigns.
pub const JOBS_PER_TENANT: u32 = 700;
/// Jobs per tenant in the small campaign `sched.scaling_ratio` compares
/// against.
pub const SMALL_JOBS_PER_TENANT: u32 = 70;

/// The standard synthetic mix under fair scheduling and full ALM recovery,
/// losing rack 3 at t = 120 s so the recovery paths are on the measured
/// path.
pub fn campaign(jobs_per_tenant: u32, seed: u64) -> WarehouseCampaign {
    WarehouseCampaign::synthetic(
        NODES,
        TENANTS,
        jobs_per_tenant,
        SchedPolicyKind::Fair,
        RecoveryMode::SfmAlg,
        seed,
    )
    .with_fault(WarehouseFault::CrashRack { rack: 3, at_secs: 120.0 })
}

pub struct WarehouseLoad {
    seed: u64,
    jobs_per_tenant: u32,
    campaign: WarehouseCampaign,
}

pub struct WarehouseDetail {
    pub events: u64,
    pub report_crc32: u32,
}

impl WarehouseLoad {
    pub fn new(seed: u64) -> WarehouseLoad {
        WarehouseLoad::sized(seed, JOBS_PER_TENANT)
    }

    /// The same campaign with `jobs_per_tenant` jobs per tenant.
    pub fn sized(seed: u64, jobs_per_tenant: u32) -> WarehouseLoad {
        WarehouseLoad { seed, jobs_per_tenant, campaign: campaign(jobs_per_tenant, seed) }
    }
}

/// Run one campaign through the engine's two public entry points, each
/// under its own span. Returns `(host seconds, events, succeeded, crc32 of
/// the canonical report)`.
pub fn run_campaign(c: &WarehouseCampaign, rec: &mut Recorder) -> (f64, u64, bool, u32) {
    let spec = c.spec.clone();
    let start = clock::now();
    let built = rec.span("sched.new", || Warehouse::new(spec, c.seed, &c.jobs, &c.faults));
    let report = match built {
        Ok(w) => rec.span("sched.run", || w.run()),
        // A spec the engine rejects is a failed op, not a harness crash.
        Err(_) => return (clock::secs_since(start), 0, false, 0),
    };
    let secs = clock::secs_since(start);
    (secs, report.events, report.succeeded(), crc32(report.canonical_json().as_bytes()))
}

impl Workload for WarehouseLoad {
    type Detail = WarehouseDetail;

    /// One campaign is three seconds of engine time; a cycle of one keeps
    /// the loop's overshoot past `--seconds` to that.
    fn cycle_len(&self) -> usize {
        1
    }

    fn run_op(&mut self, _index: usize, rec: &mut Recorder) -> (OpOutcome, WarehouseDetail) {
        let (secs, events, ok, report_crc32) = run_campaign(&self.campaign, rec);
        let fingerprint = events << 32 | u64::from(report_crc32);
        let outcome = OpOutcome { role: Role::Primary, secs, ok, work: events, fingerprint };
        (outcome, WarehouseDetail { events, report_crc32 })
    }

    fn jobs_per_op(&self) -> f64 {
        f64::from(TENANTS * self.jobs_per_tenant)
    }
}

/// Small campaigns timed for `sched.ns_per_event.small`.
const SMALL_RUNS: usize = 5;

/// Layer metrics from the loop, the small-campaign comparison and the
/// `alm-des` queue replay. The exact counters are one campaign's.
pub fn layer_metrics(m: &Measurement<WarehouseLoad>, out: &mut Metrics) {
    let seed = m.workload.seed;
    let first = &m.ops[0].detail;
    assert!(first.events > 0, "warehouse processed no events");
    out.set("sched.events", first.events as f64);
    out.set("sched.report_crc32", f64::from(first.report_crc32));
    out.set("sched.run.share_of_loop", report::share_of_traced_wall(m, "sched.run"));

    // Per-event cost at this job count against the same mix at a tenth of
    // it: 1.0 would mean the cost of an event does not depend on how many
    // jobs the cluster holds.
    let ns_per_event = |runs: &[(f64, u64)]| {
        runs.iter().map(|(secs, _)| secs).sum::<f64>() * 1e9 / runs.iter().map(|(_, e)| e).sum::<u64>() as f64
    };
    let large: Vec<(f64, u64)> = m.ops.iter().map(|o| (o.outcome.secs, o.detail.events)).collect();
    let small_campaign = campaign(SMALL_JOBS_PER_TENANT, seed);
    let small: Vec<(f64, u64)> = (0..SMALL_RUNS)
        .map(|_| {
            let (secs, events, ok, _) = run_campaign(&small_campaign, &mut Recorder::new());
            assert!(ok && events > 0, "the small campaign must run");
            (secs, events)
        })
        .collect();
    out.set("sched.ns_per_event", ns_per_event(&large));
    out.set("sched.ns_per_event.small", ns_per_event(&small));
    out.set("sched.scaling_ratio", ns_per_event(&large) / ns_per_event(&small));
    replay::des::run(seed, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::measure;

    #[test]
    fn a_small_campaign_runs_checks_and_repeats_exactly() {
        let exact = |m: &Measurement<WarehouseLoad>| {
            let mut out = Metrics::new();
            layer_metrics(m, &mut out);
            assert!(out.get("sched.scaling_ratio").is_some_and(|r| r > 0.0));
            (out.get("sched.events"), out.get("sched.report_crc32"))
        };
        let a = measure(|| WarehouseLoad::sized(7, 6), 0, true).unwrap();
        assert!(a.correct(), "{} of {} ops failed", a.failed(), a.attempted());
        assert_eq!(a.workload.jobs_per_op(), 18.0);
        assert!(a.ops.iter().all(|o| o.outcome.work > 0 && o.reproduced));
        let b = measure(|| WarehouseLoad::sized(7, 6), 0, true).unwrap();
        assert_eq!(exact(&a), exact(&b));
        assert!(exact(&a).0.is_some_and(|e| e > 0.0));
    }
}
