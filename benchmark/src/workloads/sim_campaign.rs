//! `sim-campaign`: a sampled fault campaign at paper scale on the
//! discrete-event simulator.
//!
//! `SimCampaign::golden_gate(seed, SCENARIOS)` — the constructor behind
//! the golden gate, the figure binaries and calibration — samples
//! scenarios from the §V-shaped fault space and pairs them with the paper
//! testbed (100 GB Terasort, 21 nodes). One op is one simulated job: one
//! scenario under one of the four recovery modes, driven through the same
//! four calls `SimCampaign::run_scenario` makes, each under its own span.
//! Almost all host time is `alm-sim`'s engine over `alm-des`'s
//! `EventQueue`/`FlowPool`; `alm-sched` and the data plane are never
//! entered.

use std::collections::BTreeSet;

use alm_chaos::{
    analyze_sim, CampaignReport, ChaosFault, ChaosScenario, LoweringProfile, ScenarioOutcome, SimCampaign,
};
use alm_shuffle::frame::crc32;
use alm_sim::{ExperimentEnv, SimFault, Simulation};
use alm_types::{AlmConfig, JobId, RecoveryMode};

use crate::clock;
use crate::harness::{Measurement, OpOutcome, Role, Workload};
use crate::metrics::Metrics;
use crate::trace::Recorder;
use crate::{replay, report, stats};

/// Scenarios per run; a cycle is each of them under all four modes.
pub const SCENARIOS: usize = 100;
/// Extra scenarios sampled so that dropping unfinishable ones (see
/// [`leaves_a_worker`]) still leaves [`SCENARIOS`].
const SPARE: usize = 16;

/// Whether any worker survives the scenario. Two sampled `CrashRack`
/// faults can cover both racks of the paper testbed; with every worker
/// dead no recovery mode can finish the job, and the simulator runs to its
/// 50 M event cap (a minute and gigabytes per job). Such a scenario
/// measures the cap, not the engine, so it is not a benchmark op.
fn leaves_a_worker(scenario: &ChaosScenario, profile: &LoweringProfile) -> bool {
    let racks = profile.racks.max(1);
    let crashed: BTreeSet<u32> = scenario
        .faults
        .iter()
        .filter_map(|f| match f {
            ChaosFault::CrashRack { rack, .. } => Some(rack % racks),
            _ => None,
        })
        .collect();
    (crashed.len() as u32) < racks
}

pub struct SimCampaignLoad {
    seed: u64,
    campaign: SimCampaign,
    profile: LoweringProfile,
    scenarios: Vec<ChaosScenario>,
}

pub struct SimDetail {
    pub events: u64,
    pub outcome: ScenarioOutcome,
}

impl SimCampaignLoad {
    pub fn new(seed: u64) -> SimCampaignLoad {
        SimCampaignLoad::sized(seed, SCENARIOS)
    }

    /// The same campaign with `scenarios` sampled scenarios.
    pub fn sized(seed: u64, scenarios: usize) -> SimCampaignLoad {
        let (campaign, sampled) = SimCampaign::golden_gate(seed, scenarios + SPARE);
        let profile = campaign.profile();
        let scenarios: Vec<ChaosScenario> =
            sampled.into_iter().filter(|s| leaves_a_worker(s, &profile)).take(scenarios).collect();
        SimCampaignLoad { seed, campaign, profile, scenarios }
    }

    fn op(&self, index: usize) -> (&ChaosScenario, RecoveryMode) {
        let modes = &self.campaign.modes;
        (&self.scenarios[index / modes.len()], modes[index % modes.len()])
    }

    fn report_of(&self, outcomes: Vec<ScenarioOutcome>) -> CampaignReport {
        let mut report = CampaignReport::new("benchmark-sim-campaign", self.seed);
        report.extend(outcomes);
        report
    }
}

impl Workload for SimCampaignLoad {
    type Detail = SimDetail;

    fn cycle_len(&self) -> usize {
        self.scenarios.len() * self.campaign.modes.len()
    }

    fn run_op(&mut self, index: usize, rec: &mut Recorder) -> (OpOutcome, SimDetail) {
        let (scenario, mode) = self.op(index);
        let env = ExperimentEnv {
            cluster: self.campaign.cluster.clone(),
            yarn: self.campaign.yarn.clone(),
            alm: AlmConfig::with_mode(mode),
        };
        let spec = self.campaign.spec.clone();

        let start = clock::now();
        let faults =
            rec.span("chaos.lower", || SimFault::lower_plan(&scenario.lower(JobId(0), &self.profile)));
        let sim = rec.span("sim.new", || Simulation::new(spec, env, faults));
        let report = rec.span("sim.run", || sim.run());
        let outcome = rec.span("chaos.analyze", || analyze_sim(scenario, mode, &report, &self.profile));
        let secs = clock::secs_since(start);

        // Everything a rerun must reproduce: the event count, the simulated
        // job time to the last bit, and the canonical outcome.
        let canonical = self.report_of(vec![outcome.clone()]).canonical_json();
        let repeatable = format!("{} {} {canonical}", report.events, report.job_secs.to_bits());
        let fingerprint = u64::from(crc32(repeatable.as_bytes()));

        // A simulation that returns has done its job even when the
        // *simulated* job did not finish: without SFM a reducer can exhaust
        // its attempts on fetch failures and take the job with it — the
        // amplification the paper is about, seen in about one sampled
        // scenario in seven hundred. Such outcomes are part of the canonical
        // report; what the op is held to is reproducing it exactly.
        // `sim.jobs_unfinished` counts them.
        let op = OpOutcome { role: Role::Primary, secs, ok: true, work: report.events, fingerprint };
        (op, SimDetail { events: report.events, outcome })
    }
}

fn mode_metric(mode: RecoveryMode) -> &'static str {
    match mode {
        RecoveryMode::Baseline => "sim.mode.baseline.job_s_p50",
        RecoveryMode::Alg => "sim.mode.alg.job_s_p50",
        RecoveryMode::Sfm => "sim.mode.sfm.job_s_p50",
        RecoveryMode::SfmAlg => "sim.mode.sfmalg.job_s_p50",
    }
}

/// Layer metrics from the loop itself, plus the `alm-des` replays this
/// engine sits on. The exact ones (`sim.events`, `sim.report_crc32`,
/// `sim.job_secs_sum`) cover the first cycle — one full campaign — so they
/// depend on the seed and the code only, never on how many cycles the host
/// had time for.
pub fn layer_metrics(m: &Measurement<SimCampaignLoad>, out: &mut Metrics) {
    let first: Vec<_> = m.ops.iter().filter(|o| o.cycle == 0).collect();
    let events: u64 = first.iter().map(|o| o.detail.events).sum();
    assert!(events > 0, "sim-campaign processed no events");
    out.set("sim.events", events as f64);
    out.set("sim.job_secs_sum", first.iter().map(|o| o.detail.outcome.duration_secs).sum());
    out.set("sim.jobs_unfinished", first.iter().filter(|o| !o.detail.outcome.succeeded).count() as f64);
    let report = m.workload.report_of(first.iter().map(|o| o.detail.outcome.clone()).collect());
    out.set("sim.report_crc32", f64::from(crc32(report.canonical_json().as_bytes())));

    for mode in &m.workload.campaign.modes {
        let secs: Vec<f64> =
            m.ops.iter().filter(|o| o.detail.outcome.mode == *mode).map(|o| o.outcome.secs).collect();
        out.set(mode_metric(*mode), stats::median(&secs).unwrap_or(0.0));
    }

    // Host time per event over every op of the loop (`sim.run` is all but
    // a few parts in a thousand of an op), and the share of it a queue
    // hold per event would explain, at the 1k-pending rung.
    let events: u64 = m.ops.iter().map(|o| o.detail.events).sum();
    let secs: f64 = m.ops.iter().map(|o| o.outcome.secs).sum();
    let ns_per_event = secs * 1e9 / events as f64;
    out.set("sim.ns_per_event", ns_per_event);
    out.set("sim.run.share_of_loop", report::share_of_traced_wall(m, "sim.run"));
    replay::des::run(m.workload.seed, out);
    out.set("des.queue.share_of_sim", out.get("des.queue.hold_ns.p1k").unwrap_or(0.0) / ns_per_event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::measure;

    fn exact(m: &Measurement<SimCampaignLoad>) -> (Option<f64>, Option<f64>, Option<f64>) {
        let mut out = Metrics::new();
        layer_metrics(m, &mut out);
        (out.get("sim.events"), out.get("sim.report_crc32"), out.get("sim.job_secs_sum"))
    }

    #[test]
    fn scenarios_that_kill_every_worker_are_dropped() {
        let profile = SimCampaignLoad::sized(1, 1).profile;
        let rack = |rack| ChaosFault::CrashRack { rack, at_secs: 40.0 };
        let one = ChaosScenario::new("one-rack").with(rack(0));
        let same_twice = ChaosScenario::new("same-rack-twice").with(rack(1)).with(rack(1 + profile.racks));
        let both = ChaosScenario::new("both-racks").with(rack(0)).with(rack(1));
        assert!(leaves_a_worker(&one, &profile) && leaves_a_worker(&same_twice, &profile));
        assert!(!leaves_a_worker(&both, &profile));
        // Seed 8's scenario 73 is such a pair; the load skips it and still
        // has its full count.
        let load = SimCampaignLoad::sized(8, SCENARIOS);
        assert_eq!(load.scenarios.len(), SCENARIOS);
        assert!(load.scenarios.iter().all(|s| s.name != "s8-073" && leaves_a_worker(s, &profile)));
    }

    #[test]
    fn a_small_campaign_runs_checks_and_repeats_exactly() {
        let a = measure(|| SimCampaignLoad::sized(7, 2), 0, true).unwrap();
        assert_eq!(a.workload.cycle_len(), 8, "two scenarios under four modes");
        assert!(a.correct(), "{} of {} ops failed", a.failed(), a.attempted());
        assert!(a.ops.iter().all(|o| o.outcome.work > 0 && o.reproduced));
        let (events, crc, secs) = exact(&a);
        assert!(events.is_some_and(|e| e > 0.0) && crc.is_some() && secs.is_some_and(|s| s > 0.0));

        // A second process-independent run of the same seed agrees on every
        // exact counter; another seed does not.
        let b = measure(|| SimCampaignLoad::sized(7, 2), 0, false).unwrap();
        assert_eq!(exact(&b), (events, crc, secs));
        let c = measure(|| SimCampaignLoad::sized(8, 2), 0, false).unwrap();
        assert_ne!(exact(&c).1, crc);
    }
}
