//! Campaign execution: scenarios × recovery modes × engines.
//!
//! A campaign takes declarative [`ChaosScenario`]s and executes each under
//! every recovery mode of interest, on the discrete-event simulator
//! ([`SimCampaign`], paper scale, virtual time) and/or the threaded
//! runtime ([`RuntimeCampaign`], real bytes — every successful run's
//! committed output is checked against the `alm_workloads::reference`
//! oracle). Outcomes accumulate into a [`CampaignReport`] that renders as
//! text/markdown and serialises to JSON.

use std::cell::OnceCell;
use std::sync::Arc;

use alm_metrics::TextTable;
use alm_runtime::am::run_job;
use alm_runtime::{JobDef, MiniCluster};
use alm_sim::experiment::run_one;
use alm_sim::{ExperimentEnv, SimJobSpec};
use alm_types::{AlmConfig, ClusterSpec, JobId, RecoveryMode, YarnConfig};
use alm_workloads::reference::{canonicalize, reference_output};
use alm_workloads::{Record, Workload};
use serde::Serialize;

use crate::analyze::{analyze_runtime, analyze_sim, DfsAudit, EngineKind, ScenarioOutcome};
use crate::scenario::{ChaosScenario, LoweringProfile};
use crate::space::FaultSpace;

/// Simulator-side campaign configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimCampaign {
    pub spec: SimJobSpec,
    pub cluster: ClusterSpec,
    pub yarn: YarnConfig,
    pub modes: Vec<RecoveryMode>,
}

impl SimCampaign {
    /// Paper testbed (21 nodes / 2 racks, Table I) around a job spec.
    pub fn paper(spec: SimJobSpec, modes: Vec<RecoveryMode>) -> SimCampaign {
        SimCampaign { spec, cluster: ClusterSpec::default(), yarn: YarnConfig::default(), modes }
    }

    pub fn profile(&self) -> LoweringProfile {
        LoweringProfile::simulator(&self.cluster)
    }

    /// The fixed-seed golden-gate campaign behind the `campaign_gate` CI
    /// regression gate: `n` scenarios sampled from a §V-shaped
    /// [`FaultSpace`] at `seed`, to be run at paper scale under all four
    /// recovery modes. Deterministic in `(seed, n)`; any policy change
    /// that shifts amplification/failure counts shows up as a diff
    /// against the checked-in golden report.
    pub fn golden_gate(seed: u64, n: usize) -> (SimCampaign, Vec<ChaosScenario>) {
        let spec = SimJobSpec::paper(alm_workloads::WorkloadKind::Terasort, seed);
        let campaign = SimCampaign::paper(
            spec.clone(),
            vec![RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg],
        );
        let profile = campaign.profile();
        // Same map-count derivation as the simulator's quantity model:
        // one map per DFS block of input.
        let num_maps = spec.input_bytes.div_ceil(campaign.yarn.dfs_block_size).max(1) as u32;
        let scenarios = FaultSpace::paper_like(profile.workers, profile.racks, num_maps, spec.num_reduces)
            .sample(n, seed);
        (campaign, scenarios)
    }

    /// Run one scenario under one mode.
    pub fn run_scenario(&self, scenario: &ChaosScenario, mode: RecoveryMode) -> ScenarioOutcome {
        let env = ExperimentEnv {
            cluster: self.cluster.clone(),
            yarn: self.yarn.clone(),
            alm: AlmConfig::with_mode(mode),
        };
        let profile = self.profile();
        let report = run_one(&self.spec, &env, scenario.lower(JobId(0), &profile));
        analyze_sim(scenario, mode, &report, &profile)
    }

    /// Every scenario under every mode.
    pub fn run(&self, scenarios: &[ChaosScenario]) -> Vec<ScenarioOutcome> {
        let mut out = Vec::with_capacity(scenarios.len() * self.modes.len());
        for s in scenarios {
            for &m in &self.modes {
                out.push(self.run_scenario(s, m));
            }
        }
        out
    }
}

/// Threaded-runtime campaign configuration (test-scaled, real bytes).
#[derive(Clone)]
pub struct RuntimeCampaign {
    pub workload: Arc<dyn Workload>,
    pub num_maps: u32,
    pub num_reduces: u32,
    pub seed: u64,
    /// Cluster size; `MiniCluster::for_tests` supplies 2 racks and the
    /// millisecond-scale `YarnConfig`.
    pub nodes: u32,
    /// Scenario-seconds compress to this many wall milliseconds.
    pub ms_per_scenario_sec: f64,
    pub modes: Vec<RecoveryMode>,
}

impl RuntimeCampaign {
    /// The lowering profile for this campaign's cluster. The rack count is
    /// single-sourced from [`MiniCluster::test_racks`] — the same policy
    /// [`MiniCluster::for_tests`] builds its topology with — so rack-fault
    /// lowering and the actual cluster can never disagree on membership.
    pub fn profile(&self) -> LoweringProfile {
        LoweringProfile::runtime(self.nodes, MiniCluster::test_racks(self.nodes), self.ms_per_scenario_sec)
    }

    fn oracle(&self) -> Vec<Record> {
        canonicalize(&reference_output(self.workload.as_ref(), self.num_maps, self.num_reduces, self.seed))
    }

    fn committed(cluster: &MiniCluster, job: &JobDef) -> Option<Vec<Record>> {
        let mut all = Vec::new();
        for r in 0..job.num_reduces {
            let data = cluster.dfs.read(&job.output_path(r)).ok()?;
            let mut off = 0;
            while let Some((k, v, next)) = alm_shuffle::codec::decode_at(&data, off).ok()? {
                all.push(Record::new(k.to_vec(), v.to_vec()));
                off = next;
            }
        }
        all.sort_unstable();
        Some(all)
    }

    /// Reduce partitions whose committed output file is present and fully
    /// readable on the DFS. This is *commit status*, not record presence:
    /// a legitimately empty partition (its key range got no records)
    /// counts as committed, while a committed file whose blocks all lost
    /// their live replicas does not.
    pub fn committed_partitions(cluster: &MiniCluster, job: &JobDef) -> u32 {
        (0..job.num_reduces).filter(|r| cluster.dfs.is_available(&job.output_path(*r))).count() as u32
    }

    /// Run one scenario under one mode, verifying committed bytes against
    /// the reference oracle.
    pub fn run_scenario(&self, scenario: &ChaosScenario, mode: RecoveryMode) -> ScenarioOutcome {
        self.run_checked(scenario, mode, &OnceCell::new())
    }

    /// [`Self::run_scenario`] against an oracle shared by several runs: it
    /// is computed at the first successful run and reused by the rest.
    pub(crate) fn run_checked(
        &self,
        scenario: &ChaosScenario,
        mode: RecoveryMode,
        oracle: &OnceCell<Vec<Record>>,
    ) -> ScenarioOutcome {
        let cluster = Arc::new(MiniCluster::for_tests(self.nodes));
        let mut alm = AlmConfig::with_mode(mode);
        alm.logging_interval_ms = 1; // log eagerly at test scale
        let job =
            JobDef::new(JobId(0), self.workload.clone(), self.num_maps, self.num_reduces, self.seed, alm);
        // Lower against the topology the cluster actually has, not a
        // parallel reconstruction of it.
        let profile = LoweringProfile::runtime(self.nodes, cluster.racks(), self.ms_per_scenario_sec);
        let plan = scenario.lower(job.id, &profile);
        let report = run_job(cluster.clone(), job.clone(), plan);
        // The oracle comparison reads every committed partition through the
        // verified path: rotten replicas are detected here, charged as read
        // failovers, and queued for repair...
        let verified = report.succeeded
            && Self::committed(&cluster, &job)
                .is_some_and(|got| got == *oracle.get_or_init(|| self.oracle()));
        // ...then the background repair pipeline runs to quiescence, and
        // commit status is counted on the healed DFS.
        cluster.dfs.repair();
        let partitions = Self::committed_partitions(&cluster, &job);
        let stats = cluster.dfs.stats();
        let dfs = DfsAudit {
            read_failovers: stats.read_failovers as u32,
            repair_bytes: stats.repair_bytes,
            corrupt_replicas: cluster.dfs.corrupt_replica_count() as u32,
        };
        analyze_runtime(scenario, mode, &report, &profile, verified, partitions, dfs)
    }

    /// Every scenario under every mode, all checked against one oracle.
    pub fn run(&self, scenarios: &[ChaosScenario]) -> Vec<ScenarioOutcome> {
        let oracle = OnceCell::new();
        let mut out = Vec::with_capacity(scenarios.len() * self.modes.len());
        for s in scenarios {
            for &m in &self.modes {
                out.push(self.run_checked(s, m, &oracle));
            }
        }
        out
    }
}

/// Accumulated campaign results + renderers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignReport {
    pub name: String,
    pub seed: u64,
    pub outcomes: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    pub fn new(name: impl Into<String>, seed: u64) -> CampaignReport {
        CampaignReport { name: name.into(), seed, outcomes: Vec::new() }
    }

    pub fn extend(&mut self, outcomes: Vec<ScenarioOutcome>) -> &mut Self {
        self.outcomes.extend(outcomes);
        self
    }

    fn modes(&self) -> Vec<(EngineKind, RecoveryMode)> {
        let mut keys: Vec<(EngineKind, RecoveryMode)> =
            self.outcomes.iter().map(|o| (o.engine, o.mode)).collect();
        keys.sort_by_key(|(e, m)| (*e, *m as u8));
        keys.dedup();
        keys
    }

    fn of(&self, engine: EngineKind, mode: RecoveryMode) -> impl Iterator<Item = &ScenarioOutcome> {
        self.outcomes.iter().filter(move |o| o.engine == engine && o.mode == mode)
    }

    /// Per engine × mode aggregate (the Table II shape, campaign-wide).
    pub fn mode_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!("campaign {} (seed {})", self.name, self.seed),
            &["engine", "mode", "scenarios", "ok", "spatial>0", "spatial total", "temporal max", "mean secs"],
        );
        for (engine, mode) in self.modes() {
            let runs: Vec<&ScenarioOutcome> = self.of(engine, mode).collect();
            let n = runs.len().max(1);
            let mean = runs.iter().map(|o| o.duration_secs).sum::<f64>() / n as f64;
            t.row(&[
                engine.to_string(),
                format!("{mode:?}"),
                runs.len().to_string(),
                runs.iter().filter(|o| o.succeeded).count().to_string(),
                runs.iter().filter(|o| o.spatial_amplification > 0).count().to_string(),
                runs.iter().map(|o| o.spatial_amplification).sum::<usize>().to_string(),
                runs.iter().map(|o| o.temporal_amplification).max().unwrap_or(0).to_string(),
                format!("{mean:.1}"),
            ]);
        }
        t
    }

    /// Scenarios where `baseline` shows spatial amplification, paired with
    /// `treated`'s count on the same scenario — the paper's headline
    /// contrast (Table II: YARN amplifies, SFM does not).
    pub fn spatial_contrast(
        &self,
        engine: EngineKind,
        baseline: RecoveryMode,
        treated: RecoveryMode,
    ) -> Vec<(String, usize, usize)> {
        self.of(engine, baseline)
            .filter(|b| b.spatial_amplification > 0)
            .filter_map(|b| {
                self.of(engine, treated)
                    .find(|t| t.scenario == b.scenario)
                    .map(|t| (b.scenario.clone(), b.spatial_amplification, t.spatial_amplification))
            })
            .collect()
    }

    /// Ranked root-cause triage over every outcome in the campaign (see
    /// [`crate::triage`]): failure signatures grouped and ordered by
    /// severity × blast radius, each with a remediation.
    pub fn triage(&self) -> crate::triage::TriageReport {
        crate::triage::triage(&self.outcomes)
    }

    pub fn render_text(&self) -> String {
        self.mode_table().render_text()
    }

    pub fn render_markdown(&self) -> String {
        self.mode_table().render_markdown()
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign report serialisation cannot fail")
    }

    /// Canonical golden-file form: wall-clock-sensitive fields are
    /// stripped (`duration_secs` varies with host load on the runtime
    /// engine and with float formatting), keys render in a fixed order,
    /// and every kept value is an integer, bool or string. What stays is
    /// exactly the policy-sensitive surface — success, injected/total
    /// failure counts, spatial/temporal amplification, FCM attempts,
    /// map attempts, node-loss and corruption-refetch counts and (when
    /// present) bounded-recovery / oracle verdicts — so a recovery-policy regression
    /// diffs against the checked-in golden report while a slow CI host
    /// does not.
    pub fn canonical_json(&self) -> String {
        use serde_json::Value;
        let outcomes: Vec<Value> = self
            .outcomes
            .iter()
            .map(|o| {
                let mut fields = vec![
                    ("scenario", Value::Str(o.scenario.clone())),
                    ("engine", Value::Str(o.engine.to_string())),
                    ("mode", Value::Str(format!("{:?}", o.mode))),
                    ("succeeded", Value::Bool(o.succeeded)),
                    ("injected_faults", Value::U64(o.injected_faults as u64)),
                    ("total_failures", Value::U64(o.total_failures as u64)),
                    ("spatial_amplification", Value::U64(o.spatial_amplification as u64)),
                    ("temporal_amplification", Value::U64(o.temporal_amplification as u64)),
                    ("fcm_attempts", Value::U64(o.fcm_attempts as u64)),
                    ("map_attempts", Value::U64(o.map_attempts as u64)),
                    ("node_loss_failures", Value::U64(o.node_loss_failures as u64)),
                    ("corruption_refetches", Value::U64(o.corruption_refetches as u64)),
                ];
                // Gray-link drops appear only when a run actually crossed a
                // degraded link, so golden files from campaigns without
                // DegradedLink faults stay byte-identical.
                if o.degraded_drops > 0 {
                    fields.push(("degraded_drops", Value::U64(o.degraded_drops as u64)));
                }
                if let Some(b) = o.recoveries_bounded {
                    fields.push(("recoveries_bounded", Value::Bool(b)));
                }
                if let Some(v) = o.output_verified {
                    fields.push(("output_verified", Value::Bool(v)));
                }
                if let Some(p) = o.partitions_committed {
                    fields.push(("partitions_committed", Value::U64(p as u64)));
                }
                // DFS replica-management counters appear only when a run
                // actually exercised failover/repair, so golden files from
                // campaigns without DfsBlock faults stay byte-identical.
                if o.dfs_read_failovers > 0 {
                    fields.push(("dfs_read_failovers", Value::U64(o.dfs_read_failovers as u64)));
                }
                if o.dfs_repair_bytes > 0 {
                    fields.push(("dfs_repair_bytes", Value::U64(o.dfs_repair_bytes)));
                }
                if o.dfs_corrupt_replicas > 0 {
                    fields.push(("dfs_corrupt_replicas", Value::U64(o.dfs_corrupt_replicas as u64)));
                }
                // Chain/resident counters appear only for in-memory chain
                // campaigns, so single-job golden files stay byte-identical.
                if o.chain_iteration > 0 {
                    fields.push(("chain_iteration", Value::U64(o.chain_iteration as u64)));
                }
                if o.resident_hits > 0 {
                    fields.push(("resident_hits", Value::U64(o.resident_hits)));
                }
                Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            })
            .collect();
        let root = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("outcomes".to_string(), Value::Array(outcomes)),
        ];
        serde_json::to_string_pretty(&Value::Object(root))
            .expect("canonical report serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::EngineKind;
    use crate::scenario::ChaosFault;
    use alm_types::units::GB;
    use alm_workloads::{Terasort, WorkloadKind};

    fn kill_reduce(name: &str, index: u32, p: f64) -> ChaosScenario {
        ChaosScenario::new(name).with(ChaosFault::KillReduce { index, at_progress: p })
    }

    #[test]
    fn sim_campaign_runs_scenarios_across_modes() {
        let campaign = SimCampaign::paper(
            SimJobSpec::new(WorkloadKind::Terasort, GB, 4, 11),
            vec![RecoveryMode::Baseline, RecoveryMode::SfmAlg],
        );
        let outcomes = campaign.run(&[kill_reduce("k0", 0, 0.5), kill_reduce("k1", 1, 0.2)]);
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(o.succeeded, "{o:?}");
            assert_eq!(o.engine, EngineKind::Simulator);
            assert_eq!(o.injected_faults, 1);
            assert!(o.total_failures >= 1, "the injected kill must be recorded: {o:?}");
        }
    }

    #[test]
    fn runtime_campaign_verifies_output_against_oracle() {
        let campaign = RuntimeCampaign {
            workload: Arc::new(Terasort::new(600)),
            num_maps: 3,
            num_reduces: 2,
            seed: 42,
            nodes: 4,
            ms_per_scenario_sec: 5.0,
            modes: vec![RecoveryMode::Baseline],
        };
        // Both runs are checked against the one oracle `run` computes.
        let outcomes = campaign.run(&[kill_reduce("k0", 0, 0.5), kill_reduce("k1", 1, 0.5)]);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.succeeded, "{o:?}");
            assert_eq!(o.engine, EngineKind::Runtime);
            assert_eq!(o.output_verified, Some(true), "committed bytes must match the oracle");
        }
    }

    #[test]
    fn report_aggregates_and_contrasts() {
        let mk = |scenario: &str, mode, spatial| ScenarioOutcome {
            scenario: scenario.into(),
            engine: EngineKind::Simulator,
            mode,
            succeeded: true,
            duration_secs: 100.0,
            injected_faults: 1,
            total_failures: spatial + 1,
            spatial_amplification: spatial,
            temporal_amplification: 0,
            fcm_attempts: 0,
            map_attempts: 5,
            node_loss_failures: 0,
            corruption_refetches: 0,
            degraded_drops: 0,
            recoveries_bounded: None,
            output_verified: None,
            partitions_committed: None,
            dfs_read_failovers: 0,
            dfs_repair_bytes: 0,
            dfs_corrupt_replicas: 0,
            chain_iteration: 0,
            resident_hits: 0,
        };
        let mut r = CampaignReport::new("unit", 1);
        r.extend(vec![
            mk("a", RecoveryMode::Baseline, 2),
            mk("a", RecoveryMode::SfmAlg, 0),
            mk("b", RecoveryMode::Baseline, 0),
            mk("b", RecoveryMode::SfmAlg, 0),
        ]);
        let contrast =
            r.spatial_contrast(EngineKind::Simulator, RecoveryMode::Baseline, RecoveryMode::SfmAlg);
        assert_eq!(contrast, vec![("a".to_string(), 2, 0)]);
        let txt = r.render_text();
        assert!(txt.contains("Baseline") && txt.contains("SfmAlg"), "{txt}");
        let md = r.render_markdown();
        assert!(md.contains("| sim | Baseline |"), "{md}");
    }
}
