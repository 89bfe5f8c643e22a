//! Ranked root-cause triage over campaign outcomes.
//!
//! A fault sweep produces hundreds of [`ScenarioOutcome`]s; nobody reads
//! them row by row. This module reduces them the way an on-call engineer
//! would: classify every run by its *failure signature* (an ordered rule
//! chain from "job never finished" down to "gray link absorbed"), group
//! identical signatures, and rank the groups by severity and blast
//! radius. Each category carries a remediation — the knob or recovery
//! mode the paper's design says addresses that signature — so the report
//! reads as a prioritised to-do list, not a histogram.
//!
//! Classification is *first match wins* over [`RULES`]: a stuck job is
//! "job-stuck" even if it also shows amplification, because the most
//! severe symptom is the one to chase first.

use serde::Serialize;
use std::collections::BTreeMap;

use crate::analyze::ScenarioOutcome;

/// Triage severity, ordered so `Critical` sorts above `Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    Info,
    Low,
    Medium,
    High,
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Critical => "critical",
            Severity::High => "high",
            Severity::Medium => "medium",
            Severity::Low => "low",
            Severity::Info => "info",
        })
    }
}

/// One classification rule: the first rule whose `matches` accepts an
/// outcome names its signature.
struct Rule {
    category: &'static str,
    severity: Severity,
    remediation: &'static str,
    matches: fn(&ScenarioOutcome) -> bool,
}

/// The ordered rule chain, most severe symptom first. Every outcome
/// matches exactly one rule (the last rule accepts everything).
const RULES: &[Rule] = &[
    Rule {
        category: "job-stuck",
        severity: Severity::Critical,
        remediation: "job never completed: inspect retry budget (FetchFailureLimit) and node-liveness \
                      settings; reproduce under the differential validator to localise the engine",
        matches: |o| !o.succeeded,
    },
    Rule {
        category: "output-divergence",
        severity: Severity::Critical,
        remediation: "committed output failed oracle verification or lost partitions: audit DFS \
                      replica placement and the commit path; run with dfs-verified-read invariant",
        matches: |o| o.output_verified == Some(false),
    },
    Rule {
        category: "amplified-node-loss",
        severity: Severity::High,
        remediation: "a node loss infected healthy reducers through FetchFailureLimit: enable SFM \
                      (shuffle-failure migration) so sources migrate instead of preempting fetchers",
        matches: |o| o.node_loss_failures > 0 && o.spatial_amplification > 0,
    },
    Rule {
        category: "fetch-failure-amplification",
        severity: Severity::High,
        remediation: "healthy reducers were preempted via FetchFailureLimit with no node lost: \
                      enable SFM, and check fetch backoff stays under half the liveness window",
        matches: |o| o.spatial_amplification > 0,
    },
    Rule {
        category: "repeated-task-failure",
        severity: Severity::Medium,
        remediation: "one task failed repeatedly (temporal amplification): enable ALG so reduce \
                      recovery migrates logged state instead of re-running from scratch",
        matches: |o| o.temporal_amplification >= 2,
    },
    Rule {
        category: "node-loss-contained",
        severity: Severity::Medium,
        remediation: "node loss recovered without spreading: expected cost; compare Alg vs Baseline \
                      duration to confirm analytics logging bounded the re-execution",
        matches: |o| o.node_loss_failures > 0,
    },
    Rule {
        category: "storage-rot-unrepaired",
        severity: Severity::High,
        remediation: "corrupt DFS replicas survived the repair pass: check re-replication sources \
                      and replica placement breadth; rot must never outlive repair()",
        matches: |o| o.dfs_corrupt_replicas > 0,
    },
    Rule {
        category: "storage-rot-repaired",
        severity: Severity::Low,
        remediation: "rotten replicas were detected by verified reads and re-replicated: expected; \
                      monitor repair bytes for replication-traffic budgets",
        matches: |o| o.dfs_read_failovers > 0 || o.dfs_repair_bytes > 0,
    },
    Rule {
        category: "task-failure-recovered",
        severity: Severity::Low,
        remediation: "injected task/node failures recovered without amplification: expected; track \
                      FCM attempts against the recovery-latency budget",
        matches: |o| o.total_failures > 0,
    },
    Rule {
        category: "shuffle-corruption-absorbed",
        severity: Severity::Low,
        remediation: "checksummed fetches caught corrupt chunks and re-fetched transparently: \
                      expected; refetch count bounds the corruption exposure",
        matches: |o| o.corruption_refetches > 0,
    },
    Rule {
        category: "gray-link-absorbed",
        severity: Severity::Low,
        remediation: "degraded-link drops were re-fetched without charging the retry budget: \
                      expected; rising drop counts flag a link for replacement",
        matches: |o| o.degraded_drops > 0,
    },
    Rule {
        category: "healthy",
        severity: Severity::Info,
        remediation: "no action required",
        matches: |_| true,
    },
];

/// Classify one outcome: first matching rule wins.
pub fn classify(o: &ScenarioOutcome) -> (&'static str, Severity, &'static str) {
    let rule = RULES.iter().find(|r| (r.matches)(o)).expect("the final triage rule accepts every outcome");
    (rule.category, rule.severity, rule.remediation)
}

/// One signature group: every run that classified into `category`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TriageGroup {
    pub category: String,
    pub severity: Severity,
    /// Runs (scenario × engine × mode) in this group.
    pub count: usize,
    /// Distinct scenarios represented.
    pub distinct_scenarios: usize,
    /// Up to three example scenario names, lexicographically first.
    pub examples: Vec<String>,
    /// Worst spatial amplification seen in the group.
    pub max_spatial: usize,
    /// Worst temporal amplification seen in the group.
    pub max_temporal: usize,
    pub remediation: String,
}

/// Ranked triage over a set of outcomes: groups sorted by severity, then
/// blast radius (run count), then name for determinism.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TriageReport {
    /// Total runs triaged.
    pub runs: usize,
    pub groups: Vec<TriageGroup>,
}

/// Group `outcomes` by failure signature and rank the groups.
pub fn triage(outcomes: &[ScenarioOutcome]) -> TriageReport {
    let mut by_cat: BTreeMap<&'static str, (Severity, &'static str, Vec<&ScenarioOutcome>)> = BTreeMap::new();
    for o in outcomes {
        let (cat, sev, fix) = classify(o);
        by_cat.entry(cat).or_insert((sev, fix, Vec::new())).2.push(o);
    }
    let mut groups: Vec<TriageGroup> = by_cat
        .into_iter()
        .map(|(cat, (sev, fix, runs))| {
            let mut scenarios: Vec<&str> = runs.iter().map(|o| o.scenario.as_str()).collect();
            scenarios.sort_unstable();
            scenarios.dedup();
            TriageGroup {
                category: cat.to_string(),
                severity: sev,
                count: runs.len(),
                distinct_scenarios: scenarios.len(),
                examples: scenarios.iter().take(3).map(|s| s.to_string()).collect(),
                max_spatial: runs.iter().map(|o| o.spatial_amplification).max().unwrap_or(0),
                max_temporal: runs.iter().map(|o| o.temporal_amplification).max().unwrap_or(0),
                remediation: fix.to_string(),
            }
        })
        .collect();
    groups.sort_by(|a, b| {
        b.severity.cmp(&a.severity).then(b.count.cmp(&a.count)).then(a.category.cmp(&b.category))
    });
    TriageReport { runs: outcomes.len(), groups }
}

impl TriageReport {
    /// Categories at or above `floor` severity.
    pub fn at_least(&self, floor: Severity) -> impl Iterator<Item = &TriageGroup> {
        self.groups.iter().filter(move |g| g.severity >= floor)
    }

    pub fn render_markdown(&self) -> String {
        let mut out = format!("## Root-cause triage ({} runs)\n\n", self.runs);
        out.push_str(
            "| rank | severity | category | runs | scenarios | max spatial | max temporal | remediation |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} (e.g. {}) | {} | {} | {} |\n",
                i + 1,
                g.severity,
                g.category,
                g.count,
                g.distinct_scenarios,
                g.examples.join(", "),
                g.max_spatial,
                g.max_temporal,
                g.remediation
            ));
        }
        out
    }

    pub fn render_text(&self) -> String {
        let mut out = format!("root-cause triage over {} runs\n", self.runs);
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str(&format!(
                "  #{} [{}] {} — {} runs over {} scenarios (spatial ≤{}, temporal ≤{})\n      fix: {}\n",
                i + 1,
                g.severity,
                g.category,
                g.count,
                g.distinct_scenarios,
                g.max_spatial,
                g.max_temporal,
                g.remediation
            ));
        }
        out
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("triage report serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::EngineKind;
    use alm_types::RecoveryMode;

    fn outcome(scenario: &str) -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: scenario.into(),
            engine: EngineKind::Simulator,
            mode: RecoveryMode::Baseline,
            succeeded: true,
            duration_secs: 100.0,
            injected_faults: 1,
            total_failures: 0,
            spatial_amplification: 0,
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
        }
    }

    #[test]
    fn classification_is_first_match_and_total() {
        let healthy = outcome("h");
        assert_eq!(classify(&healthy).0, "healthy");

        let mut stuck = outcome("s");
        stuck.succeeded = false;
        stuck.spatial_amplification = 3; // the graver symptom wins
        assert_eq!(classify(&stuck).0, "job-stuck");
        assert_eq!(classify(&stuck).1, Severity::Critical);

        let mut amp = outcome("a");
        amp.node_loss_failures = 1;
        amp.spatial_amplification = 2;
        amp.total_failures = 3;
        assert_eq!(classify(&amp).0, "amplified-node-loss");

        let mut spatial = outcome("sp");
        spatial.spatial_amplification = 1;
        spatial.total_failures = 1;
        assert_eq!(classify(&spatial).0, "fetch-failure-amplification");

        let mut gray = outcome("g");
        gray.degraded_drops = 4;
        assert_eq!(classify(&gray).0, "gray-link-absorbed");
        assert_eq!(classify(&gray).1, Severity::Low);

        let mut rot = outcome("r");
        rot.dfs_corrupt_replicas = 1;
        assert_eq!(classify(&rot).0, "storage-rot-unrepaired");
        assert_eq!(classify(&rot).1, Severity::High);
    }

    #[test]
    fn every_rule_has_nonempty_distinct_category_and_remediation() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(!r.category.is_empty());
            assert!(!r.remediation.trim().is_empty(), "{} has no remediation", r.category);
            assert!(seen.insert(r.category), "duplicate category {}", r.category);
        }
    }

    #[test]
    fn groups_rank_by_severity_then_blast_radius() {
        let mut outcomes = Vec::new();
        for i in 0..5 {
            let mut o = outcome(&format!("gray-{i}"));
            o.degraded_drops = 1;
            outcomes.push(o);
        }
        let mut stuck = outcome("stuck-1");
        stuck.succeeded = false;
        outcomes.push(stuck);
        let mut amp = outcome("amp-1");
        amp.spatial_amplification = 2;
        outcomes.push(amp);
        outcomes.push(outcome("clean"));

        let report = triage(&outcomes);
        assert_eq!(report.runs, 8);
        let cats: Vec<&str> = report.groups.iter().map(|g| g.category.as_str()).collect();
        assert_eq!(cats, vec!["job-stuck", "fetch-failure-amplification", "gray-link-absorbed", "healthy"]);
        assert_eq!(report.groups[2].count, 5);
        assert_eq!(report.groups[2].distinct_scenarios, 5);
        assert_eq!(report.groups[2].examples.len(), 3);
        assert!(report.at_least(Severity::High).count() == 2);

        let md = report.render_markdown();
        assert!(md.contains("| 1 | critical | job-stuck |"), "{md}");
    }
}
