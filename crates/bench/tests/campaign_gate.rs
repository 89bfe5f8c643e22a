//! The campaign gate's canonical report must be run-to-run deterministic
//! (same seed → byte-identical JSON), seed-sensitive, and free of
//! wall-clock fields — otherwise the golden diff would flap in CI — and
//! may only grow keys behind the non-zero / `Some`-only guard.

use alm_chaos::{CampaignReport, EngineKind, ScenarioOutcome, SimCampaign};
use alm_types::RecoveryMode;
use serde_json::Value;

fn canonical(seed: u64, n: usize) -> String {
    let (campaign, scenarios) = SimCampaign::golden_gate(seed, n);
    assert_eq!(scenarios.len(), n);
    let mut report = CampaignReport::new("campaign-gate", seed);
    report.extend(campaign.run(&scenarios));
    report.canonical_json()
}

#[test]
fn canonical_gate_report_is_deterministic_and_wall_clock_free() {
    let a = canonical(42, 2);
    assert_eq!(a, canonical(42, 2), "same seed must give a byte-identical canonical report");
    assert_ne!(a, canonical(7, 2), "a different seed must sample a different campaign");
    assert!(!a.contains("duration_secs"), "wall-clock fields must be stripped:\n{a}");
    for key in [
        "scenario",
        "engine",
        "mode",
        "succeeded",
        "injected_faults",
        "total_failures",
        "spatial_amplification",
        "temporal_amplification",
        "fcm_attempts",
    ] {
        assert!(a.contains(&format!("\"{key}\"")), "canonical report lost {key}:\n{a}");
    }
}

fn object(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    object(v).iter().map(|(k, _)| k.as_str()).collect()
}

fn outcomes(v: &Value) -> &[Value] {
    match object(v).iter().find(|(k, _)| k == "outcomes") {
        Some((_, Value::Array(outcomes))) => outcomes,
        _ => panic!("no outcomes array"),
    }
}

fn emitted(outcome: ScenarioOutcome) -> Value {
    let mut report = CampaignReport::new("campaign-gate", 42);
    report.extend(vec![outcome]);
    serde_json::parse_value_complete(&report.canonical_json()).expect("canonical_json emits JSON")
}

/// An outcome whose guarded fields are all zero or `None` emits exactly the
/// golden baseline's keys, and setting one guarded field adds exactly its
/// key. A new unconditional key would change the gate's bytes for every
/// scenario at once — an unreviewable re-bless — where a guarded one moves
/// only the scenarios that exercise it.
#[test]
fn canonical_keys_are_the_golden_keys_plus_only_the_guarded_fields_set() {
    let golden = serde_json::parse_value_complete(include_str!("../golden/campaign_gate.json"))
        .expect("golden baseline parses");
    let golden_keys = keys(&outcomes(&golden)[0]);
    assert!(outcomes(&golden).iter().all(|o| keys(o) == golden_keys), "golden outcomes disagree on keys");

    let plain = ScenarioOutcome {
        scenario: "s".into(),
        engine: EngineKind::Simulator,
        mode: RecoveryMode::Baseline,
        succeeded: true,
        duration_secs: 1.0,
        injected_faults: 1,
        total_failures: 1,
        spatial_amplification: 1,
        temporal_amplification: 1,
        fcm_attempts: 1,
        map_attempts: 1,
        node_loss_failures: 1,
        corruption_refetches: 1,
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
    let report = emitted(plain.clone());
    assert_eq!(keys(&report), keys(&golden), "root keys differ from the golden baseline");
    assert_eq!(keys(&outcomes(&report)[0]), golden_keys, "per-outcome keys differ from the golden baseline");

    type Set = fn(&mut ScenarioOutcome);
    let guarded: [(&str, Set); 9] = [
        ("degraded_drops", |o| o.degraded_drops = 1),
        ("recoveries_bounded", |o| o.recoveries_bounded = Some(true)),
        ("output_verified", |o| o.output_verified = Some(true)),
        ("partitions_committed", |o| o.partitions_committed = Some(1)),
        ("dfs_read_failovers", |o| o.dfs_read_failovers = 1),
        ("dfs_repair_bytes", |o| o.dfs_repair_bytes = 1),
        ("dfs_corrupt_replicas", |o| o.dfs_corrupt_replicas = 1),
        ("chain_iteration", |o| o.chain_iteration = 1),
        ("resident_hits", |o| o.resident_hits = 1),
    ];
    for (key, set) in guarded {
        let mut outcome = plain.clone();
        set(&mut outcome);
        let report = emitted(outcome);
        let mut want = golden_keys.clone();
        want.push(key);
        assert_eq!(keys(&outcomes(&report)[0]), want, "setting `{key}` must add exactly its own key");
    }
}
