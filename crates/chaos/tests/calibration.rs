//! Cross-engine magnitude calibration at the default matched scale: the
//! engines' normalized slowdowns must agree within the recorded
//! per-mode tolerance bands, and correlated rack loss must validate
//! differentially end to end.

use alm_chaos::{
    calibrate, calibration_suite, transient_calibration_suite, validate_calibrated, ChaosFault,
    ChaosScenario, MatchedScale, ToleranceBands,
};
use alm_types::RecoveryMode;
use std::sync::{Mutex, MutexGuard, PoisonError};

const ALL_MODES: [RecoveryMode; 4] =
    [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg];

/// The runtime's side of every calibration is a wall-clock job time, so two
/// of these tests running jobs at once would time each other's load. Each
/// test holds this lock for its whole body; a failed test poisons nothing.
static WALL_CLOCK: Mutex<()> = Mutex::new(());

fn measure_alone() -> MutexGuard<'static, ()> {
    WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The tentpole invariant: per-mode normalized slowdown curves from both
/// engines stay inside the measured tolerance bands recorded in
/// `ToleranceBands::measured` / EXPERIMENTS.md.
#[test]
fn magnitude_invariants_hold_at_default_scale_for_all_modes() {
    let _alone = measure_alone();
    let (report, calibration) = validate_calibrated(
        &calibration_suite(),
        "calibration-suite",
        &ALL_MODES,
        &MatchedScale::default(),
        &ToleranceBands::measured(),
        3,
    );
    assert_eq!(report.invariants.len(), ALL_MODES.len());
    for inv in &report.invariants {
        assert!(inv.name.starts_with("magnitude-"), "{inv:?}");
    }
    assert!(
        report.ok(),
        "magnitude calibration out of band:\n{}\n{}",
        report.render_text(),
        calibration.render_text()
    );
    // Every mode curve covers the whole suite, and the baselines the
    // slowdowns are normalized against are sane.
    for curve in &calibration.curves {
        assert_eq!(curve.points.len(), calibration_suite().len());
        assert!(curve.sim_baseline_secs > 0.0, "{curve:?}");
        assert!(curve.runtime_baseline_secs > 0.0, "{curve:?}");
        for p in &curve.points {
            assert!(p.sim >= 1.0, "a fault cannot speed the simulator up: {p:?}");
            assert!(p.runtime > 0.0, "{p:?}");
        }
    }
}

/// Gray-failure companion to the tentpole: the *absorbed* fault classes
/// (healed partitions — symmetric and asymmetric — and checksummed
/// corruption) must also agree in magnitude across engines, within the
/// wider transient bands recorded in `ToleranceBands::transient_measured`
/// / EXPERIMENTS.md.
#[test]
fn transient_magnitude_invariants_hold_at_default_scale_for_all_modes() {
    let _alone = measure_alone();
    let (report, calibration) = validate_calibrated(
        &transient_calibration_suite(),
        "transient-calibration-suite",
        &ALL_MODES,
        &MatchedScale::default(),
        &ToleranceBands::transient_measured(),
        3,
    );
    assert_eq!(report.invariants.len(), ALL_MODES.len());
    assert!(
        report.ok(),
        "transient magnitude calibration out of band:\n{}\n{}",
        report.render_text(),
        calibration.render_text()
    );
    for curve in &calibration.curves {
        assert_eq!(curve.points.len(), transient_calibration_suite().len());
        for p in &curve.points {
            // Absorbed faults may cost overhead but never a recovery
            // cliff: the simulator's slowdown stays under 2x throughout.
            assert!((1.0..2.0).contains(&p.sim), "absorbed fault shows a recovery cliff: {p:?}");
            assert!(p.runtime > 0.0, "{p:?}");
        }
    }
}

/// Deliberately absurd bands must fail — the check is not vacuous.
#[test]
fn magnitude_check_is_not_vacuous() {
    let _alone = measure_alone();
    let calibration = calibrate(&calibration_suite(), &[RecoveryMode::Sfm], &MatchedScale::default(), 2);
    let strict = calibration.check(&ToleranceBands::uniform(0.0));
    // With a zero band any nonzero gap fails; the engines' clocks differ,
    // so at least one scenario must show a nonzero gap.
    assert!(
        strict.iter().any(|i| !i.passed),
        "zero-tolerance bands unexpectedly passed: {}",
        calibration.render_text()
    );
}

/// Satellite: correlated rack loss wired through both campaigns and
/// checked by the `correlated-crash-recovery` differential invariant —
/// runtime recovers to oracle-identical committed output, simulator
/// completes under SfmAlg.
#[test]
fn correlated_rack_crash_validates_differentially() {
    let _alone = measure_alone();
    let scenario = ChaosScenario::new("diff-rack-loss").with(ChaosFault::CrashRack { rack: 1, at_secs: 0.5 });
    let report = alm_chaos::validate_scenario(&scenario, &[RecoveryMode::Baseline, RecoveryMode::SfmAlg]);
    let inv = report
        .invariants
        .iter()
        .find(|i| i.name == "correlated-crash-recovery")
        .expect("rack scenarios must add the correlated-crash invariant");
    assert!(inv.passed, "{}", report.render_text());
    assert!(report.ok(), "{}", report.render_text());
    // The invariant is conditional: non-rack scenarios must not carry it.
    let kill = ChaosScenario::new("k").with(ChaosFault::KillReduce { index: 0, at_progress: 0.5 });
    let plain = alm_chaos::validate_scenario(&kill, &[RecoveryMode::Baseline]);
    assert!(plain.invariants.iter().all(|i| i.name != "correlated-crash-recovery"));
}
