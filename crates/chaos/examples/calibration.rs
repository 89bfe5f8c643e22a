//! Print the cross-engine magnitude calibration at the default matched
//! scale, plus the per-mode invariant verdicts against the recorded
//! tolerance bands (`ToleranceBands::measured`, documented in
//! EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p alm-chaos --example calibration
//! ```

use alm_chaos::{calibration_suite, validate_calibrated, MatchedScale, ToleranceBands};
use alm_types::RecoveryMode;

fn main() {
    let modes = [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg];
    let (report, calibration) = validate_calibrated(
        &calibration_suite(),
        "calibration-suite",
        &modes,
        &MatchedScale::default(),
        &ToleranceBands::measured(),
        3,
    );
    print!("{}", calibration.render_text());
    print!("{}", report.render_text());
    std::process::exit(if report.ok() { 0 } else { 1 });
}
