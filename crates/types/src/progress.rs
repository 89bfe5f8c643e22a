//! Task progress as a clamped fraction.
//!
//! The paper's experiments inject failures "when a job reaches a varying
//! percentage of progress" (Fig. 2, 8, 9) — [`Progress`] is the value those
//! triggers compare against, and the value heartbeats report to the AM.

use serde::Serialize;
use std::fmt;

/// A fraction of completed work in `[0, 1]`. Construction clamps, so a
/// `Progress` is always valid by construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct Progress(f64);

impl Progress {
    pub const ZERO: Progress = Progress(0.0);
    pub const DONE: Progress = Progress(1.0);

    /// Clamp `v` into `[0, 1]`; NaN becomes 0.
    pub fn new(v: f64) -> Progress {
        if v.is_nan() {
            Progress(0.0)
        } else {
            Progress(v.clamp(0.0, 1.0))
        }
    }

    /// From a completed/total pair; a zero total counts as complete.
    pub fn of(done: u64, total: u64) -> Progress {
        if total == 0 {
            Progress::DONE
        } else {
            Progress::new(done as f64 / total as f64)
        }
    }

    pub fn value(&self) -> f64 {
        self.0
    }

    /// Percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        self.0 * 100.0
    }

    /// Combine sub-phase progresses with weights into an overall progress.
    /// Weights need not sum to 1; they are normalised. Empty input is DONE.
    pub fn weighted(parts: &[(Progress, f64)]) -> Progress {
        let total_w: f64 = parts.iter().map(|(_, w)| w.max(0.0)).sum();
        if total_w <= 0.0 {
            return Progress::DONE;
        }
        let s: f64 = parts.iter().map(|(p, w)| p.0 * w.max(0.0)).sum();
        Progress::new(s / total_w)
    }
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clamping() {
        assert_eq!(Progress::new(-0.5).value(), 0.0);
        assert_eq!(Progress::new(1.5).value(), 1.0);
        assert_eq!(Progress::new(f64::NAN).value(), 0.0);
        assert_eq!(Progress::new(0.42).value(), 0.42);
    }

    #[test]
    fn ratio_constructor() {
        assert_eq!(Progress::of(5, 10).value(), 0.5);
        assert_eq!(Progress::of(0, 0).value(), 1.0, "empty work counts as done");
        assert_eq!(Progress::of(20, 10).value(), 1.0);
    }

    #[test]
    fn weighted_combination() {
        // Reduce task: shuffle/merge/reduce weighted 1/3 each in Hadoop.
        let p =
            Progress::weighted(&[(Progress::DONE, 1.0), (Progress::new(0.5), 1.0), (Progress::ZERO, 1.0)]);
        assert!((p.value() - 0.5).abs() < 1e-12);
        assert_eq!(Progress::weighted(&[]).value(), 1.0);
    }

    #[test]
    fn display_is_percent() {
        assert_eq!(Progress::new(0.903).to_string(), "90.3%");
    }

    proptest! {
        #[test]
        fn always_in_unit_interval(v in proptest::num::f64::ANY) {
            let p = Progress::new(v);
            prop_assert!((0.0..=1.0).contains(&p.value()));
        }

        #[test]
        fn weighted_bounded_by_min_max(parts in proptest::collection::vec((0.0f64..=1.0, 0.0f64..10.0), 1..8)) {
            let ps: Vec<(Progress, f64)> = parts.iter().map(|&(p, w)| (Progress::new(p), w)).collect();
            let combined = Progress::weighted(&ps);
            prop_assert!((0.0..=1.0).contains(&combined.value()));
            if parts.iter().any(|&(_, w)| w > 0.0) {
                let lo = parts.iter().filter(|&&(_, w)| w > 0.0).map(|&(p, _)| p).fold(f64::INFINITY, f64::min);
                let hi = parts.iter().filter(|&&(_, w)| w > 0.0).map(|&(p, _)| p).fold(0.0f64, f64::max);
                prop_assert!(combined.value() >= lo - 1e-9);
                prop_assert!(combined.value() <= hi + 1e-9);
            }
        }
    }
}
