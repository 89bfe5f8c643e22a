//! Summary statistics over repeated runs.
//!
//! The paper reports "the average of three test runs" (§V-B); [`Summary`]
//! is that aggregation, with enough extra (std-dev, min/max) to judge run
//! stability.

use serde::Serialize;

/// Aggregate of a set of samples.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise samples; empty input yields an all-zero summary with n=0.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary { n: 0, mean: 0.0, std_dev: 0.0, min: 0.0, max: 0.0 };
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, std_dev: var.sqrt(), min, max }
    }
}

/// Percentage improvement of `candidate` over `baseline` where *smaller is
/// better* (execution / recovery time): `(baseline - candidate) / baseline`.
///
/// Returns 0 for a non-positive baseline.
pub fn improvement_pct(baseline: f64, candidate: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - candidate) / baseline * 100.0
    }
}

/// Nearest-rank percentile of `samples` (`p` in 0..=100). Sorts a copy —
/// callers keep their ordering. Empty input yields 0; NaNs sort last.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    // Nearest-rank: the smallest value with at least p% of samples <= it.
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Median (50th percentile, nearest-rank).
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Tail latency (99th percentile, nearest-rank).
pub fn p99(samples: &[f64]) -> f64 {
    percentile(samples, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn improvement_direction() {
        // Candidate twice as fast: 50% improvement.
        assert!((improvement_pct(100.0, 50.0) - 50.0).abs() < 1e-12);
        // Candidate slower: negative improvement.
        assert!((improvement_pct(100.0, 150.0) + 50.0).abs() < 1e-12);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(p50(&v), 3.0);
        assert_eq!(p99(&v), 5.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(p50(&[7.0]), 7.0);
    }

    proptest! {
        #[test]
        fn mean_within_min_max(samples in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let s = Summary::of(&samples);
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.std_dev >= 0.0);
        }

        #[test]
        fn percentile_is_a_sample_and_monotone(
            samples in proptest::collection::vec(-1e6f64..1e6, 1..50),
            lo in 0.0f64..100.0,
            hi in 0.0f64..100.0,
        ) {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let a = percentile(&samples, lo);
            let b = percentile(&samples, hi);
            prop_assert!(samples.contains(&a));
            prop_assert!(a <= b);
        }
    }
}
