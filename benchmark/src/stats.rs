//! Order statistics over op timings and over repeated runs.

/// Fewest samples that must lie beyond a reported percentile; below this a
/// tail percentile is a statement about a handful of ops, not about the
/// system.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Nearest-rank percentile `p` in `(0, 1)`, refused (`None`) unless at
/// least [`MIN_SAMPLES_BEYOND`] samples lie strictly beyond the reported
/// rank.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize; // 1-based
    if rank == 0 || rank > v.len() || v.len() - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method) — the estimator the acceptance driver uses, so
/// spreads printed here are the spreads it will see. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a metric's regression bound is judged against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 → rank 190, exactly ten beyond.
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        // One sample fewer leaves nine beyond: refused.
        assert_eq!(tail_percentile(&v[..199], 0.95), None);
        // 54 samples: the median qualifies as a percentile, p95 does not.
        assert_eq!(tail_percentile(&v[..54], 0.95), None);
        assert_eq!(tail_percentile(&v[..54], 0.5), Some(27.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some(5.5 / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
