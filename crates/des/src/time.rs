//! Virtual time.
//!
//! Nanosecond resolution in a `u64` gives ~584 years of simulated range —
//! far beyond any experiment — while keeping arithmetic exact for the
//! bandwidth/latency computations in the cost models.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of simulated time, measured from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Far future; useful as an "infinite" deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    pub fn from_ms(ms: u64) -> SimTime {
        SimTime(ms.saturating_mul(1_000_000))
    }

    pub fn from_secs_f64(s: f64) -> SimTime {
        SimTime(secs_to_nanos(s))
    }

    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant; saturates to zero if `earlier`
    /// is actually later.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    pub fn from_ms(ms: u64) -> SimDuration {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    pub fn from_secs(s: u64) -> SimDuration {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration(secs_to_nanos(s))
    }

    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }
}

/// `s` seconds in whole nanoseconds, rounded half away from zero as
/// `f64::round` rounds; NaN and anything not above zero read 0, and
/// anything from 2^64 ns up (`+inf` too) saturates.
fn secs_to_nanos(s: f64) -> u64 {
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    let ns = s * 1e9;
    if ns >= u64::MAX as f64 {
        return u64::MAX;
    }
    if ns >= (1u64 << 52) as f64 {
        return ns as u64; // a whole number already
    }
    // Truncate, then round the fraction up from one half. Below 2^52 the
    // truncation is exact, and so is `ns - whole`, so the half test reads
    // the true fraction: 0.49999999999999994 stays down, where adding 0.5
    // first would round it up. This is `ns.round() as u64` without the
    // libm call, and through `i64`, whose conversions are one instruction
    // each way.
    let whole = ns as i64;
    let up = ns - whole as f64 >= 0.5;
    whole as u64 + u64::from(up)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, o: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(o.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, o: SimDuration) {
        self.0 = self.0.saturating_add(o.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, o: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(o.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rounding `secs_to_nanos` had before it truncated, kept as its
    /// oracle.
    fn secs_to_nanos_by_round(s: f64) -> u64 {
        if !s.is_finite() || s <= 0.0 {
            if s > 0.0 {
                u64::MAX // +inf
            } else {
                0
            }
        } else {
            let ns = s * 1e9;
            if ns >= u64::MAX as f64 {
                u64::MAX
            } else {
                ns.round() as u64
            }
        }
    }

    /// Nanosecond counts at which the rounding's edges fall: the largest
    /// double below one half, exact halves, and the ends of the
    /// integer-exact range and of `u64`. `ns / 1e9` seconds times 1e9 is
    /// each of them again exactly (`secs_to_nanos_edges` checks it).
    const EDGE_NS: [f64; 9] = [
        0.49999999999999994,
        0.5,
        1.5,
        2.5,
        4_503_599_627_370_495.5,      // 2^52 - 1/2
        4_503_599_627_370_496.0,      // 2^52
        9_007_199_254_740_992.0,      // 2^53
        9_223_372_036_854_775_808.0,  // 2^63
        18_446_744_073_709_551_616.0, // 2^64
    ];

    /// Edge inputs in seconds: the edges above, then zeros, subnormals,
    /// negatives, the largest double, infinities and NaN.
    fn edge_secs() -> impl Iterator<Item = f64> {
        EDGE_NS.into_iter().map(|ns| ns / 1e9).chain([
            0.0,
            -0.0,
            5e-324, // the smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            -1.5e-9,
            -5e-324,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ])
    }

    #[test]
    fn secs_to_nanos_edges() {
        for ns in EDGE_NS {
            assert_eq!(ns / 1e9 * 1e9, ns, "the edge {ns:e} ns is reached");
        }
        for s in edge_secs() {
            assert_eq!(secs_to_nanos(s), secs_to_nanos_by_round(s), "s = {s:e}");
        }
        assert_eq!(secs_to_nanos(0.49999999999999994 / 1e9), 0);
        assert_eq!(secs_to_nanos(2.5 / 1e9), 3, "a half rounds away from zero");
        assert_eq!(secs_to_nanos(9_223_372_036_854_775_808.0 / 1e9), 1 << 63);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ms(1500).as_millis(), 1500);
        assert_eq!(SimTime::from_ms(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(100) + SimDuration::from_ms(50);
        assert_eq!(t.as_millis(), 150);
        assert_eq!(t.since(SimTime::from_ms(100)).as_millis(), 50);
        // since() saturates instead of underflowing.
        assert_eq!(SimTime::from_ms(10).since(SimTime::from_ms(99)).as_nanos(), 0);
    }

    #[test]
    fn saturation_at_extremes() {
        let huge = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(huge, SimTime::MAX);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY).as_nanos(), u64::MAX);
        assert_eq!(SimDuration::from_secs_f64(-5.0).as_nanos(), 0);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).as_nanos(), 0);
    }

    proptest! {
        #[test]
        fn add_then_since_is_identity(base_ms in 0u64..10_000_000, d_ms in 0u64..10_000_000) {
            let t0 = SimTime::from_ms(base_ms);
            let t1 = t0 + SimDuration::from_ms(d_ms);
            prop_assert_eq!(t1.since(t0).as_millis(), d_ms);
        }

        /// `secs_to_nanos` gives exactly what the `round()`-based form
        /// it replaced gives: for any bit pattern, any time in a wide
        /// range, any exact half nanosecond, and within a few ulps of each
        /// edge input.
        #[test]
        fn secs_to_nanos_matches_round(
            bits in proptest::num::u64::ANY,
            secs in -1e12f64..1e12,
            halves in 0u64..(1 << 40),
            edge in 0usize..edge_secs().count(),
            ulps in -4i64..=4,
        ) {
            let edge = edge_secs().nth(edge).expect("in range");
            let near_edge = f64::from_bits(edge.to_bits().wrapping_add_signed(ulps));
            let half = (halves as f64 + 0.5) / 1e9;
            for s in [f64::from_bits(bits), secs, half, edge, near_edge] {
                prop_assert_eq!(secs_to_nanos(s), secs_to_nanos_by_round(s), "s = {:e} ({:#x})", s, s.to_bits());
            }
        }

        #[test]
        fn ordering_consistent_with_nanos(a in proptest::num::u64::ANY, b in proptest::num::u64::ANY) {
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        }
    }
}
