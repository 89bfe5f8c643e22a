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

fn secs_to_nanos(s: f64) -> u64 {
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

        #[test]
        fn ordering_consistent_with_nanos(a in proptest::num::u64::ANY, b in proptest::num::u64::ANY) {
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        }
    }
}
