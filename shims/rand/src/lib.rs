//! Offline stand-in for the `rand` crate.
//!
//! Deterministic, seedable randomness for the simulator, workload
//! generators and tests. The API mirrors the subset of `rand` 0.9 this
//! workspace uses: [`RngCore`], [`SeedableRng`], the [`Rng`] extension
//! trait (`random`, `random_range`, `random_bool`), `rngs::SmallRng`
//! (xoshiro256++ seeded via SplitMix64, like the real crate on 64-bit),
//! and `distr::Distribution`.
//!
//! Streams are stable across releases of this repository — experiment
//! seeds recorded in EXPERIMENTS.md stay reproducible.

/// Core random-number generation: raw integer output and byte filling.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let n = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&n[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Construction of a generator from seeds — the only way to get one. The
/// real crate's ambient sources (`from_entropy`, `from_os_rng`,
/// `thread_rng`, `OsRng`, `rand::random`) are deliberately absent, so an
/// unseeded draw anywhere in the workspace is a compile error (E0599/E0425).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable from a generator's raw output ("standard" distribution).
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),+ $(,)?) => {
        $(impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.$via() as $t
            }
        })+
    };
}

impl_standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
                   usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
                   i64 => next_u64, isize => next_u64);

impl StandardSample for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable uniformly (argument of [`Rng::random_range`]).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_uint {
    ($($t:ty),+ $(,)?) => {
        $(
            impl SampleRange<$t> for std::ops::Range<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end - self.start) as u64;
                    // Unbiased rejection sampling (Lemire-style threshold).
                    let zone = u64::MAX - u64::MAX % span;
                    loop {
                        let v = rng.next_u64();
                        if v < zone {
                            return self.start + (v % span) as $t;
                        }
                    }
                }
            }

            impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    if lo == 0 && hi == <$t>::MAX {
                        return <$t as StandardSample>::sample_standard(rng);
                    }
                    let span = (hi - lo) as u64 + 1;
                    let zone = u64::MAX - u64::MAX % span;
                    loop {
                        let v = rng.next_u64();
                        if v < zone {
                            return lo + (v % span) as $t;
                        }
                    }
                }
            }
        )+
    };
}

impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_sint {
    ($($t:ty as $u:ty),+ $(,)?) => {
        $(
            impl SampleRange<$t> for std::ops::Range<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                    let zone = u64::MAX - u64::MAX % span;
                    loop {
                        let v = rng.next_u64();
                        if v < zone {
                            return ((self.start as i64).wrapping_add((v % span) as i64)) as $t;
                        }
                    }
                }
            }

            impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
                fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    if lo == <$t>::MIN && hi == <$t>::MAX {
                        return rng.next_u64() as $t;
                    }
                    let span = (hi as i64).wrapping_sub(lo as i64) as u64 + 1;
                    let zone = u64::MAX - u64::MAX % span;
                    loop {
                        let v = rng.next_u64();
                        if v < zone {
                            return ((lo as i64).wrapping_add((v % span) as i64)) as $t;
                        }
                    }
                }
            }
        )+
    };
}

impl_range_sint!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::sample_standard(rng) * (hi - lo)
    }
}

/// User-facing convenience methods, blanket-implemented for every RNG.
pub trait Rng: RngCore {
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Distributions (`rand::distr`).
pub mod distr {
    use super::RngCore;

    /// A distribution over values of `T`.
    pub trait Distribution<T> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "standard" distribution of each primitive type.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct StandardUniform;

    impl<T: super::StandardSample> Distribution<T> for StandardUniform {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
            T::sample_standard(rng)
        }
    }
}

/// Concrete generators (`rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the same algorithm the real crate's 64-bit
    /// `SmallRng` uses; seeded from SplitMix64 like `seed_from_u64`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut st = seed;
            let s = [splitmix64(&mut st), splitmix64(&mut st), splitmix64(&mut st), splitmix64(&mut st)];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
    }

    /// The "standard" RNG: same engine, distinct type, as the workspace
    /// never relies on StdRng/SmallRng producing different streams.
    pub type StdRng = SmallRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut r = SmallRng::seed_from_u64(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v: u32 = r.random_range(10..20);
            assert!((10..20).contains(&v));
            let f: f64 = r.random_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let i: i32 = r.random_range(-5..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn standard_f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let f: f64 = r.random();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn full_u64_range_samplable() {
        let mut r = SmallRng::seed_from_u64(5);
        let _: u64 = r.random_range(0..=u64::MAX);
    }
}
