//! Deterministic random streams.
//!
//! Every stochastic component of a simulation (task service-time jitter,
//! input skew, failure injection) draws from its own stream derived from
//! the experiment seed and a component label, so adding randomness to one
//! component never perturbs another — a standard DES reproducibility
//! technique (common random numbers).
//!
//! A stream is only as independent as its label: two call sites deriving
//! the same `(seed, label)` share one stream, and a label built in a loop
//! that leaves out the loop index replays one stream every iteration. The
//! convention is therefore that a label is a component prefix followed by
//! every index the draw depends on. The production streams are:
//!
//! | label | drawn by |
//! |---|---|
//! | `sim-fetch-backoff/{attempt}/{map}/{round}` | `alm-sim`, dead-source fetch back-off jitter |
//! | `sim-degraded-loss/{attempt}/{map}/{draw}` | `alm-sim`, gray-link transfer drops |
//! | `fetch-backoff/{attempt}` | `alm-runtime`, a reducer's fetch back-off jitter |
//! | `degraded-loss/{attempt}` | `alm-runtime`, a reducer's gray-link transfer drops |
//! | `warehouse-input-sizes` | `alm-sched`, campaign job input sizes |
//! | `warehouse-arrival-gaps` | `alm-sched`, campaign job arrival gaps |
//!
//! A new stream takes a prefix not in this table and joins it. Tests may
//! reuse a label on purpose (replay checks).

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derive an independent RNG stream from `(seed, label)`.
///
/// The derivation is a fixed 64-bit mix (SplitMix64 over the seed and the
/// FNV-1a hash of the label), so streams are stable across platforms and
/// releases of the `rand` crate's default hasher.
pub fn stream(seed: u64, label: &str) -> SmallRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mixed = splitmix64(seed ^ h);
    SmallRng::seed_from_u64(mixed)
}

/// SplitMix64 finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = stream(42, "failure-injector");
        let mut b = stream(42, "failure-injector");
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_labels_decorrelate() {
        let mut a = stream(42, "component-a");
        let mut b = stream(42, "component-b");
        let same = (0..64).filter(|_| a.random::<u64>() == b.random::<u64>()).count();
        assert_eq!(same, 0, "distinct labels must give distinct streams");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = stream(1, "x");
        let mut b = stream(2, "x");
        let same = (0..64).filter(|_| a.random::<u64>() == b.random::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value from the SplitMix64 paper's test vectors.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
    }
}
