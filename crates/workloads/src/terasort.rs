//! Terasort: sort 100-byte records by their 10-byte key.
//!
//! The identity map/reduce make Terasort a pure test of the shuffle/merge
//! pipeline — which is why the paper uses it for the amplification and
//! replication experiments (its intermediate data equals its input data).

use rand::{RngCore, SeedableRng};

use crate::model::{constants::*, WorkloadModel};
use crate::record::Record;
use crate::Workload;

/// Terasort with a configurable split size (records per split).
#[derive(Debug, Clone)]
pub struct Terasort {
    pub records_per_split: u32,
}

impl Terasort {
    pub fn new(records_per_split: u32) -> Terasort {
        Terasort { records_per_split }
    }

    /// A small instance for tests: 1000 records (~100 KB) per split.
    pub fn small() -> Terasort {
        Terasort::new(1000)
    }
}

impl Workload for Terasort {
    fn name(&self) -> &'static str {
        "terasort"
    }

    fn gen_split(&self, split_index: u32, seed: u64) -> Vec<Record> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ ((split_index as u64) << 20));
        (0..self.records_per_split)
            .map(|_| {
                let mut key = vec![0u8; TERASORT_KEY_LEN];
                rng.fill_bytes(&mut key);
                let mut value = vec![0u8; TERASORT_VALUE_LEN];
                rng.fill_bytes(&mut value);
                Record { key, value }
            })
            .collect()
    }

    fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record)) {
        emit(rec.clone()); // identity map
    }

    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record)) {
        for v in values {
            emit(Record::new(key.to_vec(), v.clone())); // identity reduce
        }
    }

    /// Total-order partitioner: uniform random keys split the key space
    /// into equal ranges by the first bytes (TeraSort samples to find these
    /// boundaries; uniform generation makes the boundaries analytic).
    fn partition(&self, key: &[u8], num_reduces: u32) -> u32 {
        if num_reduces <= 1 {
            return 0;
        }
        // Use the first 8 bytes as a big-endian fraction of the key space.
        let mut prefix = [0u8; 8];
        for (i, b) in key.iter().take(8).enumerate() {
            prefix[i] = *b;
        }
        let x = u64::from_be_bytes(prefix);
        // Map [0, 2^64) onto [0, num_reduces) order-preservingly.
        ((x as u128 * num_reduces as u128) >> 64) as u32
    }

    fn model(&self) -> WorkloadModel {
        WorkloadModel {
            name: "terasort",
            map_output_ratio: 1.0,
            reduce_output_ratio: 1.0,
            record_size: TERASORT_RECORD_WIRE,
            map_cpu_secs_per_gb: 12.0,
            reduce_cpu_secs_per_gb: 2.0,
            deser_secs_per_record: 1.5e-7,
            partition_imbalance: 1.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    #[test]
    fn generation_is_deterministic() {
        let w = Terasort::small();
        assert_eq!(w.gen_split(3, 42), w.gen_split(3, 42));
        assert_ne!(w.gen_split(3, 42), w.gen_split(4, 42));
        assert_ne!(w.gen_split(3, 42), w.gen_split(3, 43));
    }

    #[test]
    fn record_layout() {
        let w = Terasort::new(10);
        let recs = w.gen_split(0, 1);
        assert_eq!(recs.len(), 10);
        for r in recs {
            assert_eq!(r.key.len(), TERASORT_KEY_LEN);
            assert_eq!(r.value.len(), TERASORT_VALUE_LEN);
            assert_eq!(r.wire_size(), TERASORT_RECORD_WIRE);
        }
    }

    #[test]
    fn map_and_reduce_are_identity() {
        let w = Terasort::small();
        let r = Record::new(b"0123456789".to_vec(), vec![7u8; 90]);
        let mut out = Vec::new();
        w.map(&r, &mut |x| out.push(x));
        assert_eq!(out, vec![r.clone()]);
        let mut red = Vec::new();
        w.reduce(&r.key, std::slice::from_ref(&r.value), &mut |x| red.push(x));
        assert_eq!(red, vec![r]);
    }

    #[test]
    fn partitioner_is_order_preserving() {
        let w = Terasort::small();
        let lo = vec![0u8; 10];
        let hi = vec![0xffu8; 10];
        assert_eq!(w.partition(&lo, 20), 0);
        assert_eq!(w.partition(&hi, 20), 19);
    }

    #[test]
    fn partitioner_is_roughly_uniform() {
        let w = Terasort::new(20_000);
        let recs = w.gen_split(0, 7);
        let n_red = 20u32;
        let mut counts = vec![0u32; n_red as usize];
        for r in &recs {
            counts[w.partition(&r.key, n_red) as usize] += 1;
        }
        let mean = recs.len() as f64 / n_red as f64;
        for c in counts {
            assert!(
                (c as f64) > mean * 0.8 && (c as f64) < mean * 1.2,
                "partition count {c} too far from mean {mean}"
            );
        }
    }

    proptest! {
        /// Keys that compare lower never go to a higher partition.
        #[test]
        fn partition_monotone_in_key(a in proptest::collection::vec(0u8..=255, 10), b in proptest::collection::vec(0u8..=255, 10), n in 1u32..64) {
            let w = Terasort::small();
            let (pa, pb) = (w.partition(&a, n), w.partition(&b, n));
            match a.cmp(&b) {
                Ordering::Less => prop_assert!(pa <= pb),
                Ordering::Greater => prop_assert!(pa >= pb),
                Ordering::Equal => prop_assert_eq!(pa, pb),
            }
            prop_assert!(pa < n);
        }
    }
}
