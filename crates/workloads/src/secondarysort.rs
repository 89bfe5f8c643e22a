//! Secondarysort: group by a primary key, order each group by a secondary
//! key — the classic composite-key MapReduce pattern.
//!
//! Its reduce function does real per-group work (verifying/consuming the
//! secondary ordering), which makes it the workload where resuming logged
//! reduce progress pays off the most (the paper observes the largest
//! SFM+ALG gain, 25.8%, on Secondarysort — §V-E).

use rand::{Rng, RngCore, SeedableRng};

use crate::model::{constants::*, WorkloadModel};
use crate::record::Record;
use crate::Workload;

/// Composite key layout: `primary: u32 (BE) | secondary: u32 (BE)`. Big-endian
/// fields make the pipeline's bytewise key order the `(primary, secondary)`
/// order.
pub fn composite_key(primary: u32, secondary: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(8);
    k.extend_from_slice(&primary.to_be_bytes());
    k.extend_from_slice(&secondary.to_be_bytes());
    k
}

/// Split a composite key into `(primary, secondary)`.
pub fn split_key(key: &[u8]) -> (u32, u32) {
    let mut p = [0u8; 4];
    let mut s = [0u8; 4];
    p.copy_from_slice(&key[0..4]);
    s.copy_from_slice(&key[4..8]);
    (u32::from_be_bytes(p), u32::from_be_bytes(s))
}

#[derive(Debug, Clone)]
pub struct SecondarySort {
    pub records_per_split: u32,
}

impl SecondarySort {
    pub fn new(records_per_split: u32) -> SecondarySort {
        SecondarySort { records_per_split }
    }

    pub fn small() -> SecondarySort {
        SecondarySort::new(1000)
    }
}

impl Workload for SecondarySort {
    fn name(&self) -> &'static str {
        "secondarysort"
    }

    fn gen_split(&self, split_index: u32, seed: u64) -> Vec<Record> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ ((split_index as u64) << 20) ^ 0x2a2a);
        (0..self.records_per_split)
            .map(|_| {
                let primary = rng.random_range(0..SECONDARYSORT_PRIMARIES);
                let secondary: u32 = rng.random();
                let mut payload = vec![0u8; SECONDARYSORT_PAYLOAD_LEN];
                rng.fill_bytes(&mut payload);
                Record::new(composite_key(primary, secondary), payload)
            })
            .collect()
    }

    fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record)) {
        emit(rec.clone()); // the key already carries (primary, secondary)
    }

    /// Emit the group's values in secondary order, tagged with the primary.
    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record)) {
        let (primary, _) = split_key(key);
        for v in values {
            emit(Record::new(primary.to_be_bytes().to_vec(), v.clone()));
        }
    }

    /// Partition by primary key only, so one group lands on one reducer.
    fn partition(&self, key: &[u8], num_reduces: u32) -> u32 {
        if num_reduces <= 1 {
            return 0;
        }
        let (primary, _) = split_key(key);
        primary % num_reduces
    }

    /// Group by primary only: adjacent keys with the same primary reduce
    /// together, receiving values in secondary order.
    fn same_group(&self, a: &[u8], b: &[u8]) -> bool {
        split_key(a).0 == split_key(b).0
    }

    fn model(&self) -> WorkloadModel {
        WorkloadModel {
            name: "secondarysort",
            map_output_ratio: 1.0,
            reduce_output_ratio: 0.95,
            record_size: 8 + SECONDARYSORT_PAYLOAD_LEN as u64 + 8,
            map_cpu_secs_per_gb: 15.0,
            // Heavy reduce: per-group processing of ordered secondaries.
            reduce_cpu_secs_per_gb: 45.0,
            deser_secs_per_record: 1.2e-6,
            partition_imbalance: 1.15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn key_codec_round_trips() {
        let k = composite_key(7, 99);
        assert_eq!(split_key(&k), (7, 99));
        assert_eq!(k.len(), 8);
    }

    #[test]
    fn grouping_ignores_secondary() {
        let w = SecondarySort::small();
        assert!(w.same_group(&composite_key(5, 1), &composite_key(5, 900)));
        assert!(!w.same_group(&composite_key(5, 1), &composite_key(6, 1)));
    }

    #[test]
    fn partition_constant_within_group() {
        let w = SecondarySort::small();
        let p1 = w.partition(&composite_key(42, 0), 7);
        let p2 = w.partition(&composite_key(42, u32::MAX), 7);
        assert_eq!(p1, p2);
    }

    #[test]
    fn generation_deterministic() {
        let w = SecondarySort::small();
        assert_eq!(w.gen_split(1, 5), w.gen_split(1, 5));
        assert_ne!(w.gen_split(1, 5), w.gen_split(2, 5));
    }

    proptest! {
        #[test]
        fn key_codec_prop(p in proptest::num::u32::ANY, s in proptest::num::u32::ANY) {
            prop_assert_eq!(split_key(&composite_key(p, s)), (p, s));
        }

        /// Byte-wise ordering of the BE composite key matches the semantic
        /// composite ordering, so the pipeline's one bytewise key order
        /// sorts by primary, then secondary.
        #[test]
        fn bytes_order_matches_semantic(p1 in proptest::num::u32::ANY, s1 in proptest::num::u32::ANY,
                                        p2 in proptest::num::u32::ANY, s2 in proptest::num::u32::ANY) {
            let (a, b) = (composite_key(p1, s1), composite_key(p2, s2));
            prop_assert_eq!(a.cmp(&b), (p1, s1).cmp(&(p2, s2)));
        }
    }
}
