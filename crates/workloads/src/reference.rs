//! A trivially-correct, in-memory reference MapReduce executor.
//!
//! No buffers, no spills, no shuffle — just map, sort, group, reduce. The
//! real engines are tested against this oracle: whatever failures were
//! injected, a job that "succeeded" must produce exactly the reference
//! output.
//!
//! The executor owns every intermediate record, so it moves them and never
//! clones them: each partition is sorted in place, and each group's key and
//! values are moved out of it into one values vector that is reused across
//! groups. The sort is `sort_unstable`, and that is exact: [`Record`]'s
//! derived order is `(key, value)`, so two records that tie on it are
//! byte-identical, and no permutation among them can change the output.
//!
//! It stays single-threaded on purpose. A thread per split and per partition
//! shortens one large call, but `alm-mem`'s chain engines call it once per
//! iteration, and their `bench_mem` iterations were slower with threads.

use crate::record::Record;
use crate::Workload;

/// Execute `workload` over `num_splits` generated splits and return each
/// reduce partition's output records, in emission order.
pub fn reference_output(
    workload: &dyn Workload,
    num_splits: u32,
    num_reduces: u32,
    seed: u64,
) -> Vec<Vec<Record>> {
    let num_reduces = num_reduces.max(1);
    // Map phase.
    let mut intermediate: Vec<Vec<Record>> = vec![Vec::new(); num_reduces as usize];
    for split in 0..num_splits {
        for rec in workload.gen_split(split, seed) {
            workload.map(&rec, &mut |out: Record| {
                intermediate[workload.partition(&out.key, num_reduces) as usize].push(out);
            });
        }
    }

    // Per-partition sort + group + reduce.
    let mut values = Vec::new();
    intermediate
        .into_iter()
        .map(|mut part| {
            part.sort_unstable();
            let mut out = Vec::new();
            let mut records = part.into_iter().peekable();
            while let Some(Record { key, value }) = records.next() {
                values.clear();
                values.push(value);
                while let Some(next) = records.next_if(|r| workload.same_group(&key, &r.key)) {
                    values.push(next.value);
                }
                workload.reduce(&key, &values, &mut |r| out.push(r));
            }
            out
        })
        .collect()
}

/// Flatten + sort a partitioned output for order-insensitive comparison.
pub fn canonicalize(parts: &[Vec<Record>]) -> Vec<Record> {
    let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    all.extend(parts.iter().flatten().cloned());
    all.sort_unstable();
    all
}

/// The executor as it was before it moved records: a stable sort through a
/// comparator, then a clone of every group key and value. Kept as the oracle
/// the moving executor is checked against.
#[cfg(test)]
fn reference_output_by_cloning(
    workload: &dyn Workload,
    num_splits: u32,
    num_reduces: u32,
    seed: u64,
) -> Vec<Vec<Record>> {
    // Map phase.
    let mut intermediate: Vec<Vec<Record>> = vec![Vec::new(); num_reduces.max(1) as usize];
    for split in 0..num_splits {
        for rec in workload.gen_split(split, seed) {
            let buckets = &mut intermediate;
            workload.map(&rec, &mut |out: Record| {
                let p = workload.partition(&out.key, num_reduces.max(1)) as usize;
                buckets[p].push(out);
            });
        }
    }

    // Per-partition sort + group + reduce.
    intermediate
        .into_iter()
        .map(|mut part| {
            part.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
            let mut out = Vec::new();
            let mut i = 0;
            while i < part.len() {
                let group_key = part[i].key.clone();
                let mut values = Vec::new();
                while i < part.len() && workload.same_group(&group_key, &part[i].key) {
                    values.push(part[i].value.clone());
                    i += 1;
                }
                workload.reduce(&group_key, &values, &mut |r| out.push(r));
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KMeans, Pagerank, SecondarySort, Terasort, Wordcount, WorkloadModel};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Keys of one or two letters from `{a, b}` and values of up to two bytes
    /// from `{0, 1, 2}`, so keys tie often and whole records sometimes do. A
    /// group is every key with the same first letter, so a group spans
    /// several keys. The reduce re-emits each value in the order it got
    /// them, under the group's first key with the group's size appended:
    /// both the value order and the group boundaries show in the output.
    enum TwoLetters {
        /// This many random records per split.
        Random(u32),
        /// Every split is this list.
        Fixed(Vec<Record>),
    }

    impl Workload for TwoLetters {
        fn name(&self) -> &'static str {
            "two-letters"
        }

        fn gen_split(&self, split_index: u32, seed: u64) -> Vec<Record> {
            match self {
                TwoLetters::Fixed(records) => records.clone(),
                TwoLetters::Random(records_per_split) => {
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ (u64::from(split_index) << 32));
                    (0..*records_per_split)
                        .map(|_| {
                            let key: Vec<u8> = (0..rng.random_range(1u8..=2))
                                .map(|_| b"ab"[rng.random_range(0usize..2)])
                                .collect();
                            let value: Vec<u8> =
                                (0..rng.random_range(0u8..=2)).map(|_| rng.random_range(0u8..3)).collect();
                            Record::new(key, value)
                        })
                        .collect()
                }
            }
        }

        fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record)) {
            emit(rec.clone());
        }

        fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record)) {
            let group_key = [key, &[values.len() as u8]].concat();
            for v in values {
                emit(Record::new(group_key.clone(), v.clone()));
            }
        }

        fn partition(&self, key: &[u8], num_reduces: u32) -> u32 {
            u32::from(key[0]) % num_reduces
        }

        fn same_group(&self, a: &[u8], b: &[u8]) -> bool {
            a[0] == b[0]
        }

        fn model(&self) -> WorkloadModel {
            Terasort::new(0).model()
        }
    }

    fn workload(index: usize, size: u32, splits: u32, seed: u64) -> Box<dyn Workload> {
        match index {
            0 => Box::new(Terasort::new(size)),
            1 => Box::new(Wordcount::new(size * 4, 5)),
            2 => Box::new(SecondarySort::new(size)),
            3 => Box::new(KMeans::initial(1 + size % 5, size, splits, seed)),
            4 => Box::new(Pagerank::initial(size, splits, seed)),
            _ => Box::new(TwoLetters::Random(size)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The moving, unstably sorting executor emits exactly what the
        /// cloning, stably sorting one did: every partition, in order.
        #[test]
        fn moving_executor_equals_the_cloning_one(
            index in 0usize..6,
            size in 0u32..40,
            splits in 0u32..5,
            reduces in 0u32..6,
            seed in proptest::num::u64::ANY,
        ) {
            let w = workload(index, size, splits, seed);
            prop_assert_eq!(
                reference_output(w.as_ref(), splits, reduces, seed),
                reference_output_by_cloning(w.as_ref(), splits, reduces, seed),
                "{} with {} splits of {}, {} reduces, seed {}", w.name(), splits, size, reduces, seed
            );
        }
    }

    #[test]
    fn values_tied_on_their_key_reduce_in_value_order() {
        let rec = |k: &[u8], v: u8| Record::new(k.to_vec(), vec![v]);
        let w = TwoLetters::Fixed(vec![
            rec(b"b", 2),
            rec(b"a", 1),
            rec(b"ab", 0),
            rec(b"a", 0),
            rec(b"b", 1),
            rec(b"a", 1),
        ]);
        // Sorted: a/0 a/1 a/1 ab/0 | b/1 b/2. Group "a" holds four values
        // across two keys; group "b" holds two.
        let want = vec![vec![
            rec(b"a\x04", 0),
            rec(b"a\x04", 1),
            rec(b"a\x04", 1),
            rec(b"a\x04", 0),
            rec(b"b\x02", 1),
            rec(b"b\x02", 2),
        ]];
        assert_eq!(reference_output(&w, 1, 1, 0), want);
        assert_eq!(reference_output_by_cloning(&w, 1, 1, 0), want);
    }

    #[test]
    fn terasort_reference_is_sorted_identity() {
        let w = Terasort::new(200);
        let out = reference_output(&w, 2, 4, 7);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 400, "identity reduce preserves every record");
        // Within each partition, output keys are sorted; across partitions,
        // ranges are ordered (total-order partitioner).
        for part in &out {
            for w in part.windows(2) {
                assert!(w[0].key <= w[1].key);
            }
        }
        for pair in out.windows(2) {
            if let (Some(last), Some(first)) = (pair[0].last(), pair[1].first()) {
                assert!(last.key <= first.key, "total order across partitions");
            }
        }
    }

    #[test]
    fn wordcount_reference_counts_total_words() {
        let w = Wordcount::new(1000, 10);
        let out = reference_output(&w, 1, 3, 9);
        let total: u64 = out
            .iter()
            .flatten()
            .map(|r| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&r.value);
                u64::from_be_bytes(arr)
            })
            .sum();
        assert_eq!(total, 1000, "counts must sum to the number of generated words");
    }

    #[test]
    fn secondarysort_groups_ordered_by_secondary() {
        let w = SecondarySort::new(500);
        let out = reference_output(&w, 1, 4, 3);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn canonicalize_is_order_insensitive() {
        let a = vec![
            vec![Record::new(b"b".to_vec(), b"2".to_vec())],
            vec![Record::new(b"a".to_vec(), b"1".to_vec())],
        ];
        let b = vec![
            vec![Record::new(b"a".to_vec(), b"1".to_vec()), Record::new(b"b".to_vec(), b"2".to_vec())],
            vec![],
        ];
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn deterministic() {
        let w = Terasort::new(50);
        assert_eq!(reference_output(&w, 2, 3, 1), reference_output(&w, 2, 3, 1));
    }
}
