//! A trivially-correct, in-memory reference MapReduce executor.
//!
//! No buffers, no spills, no shuffle — just map, global sort, group,
//! reduce. The real engines are tested against this oracle: whatever
//! failures were injected, a job that "succeeded" must produce exactly the
//! reference output.

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

/// Flatten + sort a partitioned output for order-insensitive comparison.
pub fn canonicalize(parts: &[Vec<Record>]) -> Vec<Record> {
    let mut all: Vec<Record> = parts.iter().flatten().cloned().collect();
    all.sort();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SecondarySort, Terasort, Wordcount};

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
