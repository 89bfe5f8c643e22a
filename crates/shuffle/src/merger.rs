//! Merge execution and planning.
//!
//! Merging is "widely recognized as a major bottleneck in the ReduceTask
//! execution" (§IV-A) — these helpers are the single implementation used by
//! the map side (spill merging), the reduce side (in-memory flushes and
//! on-disk factor merges) and FCM's Local-MPQ pre-merging.

use bytes::Bytes;

use crate::codec;
use crate::error::Result;
use crate::localfs::LocalFs;
use crate::mpq::MergeQueue;
use crate::segment::{SegmentReader, SegmentSource};
use crate::{Combiner, KeyCmp};

/// Merge sorted segments into one encoded stream. When a combiner is given,
/// runs of *byte-equal* keys are folded through it (map-side semantics).
/// Records are copied straight from the input segments' slices.
pub fn merge_readers(readers: Vec<SegmentReader>, combiner: Option<&Combiner>) -> Result<Vec<u8>> {
    let mut q = MergeQueue::new(KeyCmp, readers);
    let mut out = Vec::new();
    match combiner {
        None => {
            // Without a combiner the output is exactly the input.
            out.reserve_exact(q.remaining_bytes());
            while q.pop_with(|k, v| codec::encode_into(&mut out, k, v))?.is_some() {}
        }
        Some(c) => {
            let mut key: Vec<u8> = Vec::new();
            let mut vals: Vec<Vec<u8>> = Vec::new();
            while let Some((k, _)) = q.peek() {
                key.clear();
                key.extend_from_slice(k);
                vals.clear();
                while q.peek().is_some_and(|(k, _)| k == key) {
                    q.pop_with(|_, v| vals.push(v.to_vec()))?;
                }
                match c(&key, &vals) {
                    Some(combined) => codec::encode_into(&mut out, &key, &combined),
                    None => {
                        for v in &vals {
                            codec::encode_into(&mut out, &key, v);
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Merge in-memory segment blobs into a single blob.
pub fn merge_memory_segments(segments: &[Bytes], combiner: Option<&Combiner>) -> Result<Bytes> {
    let readers: Vec<SegmentReader> = segments
        .iter()
        .enumerate()
        .map(|(i, b)| SegmentReader::new(SegmentSource::Memory { id: i as u64 }, b.clone()))
        .collect::<Result<_>>()?;
    Ok(Bytes::from(merge_readers(readers, combiner)?))
}

/// Merge a set of on-disk segments into one new file; returns its path.
pub fn merge_files_to(
    fs: &dyn LocalFs,
    inputs: &[String],
    output_path: &str,
    combiner: Option<&Combiner>,
    delete_inputs: bool,
) -> Result<String> {
    let readers: Vec<SegmentReader> = inputs
        .iter()
        .map(|p| SegmentReader::new(SegmentSource::LocalFile { path: p.clone() }, fs.read(p)?))
        .collect::<Result<_>>()?;
    let merged = merge_readers(readers, combiner)?;
    fs.write(output_path, Bytes::from(merged))?;
    if delete_inputs {
        for p in inputs {
            fs.delete(p);
        }
    }
    Ok(output_path.to_string())
}

/// Repeatedly merge the smallest `factor` on-disk segments until at most
/// `factor` remain (Hadoop's multi-pass factor merge, driven by
/// `mapreduce.task.io.sort.factor`). Returns the surviving paths and the
/// number of merge rounds performed.
pub fn factor_merge(
    fs: &dyn LocalFs,
    _order: &KeyCmp,
    mut paths: Vec<String>,
    factor: usize,
    scratch_prefix: &str,
) -> Result<(Vec<String>, usize)> {
    let factor = factor.max(2);
    let mut round = 0;
    while paths.len() > factor {
        // Merge the smallest segments first (Hadoop's heuristic): sort by
        // size descending so we can pop the smallest off the back.
        let mut sized: Vec<(u64, String)> =
            paths.iter().map(|p| Ok((fs.read(p)?.len() as u64, p.clone()))).collect::<Result<_>>()?;
        sized.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let take = factor.min(sized.len() - 1).max(2); // always leave progress room
        let batch: Vec<String> = sized.split_off(sized.len() - take).into_iter().map(|(_, p)| p).collect();
        let out_path = format!("{scratch_prefix}merged-{round}.out");
        merge_files_to(fs, &batch, &out_path, None, true)?;
        paths = sized.into_iter().map(|(_, p)| p).collect();
        paths.push(out_path);
        round += 1;
    }
    Ok((paths, round))
}

/// Number of merge rounds `factor_merge` will need for `n` segments —
/// used by the simulator's cost model so virtual merge time matches the
/// real engine's pass structure.
pub fn merge_rounds(n: usize, factor: usize) -> usize {
    let factor = factor.max(2);
    let mut n = n;
    let mut rounds = 0;
    while n > factor {
        let take = factor.min(n - 1).max(2);
        n = n - take + 1;
        rounds += 1;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytewise_cmp;
    use crate::localfs::MemFs;
    use crate::segment::build_segment;
    use std::sync::Arc;

    fn recs(pairs: &[(&str, &str)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        pairs.iter().map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec())).collect()
    }

    fn decode_all(data: &Bytes) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        let mut off = 0;
        while let Some((k, v, next)) = codec::decode_at(data, off).unwrap() {
            out.push((k.to_vec(), v.to_vec()));
            off = next;
        }
        out
    }

    #[test]
    fn memory_merge_without_combiner() {
        let s1 = build_segment(&recs(&[("a", "1"), ("c", "3")]));
        let s2 = build_segment(&recs(&[("b", "2")]));
        let merged = merge_memory_segments(&[s1, s2], None).unwrap();
        assert_eq!(decode_all(&merged), recs(&[("a", "1"), ("b", "2"), ("c", "3")]));
    }

    #[test]
    fn combiner_folds_equal_keys() {
        // Values are ASCII digits; the combiner sums them.
        let sum: Combiner = Arc::new(|_k: &[u8], vals: &[Vec<u8>]| {
            let total: u32 = vals.iter().map(|v| String::from_utf8_lossy(v).parse::<u32>().unwrap()).sum();
            Some(total.to_string().into_bytes())
        });
        let s1 = build_segment(&recs(&[("a", "1"), ("b", "5")]));
        let s2 = build_segment(&recs(&[("a", "2"), ("a", "3")]));
        let merged = merge_memory_segments(&[s1, s2], Some(&sum)).unwrap();
        assert_eq!(decode_all(&merged), recs(&[("a", "6"), ("b", "5")]));
    }

    #[test]
    fn file_merge_writes_and_optionally_deletes() {
        let fs = MemFs::new();
        fs.write("in1", build_segment(&recs(&[("a", "1")]))).unwrap();
        fs.write("in2", build_segment(&recs(&[("b", "2")]))).unwrap();
        merge_files_to(&fs, &["in1".into(), "in2".into()], "out", None, true).unwrap();
        assert!(fs.exists("out"));
        assert!(!fs.exists("in1") && !fs.exists("in2"));
        assert_eq!(decode_all(&fs.read("out").unwrap()), recs(&[("a", "1"), ("b", "2")]));
    }

    #[test]
    fn factor_merge_reduces_count_and_preserves_data() {
        let fs = MemFs::new();
        let mut paths = Vec::new();
        let mut all = Vec::new();
        for i in 0..10 {
            let seg = recs(&[(&format!("k{i:02}"), "v")]);
            let p = format!("seg{i}");
            fs.write(&p, build_segment(&seg)).unwrap();
            paths.push(p);
            all.extend(seg);
        }
        let (out, rounds) = factor_merge(&fs, &bytewise_cmp(), paths, 3, "scratch/").unwrap();
        assert!(out.len() <= 3);
        assert!(rounds > 0);
        // All records survive across the surviving segments.
        let mut survived = Vec::new();
        for p in &out {
            survived.extend(decode_all(&fs.read(p).unwrap()));
        }
        survived.sort();
        all.sort();
        assert_eq!(survived, all);
    }

    #[test]
    fn factor_merge_noop_when_already_small() {
        let fs = MemFs::new();
        fs.write("s", build_segment(&recs(&[("a", "1")]))).unwrap();
        let (out, rounds) = factor_merge(&fs, &bytewise_cmp(), vec!["s".into()], 10, "x/").unwrap();
        assert_eq!(out, vec!["s".to_string()]);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn merge_rounds_model_matches_execution() {
        for n in [0usize, 1, 2, 3, 5, 10, 23, 101, 250] {
            for factor in [2usize, 3, 10, 100] {
                let fs = MemFs::new();
                let mut paths = Vec::new();
                for i in 0..n {
                    let p = format!("s{i}");
                    fs.write(&p, build_segment(&recs(&[(&format!("k{i:03}"), "v")]))).unwrap();
                    paths.push(p);
                }
                let (_, rounds) = factor_merge(&fs, &bytewise_cmp(), paths, factor, "m/").unwrap();
                assert_eq!(rounds, merge_rounds(n, factor), "n={n} factor={factor}");
            }
        }
    }
}
