//! The map-side sort buffer.
//!
//! Map output is collected as `(partition, key, value)` triples into a
//! bounded buffer; when the buffer exceeds its spill threshold it is sorted
//! by `(partition, key)` and spilled as one sorted run per partition.
//! Committing the task merges all spills per partition (applying the
//! combiner) into the final MOF — the Hadoop kvbuffer/spill/merge design
//! the paper's §II-A describes.

use crate::error::Result;
use crate::localfs::LocalFs;
use crate::merger;
use crate::mof::{write_mof, MofData};
use crate::segment::{SegmentReader, SegmentSource};
use crate::{codec, Combiner, KeyCmp};

/// Map-side collector for one MapTask attempt.
pub struct MapOutputBuffer {
    cmp: KeyCmp,
    combiner: Option<Combiner>,
    num_partitions: u32,
    /// Spill when buffered bytes exceed this.
    spill_threshold: u64,
    /// Path prefix on the node store, e.g. `"map/{attempt}/"`.
    prefix: String,
    records: Vec<(u32, Vec<u8>, Vec<u8>)>,
    buffered_bytes: u64,
    /// Per partition: the spill-file paths produced so far.
    spilled: Vec<Vec<String>>,
    spill_count: u32,
    total_records: u64,
}

impl MapOutputBuffer {
    pub fn new(
        cmp: KeyCmp,
        combiner: Option<Combiner>,
        num_partitions: u32,
        spill_threshold: u64,
        prefix: impl Into<String>,
    ) -> MapOutputBuffer {
        MapOutputBuffer {
            cmp,
            combiner,
            num_partitions: num_partitions.max(1),
            spill_threshold: spill_threshold.max(1),
            prefix: prefix.into(),
            records: Vec::new(),
            buffered_bytes: 0,
            spilled: vec![Vec::new(); num_partitions.max(1) as usize],
            spill_count: 0,
            total_records: 0,
        }
    }

    /// Collect one intermediate record; spills synchronously when full.
    pub fn collect(&mut self, fs: &dyn LocalFs, partition: u32, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        debug_assert!(partition < self.num_partitions, "partition out of range");
        self.buffered_bytes += codec::encoded_len(key.len(), value.len()) as u64;
        self.records.push((partition.min(self.num_partitions - 1), key, value));
        self.total_records += 1;
        if self.buffered_bytes >= self.spill_threshold {
            self.spill(fs)?;
        }
        Ok(())
    }

    /// Number of spills performed so far (observability/tests).
    pub fn spill_count(&self) -> u32 {
        self.spill_count
    }

    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Sort the buffer and write one sorted run per non-empty partition.
    fn spill(&mut self, fs: &dyn LocalFs) -> Result<()> {
        if self.records.is_empty() {
            return Ok(());
        }
        let cmp = self.cmp.clone();
        self.records.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| cmp(&a.1, &b.1)));
        let spill_id = self.spill_count;
        self.spill_count += 1;

        let mut i = 0;
        while i < self.records.len() {
            let part = self.records[i].0;
            let start = i;
            while i < self.records.len() && self.records[i].0 == part {
                i += 1;
            }
            let mut buf = Vec::new();
            for (_, k, v) in &self.records[start..i] {
                codec::encode_into(&mut buf, k, v);
            }
            // Combine within the spill immediately: Hadoop runs the combiner
            // per spill, which is what makes Wordcount's shuffle tiny.
            let buf = if self.combiner.is_some() {
                let reader = SegmentReader::new(SegmentSource::Memory { id: 0 }, bytes::Bytes::from(buf))?;
                merger::merge_readers(&self.cmp, vec![reader], self.combiner.as_ref())?
            } else {
                buf
            };
            let path = format!("{}spill{}/part{}", self.prefix, spill_id, part);
            fs.write(&path, bytes::Bytes::from(buf))?;
            self.spilled[part as usize].push(path);
        }
        self.records.clear();
        self.buffered_bytes = 0;
        Ok(())
    }

    /// Commit: spill the remainder, merge all spills per partition (with
    /// the combiner) and write the final MOF at `"{prefix}file.out"`.
    /// Spill files are deleted after the merge.
    pub fn finish(mut self, fs: &dyn LocalFs) -> Result<MofData> {
        self.spill(fs)?;
        let mut partitions: Vec<Vec<u8>> = Vec::with_capacity(self.num_partitions as usize);
        for part in 0..self.num_partitions {
            let paths = std::mem::take(&mut self.spilled[part as usize]);
            let merged = match paths.len() {
                0 => Vec::new(),
                1 => {
                    // Single spill: already sorted and combined; move as-is.
                    let data = fs.read(&paths[0])?.to_vec();
                    fs.delete(&paths[0]);
                    data
                }
                _ => {
                    let readers: Vec<SegmentReader> = paths
                        .iter()
                        .map(|p| {
                            SegmentReader::new(SegmentSource::LocalFile { path: p.clone() }, fs.read(p)?)
                        })
                        .collect::<Result<_>>()?;
                    let merged = merger::merge_readers(&self.cmp, readers, self.combiner.as_ref())?;
                    for p in &paths {
                        fs.delete(p);
                    }
                    merged
                }
            };
            partitions.push(merged);
        }
        write_mof(fs, &format!("{}file.out", self.prefix), partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytewise_cmp;
    use crate::localfs::MemFs;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn decode_keys(data: &Bytes) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut off = 0;
        while let Some((k, _, next)) = codec::decode_at(data, off).unwrap() {
            out.push(k.to_vec());
            off = next;
        }
        out
    }

    #[test]
    fn partitions_are_sorted_and_routed() {
        let fs = MemFs::new();
        let mut b = MapOutputBuffer::new(bytewise_cmp(), None, 2, u64::MAX, "m/");
        b.collect(&fs, 1, b"z".to_vec(), b"1".to_vec()).unwrap();
        b.collect(&fs, 0, b"m".to_vec(), b"2".to_vec()).unwrap();
        b.collect(&fs, 1, b"a".to_vec(), b"3".to_vec()).unwrap();
        let mof = b.finish(&fs).unwrap();
        let p0 = mof.read_partition(&fs, 0).unwrap();
        let p1 = mof.read_partition(&fs, 1).unwrap();
        assert_eq!(decode_keys(&p0), vec![b"m".to_vec()]);
        assert_eq!(decode_keys(&p1), vec![b"a".to_vec(), b"z".to_vec()]);
    }

    #[test]
    fn small_threshold_forces_spills_and_merge_preserves_order() {
        let fs = MemFs::new();
        let mut b = MapOutputBuffer::new(bytewise_cmp(), None, 1, 64, "m/");
        let mut keys: Vec<Vec<u8>> =
            (0..100u32).map(|i| format!("k{:03}", (i * 37) % 100).into_bytes()).collect();
        for k in &keys {
            b.collect(&fs, 0, k.clone(), b"v".to_vec()).unwrap();
        }
        assert!(b.spill_count() > 1, "threshold must have forced multiple spills");
        let mof = b.finish(&fs).unwrap();
        let got = decode_keys(&mof.read_partition(&fs, 0).unwrap());
        keys.sort();
        assert_eq!(got, keys);
        // Spill files cleaned up: only the MOF remains.
        assert_eq!(fs.list("m/").len(), 1);
    }

    #[test]
    fn combiner_applies_across_spills() {
        let sum: Combiner = Arc::new(|_k, vals: &[Vec<u8>]| {
            Some((vals.len() as u32).to_be_bytes().to_vec()) // count occurrences
        });
        let fs = MemFs::new();
        let mut b = MapOutputBuffer::new(bytewise_cmp(), Some(sum), 1, 48, "m/");
        for _ in 0..10 {
            b.collect(&fs, 0, b"word".to_vec(), b"x".to_vec()).unwrap();
        }
        let mof = b.finish(&fs).unwrap();
        let data = mof.read_partition(&fs, 0).unwrap();
        // All ten occurrences collapse to one record (counts recombined).
        let keys = decode_keys(&data);
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn empty_map_output_gives_empty_partitions() {
        let fs = MemFs::new();
        let b = MapOutputBuffer::new(bytewise_cmp(), None, 3, 1024, "m/");
        let mof = b.finish(&fs).unwrap();
        assert_eq!(mof.num_partitions(), 3);
        assert_eq!(mof.total_bytes(), 0);
    }

    proptest! {
        /// The pipeline (buffer -> spills -> merged MOF) emits, per
        /// partition, exactly the input multiset in sorted order —
        /// regardless of the spill threshold.
        #[test]
        fn pipeline_equals_sort(
            records in proptest::collection::vec(
                (0u32..4, proptest::collection::vec(0u8..=255, 1..6), proptest::collection::vec(0u8..=255, 0..6)), 0..120),
            threshold in 16u64..4096,
        ) {
            let fs = MemFs::new();
            let mut b = MapOutputBuffer::new(bytewise_cmp(), None, 4, threshold, "m/");
            for (p, k, v) in &records {
                b.collect(&fs, *p, k.clone(), v.clone()).unwrap();
            }
            let mof = b.finish(&fs).unwrap();
            for part in 0..4u32 {
                let mut expected: Vec<(Vec<u8>, Vec<u8>)> = records.iter()
                    .filter(|(p, _, _)| *p == part)
                    .map(|(_, k, v)| (k.clone(), v.clone()))
                    .collect();
                expected.sort_by(|a, b| a.0.cmp(&b.0));
                let data = mof.read_partition(&fs, part).unwrap();
                let mut got = Vec::new();
                let mut off = 0;
                while let Some((k, v, next)) = codec::decode_at(&data, off).unwrap() {
                    got.push((k.to_vec(), v.to_vec()));
                    off = next;
                }
                // Same keys in order; same multiset of pairs.
                let got_keys: Vec<&Vec<u8>> = got.iter().map(|(k, _)| k).collect();
                let exp_keys: Vec<&Vec<u8>> = expected.iter().map(|(k, _)| k).collect();
                prop_assert_eq!(got_keys, exp_keys);
                let mut g = got.clone(); g.sort();
                let mut e = expected.clone(); e.sort();
                prop_assert_eq!(g, e);
            }
        }
    }
}
