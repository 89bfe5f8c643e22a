//! The map-side sort buffer.
//!
//! Hadoop's kvbuffer/kvmeta design (`io.sort.mb`, the sort buffer of the
//! paper's §II-A). [`MapOutputBuffer::collect`] appends each record, already
//! in the [`codec`] wire format, to one byte arena (the *kvbuffer*) and
//! pushes a fixed-size metadata entry (the *kvmeta*: partition, key prefix,
//! offset, key length, record length). When the arena reaches the spill
//! threshold only the metadata is sorted, by `(partition, key)`: the key's
//! first eight bytes ride in the entry as a big-endian integer, so the sort
//! compares integers and reads keys from the arena only when two prefixes
//! tie (Spark's Tungsten sorter does the same). Each partition's run is then
//! gather-copied out of the arena in that order and spilled, and the arena
//! and metadata are cleared for reuse. Committing the task merges all spills
//! per partition (applying the combiner) into the final MOF.

use bytes::Bytes;

use crate::error::Result;
use crate::localfs::LocalFs;
use crate::merger;
use crate::mof::{write_mof, MofData};
use crate::segment::{SegmentReader, SegmentSource};
use crate::{codec, Combiner, KeyCmp};

/// One kvmeta entry: where a collected record lies in the kvbuffer.
struct KvMeta {
    partition: u32,
    key_len: u32,
    /// [`key_prefix`] of the key.
    prefix: u64,
    /// Offset of the record's header in the kvbuffer.
    offset: usize,
    /// Header, key and value bytes.
    len: usize,
}

impl KvMeta {
    fn key<'a>(&self, kvbuffer: &'a [u8]) -> &'a [u8] {
        let start = self.offset + codec::HEADER_LEN;
        &kvbuffer[start..start + self.key_len as usize]
    }
}

/// The key's first eight bytes as a big-endian integer, zero-padded. Bytewise
/// key order never contradicts prefix order (`a <= b` implies
/// `key_prefix(a) <= key_prefix(b)`), so only equal prefixes need the keys.
fn key_prefix(key: &[u8]) -> u64 {
    let mut prefix = [0u8; 8];
    let n = key.len().min(8);
    prefix[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(prefix)
}

/// Map-side collector for one MapTask attempt.
pub struct MapOutputBuffer {
    combiner: Option<Combiner>,
    num_partitions: u32,
    /// Spill when the kvbuffer holds at least this many bytes.
    spill_threshold: u64,
    /// Path prefix on the node store, e.g. `"map/{attempt}/"`.
    prefix: String,
    /// Collected records back to back, in wire format.
    kvbuffer: Vec<u8>,
    /// One entry per record in `kvbuffer`, in collect order until a spill
    /// sorts it.
    kvmeta: Vec<KvMeta>,
    /// Per partition: the spill-file paths produced so far.
    spilled: Vec<Vec<String>>,
    spill_count: u32,
}

impl MapOutputBuffer {
    pub fn new(
        _order: KeyCmp,
        combiner: Option<Combiner>,
        num_partitions: u32,
        spill_threshold: u64,
        prefix: impl Into<String>,
    ) -> MapOutputBuffer {
        MapOutputBuffer {
            combiner,
            num_partitions: num_partitions.max(1),
            spill_threshold: spill_threshold.max(1),
            prefix: prefix.into(),
            kvbuffer: Vec::new(),
            kvmeta: Vec::new(),
            spilled: vec![Vec::new(); num_partitions.max(1) as usize],
            spill_count: 0,
        }
    }

    /// Collect one intermediate record; spills synchronously when full.
    pub fn collect(&mut self, fs: &dyn LocalFs, partition: u32, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        debug_assert!(partition < self.num_partitions, "partition out of range");
        let offset = self.kvbuffer.len();
        codec::encode_into(&mut self.kvbuffer, &key, &value);
        self.kvmeta.push(KvMeta {
            partition: partition.min(self.num_partitions - 1),
            key_len: key.len() as u32,
            prefix: key_prefix(&key),
            offset,
            len: self.kvbuffer.len() - offset,
        });
        if self.kvbuffer.len() as u64 >= self.spill_threshold {
            self.spill(fs)?;
        }
        Ok(())
    }

    /// Number of spills performed so far (observability/tests).
    pub fn spill_count(&self) -> u32 {
        self.spill_count
    }

    /// Sort the metadata and write one sorted run per non-empty partition.
    fn spill(&mut self, fs: &dyn LocalFs) -> Result<()> {
        if self.kvmeta.is_empty() {
            return Ok(());
        }
        let kvbuffer = &self.kvbuffer;
        // Stable: equal keys keep collect order.
        self.kvmeta.sort_by(|a, b| {
            (a.partition, a.prefix)
                .cmp(&(b.partition, b.prefix))
                .then_with(|| a.key(kvbuffer).cmp(b.key(kvbuffer)))
        });
        let spill_id = self.spill_count;
        self.spill_count += 1;

        for run in self.kvmeta.chunk_by(|a, b| a.partition == b.partition) {
            let part = run[0].partition;
            let mut buf = Vec::with_capacity(run.iter().map(|m| m.len).sum());
            for m in run {
                buf.extend_from_slice(&kvbuffer[m.offset..m.offset + m.len]);
            }
            let mut buf = Bytes::from(buf);
            // Combine within the spill immediately: Hadoop runs the combiner
            // per spill, which is what makes Wordcount's shuffle tiny.
            if let Some(combiner) = &self.combiner {
                let reader = SegmentReader::new(SegmentSource::Memory { id: 0 }, buf)?;
                buf = Bytes::from(merger::merge_readers(vec![reader], Some(combiner))?);
            }
            let path = format!("{}spill{}/part{}", self.prefix, spill_id, part);
            fs.write(&path, buf)?;
            self.spilled[part as usize].push(path);
        }
        self.kvbuffer.clear();
        self.kvmeta.clear();
        Ok(())
    }

    /// Commit: spill the remainder, merge all spills per partition (with
    /// the combiner) and write the final MOF at `"{prefix}file.out"`.
    /// Spill files are deleted after the merge.
    pub fn finish(mut self, fs: &dyn LocalFs) -> Result<MofData> {
        self.spill(fs)?;
        // The arena's work is done; do not hold it through the merge.
        self.kvbuffer = Vec::new();
        self.kvmeta = Vec::new();
        let mut partitions: Vec<Bytes> = Vec::with_capacity(self.num_partitions as usize);
        for paths in &self.spilled {
            let merged = match paths.as_slice() {
                [] => Bytes::new(),
                // Single spill: already sorted and combined.
                [path] => fs.read(path)?,
                _ => {
                    let readers: Vec<SegmentReader> = paths
                        .iter()
                        .map(|p| {
                            SegmentReader::new(SegmentSource::LocalFile { path: p.clone() }, fs.read(p)?)
                        })
                        .collect::<Result<_>>()?;
                    Bytes::from(merger::merge_readers(readers, self.combiner.as_ref())?)
                }
            };
            for p in paths {
                fs.delete(p);
            }
            partitions.push(merged);
        }
        write_mof(fs, &format!("{}file.out", self.prefix), &partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytewise_cmp;
    use crate::localfs::MemFs;
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
        /// partition, exactly the input stable-sorted by key — regardless of
        /// the spill threshold. Keys come from a small pool, so most repeat,
        /// and each value is its record's collect index: equal keys must
        /// come out in collect order within and across spills. Pool keys are
        /// 0–12-byte cuts of two 12-byte strings that share their first
        /// seven bytes and hold zeros there, so 8-byte prefixes often tie
        /// (long keys) or match only through padding (short keys).
        #[test]
        fn pipeline_equals_sort(
            pool in proptest::collection::vec((0usize..2, 0usize..=12, proptest::collection::vec(0u8..=2, 4)), 1..12),
            picks in proptest::collection::vec((0u32..4, 0usize..64), 0..160),
            threshold in 16u64..1024,
        ) {
            let stems: [[u8; 8]; 2] = [[7, 0, 0, 1, 0, 0, 0, 0], [7, 0, 0, 1, 0, 0, 0, 1]];
            let pool: Vec<Vec<u8>> = pool
                .iter()
                .map(|(stem, len, tail)| stems[*stem].iter().chain(tail).copied().take(*len).collect())
                .collect();
            let records: Vec<(u32, Vec<u8>, Vec<u8>)> = picks
                .iter()
                .enumerate()
                .map(|(i, &(p, k))| (p, pool[k % pool.len()].clone(), (i as u32).to_be_bytes().to_vec()))
                .collect();
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
                prop_assert_eq!(got, expected);
            }
        }
    }
}
