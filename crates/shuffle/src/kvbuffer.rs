//! The map-side sort buffer.
//!
//! Hadoop's kvbuffer/kvmeta design (`io.sort.mb`, the sort buffer of the
//! paper's §II-A). [`MapOutputBuffer::collect`] appends each record, already
//! in the [`codec`] wire format, to one byte arena (the *kvbuffer*), and
//! pushes the record's offset and a packed 16-byte sort key (the *kvmeta*):
//! `partition << 96 | prefix << 32 | index`, where `prefix` is the key's
//! first eight bytes as a big-endian integer and `index` the record's
//! collect order within the spill. When the arena reaches the spill
//! threshold the sort keys alone are sorted, as integers; only runs that tie
//! on `(partition, prefix)` are sorted again, by the key bytes read from the
//! arena (Spark's Tungsten sorter does the same). Each partition's run is
//! then gather-copied out of the arena in that order and spilled, and the
//! arena and metadata are cleared for reuse. Committing the task merges all
//! spills per partition (applying the combiner) straight into the framed
//! MOF.

use bytes::Bytes;

use crate::error::Result;
use crate::localfs::LocalFs;
use crate::merger;
use crate::mof::{build_mof, MofData};
use crate::segment::{SegmentReader, SegmentSource};
use crate::{codec, Combiner, KeyCmp};

/// A spill holds fewer records than this, so an index fits a sort key's low
/// 32 bits.
const MAX_SPILL_RECORDS: usize = 1 << 32;

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
    /// Per record in `kvbuffer`, in collect order: its offset there.
    offsets: Vec<usize>,
    /// Per record in `kvbuffer`: its packed sort key, in collect order
    /// until a spill sorts them.
    sort_keys: Vec<u128>,
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
            offsets: Vec::new(),
            sort_keys: Vec::new(),
            spilled: vec![Vec::new(); num_partitions.max(1) as usize],
            spill_count: 0,
        }
    }

    /// Collect one intermediate record; spills synchronously when full.
    pub fn collect(&mut self, fs: &dyn LocalFs, partition: u32, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        debug_assert!(partition < self.num_partitions, "partition out of range");
        let partition = partition.min(self.num_partitions - 1);
        let index = self.offsets.len();
        self.offsets.push(self.kvbuffer.len());
        codec::encode_into(&mut self.kvbuffer, &key, &value);
        self.sort_keys
            .push(u128::from(partition) << 96 | u128::from(codec::key_prefix(&key)) << 32 | index as u128);
        if self.kvbuffer.len() as u64 >= self.spill_threshold || self.offsets.len() == MAX_SPILL_RECORDS {
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
        if self.sort_keys.is_empty() {
            return Ok(());
        }
        let (kvbuffer, offsets) = (&self.kvbuffer, &self.offsets);
        // The arena bytes of the record whose collect index ends `sort_key`.
        let record = |sort_key: u128| {
            let i = sort_key as u32 as usize;
            &kvbuffer[offsets[i]..offsets.get(i + 1).copied().unwrap_or(kvbuffer.len())]
        };
        let key = |sort_key: u128| {
            let (k, v, _) = codec::record_bounds(record(sort_key), 0)
                .ok()
                .flatten()
                .expect("collect wrote a whole record");
            &record(sort_key)[k..v]
        };
        // Indices are distinct, so this orders by (partition, prefix,
        // collect order); equal prefixes then need their key bytes.
        self.sort_keys.sort_unstable();
        for tied in self.sort_keys.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
            if tied.len() > 1 {
                tied.sort_unstable_by(|a, b| key(*a).cmp(key(*b)).then(a.cmp(b)));
            }
        }
        let spill_id = self.spill_count;
        self.spill_count += 1;

        for run in self.sort_keys.chunk_by(|a, b| a >> 96 == b >> 96) {
            let part = (run[0] >> 96) as u32;
            let mut buf = Vec::with_capacity(run.iter().map(|&s| record(s).len()).sum());
            for &s in run {
                buf.extend_from_slice(record(s));
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
        self.offsets.clear();
        self.sort_keys.clear();
        Ok(())
    }

    /// Commit: spill the remainder, then write the final MOF at
    /// `"{prefix}file.out"`, merging each partition's spills (with the
    /// combiner) straight into its frame in the blob. Spill files are
    /// deleted once merged.
    pub fn finish(mut self, fs: &dyn LocalFs) -> Result<MofData> {
        self.spill(fs)?;
        // The arena's work is done; do not hold it through the merge.
        self.kvbuffer = Vec::new();
        self.offsets = Vec::new();
        self.sort_keys = Vec::new();
        let mut spills: Vec<Vec<Bytes>> = self
            .spilled
            .iter()
            .map(|paths| paths.iter().map(|p| fs.read(p)).collect())
            .collect::<Result<_>>()?;
        let payload_bytes = spills.iter().flatten().map(Bytes::len).sum();
        let path = format!("{}file.out", self.prefix);
        build_mof(fs, &path, spills.len(), payload_bytes, |part, blob| {
            let paths = &self.spilled[part];
            match std::mem::take(&mut spills[part]).as_slice() {
                [] => {}
                // Single spill: already sorted and combined.
                [spill] => blob.extend_from_slice(spill),
                many => {
                    let readers = paths
                        .iter()
                        .zip(many)
                        .map(|(p, data)| {
                            SegmentReader::new(SegmentSource::LocalFile { path: p.clone() }, data.clone())
                        })
                        .collect::<Result<_>>()?;
                    merger::merge_into(blob, readers, self.combiner.as_ref())?;
                }
            }
            for p in paths {
                fs.delete(p);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytewise_cmp;
    use crate::localfs::MemFs;
    use crate::mof::write_mof;
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
    fn keys_tied_on_their_prefix_sort_by_their_bytes() {
        // One spill; every key shares its first eight bytes (padding
        // included), so only the key bytes can order them, and the equal
        // keys keep collect order.
        let fs = MemFs::new();
        let mut b = MapOutputBuffer::new(bytewise_cmp(), None, 1, u64::MAX, "m/");
        let keys: [&[u8]; 6] =
            [b"prefix00b", b"prefix00\0", b"prefix00a", b"prefix00", b"prefix00a", b"prefix00\0\0"];
        for (i, k) in keys.iter().enumerate() {
            b.collect(&fs, 0, k.to_vec(), vec![i as u8]).unwrap();
        }
        let mof = b.finish(&fs).unwrap();
        let data = mof.read_partition(&fs, 0).unwrap();
        let mut got = Vec::new();
        let mut off = 0;
        while let Some((_, v, next)) = codec::decode_at(&data, off).unwrap() {
            got.push(v[0]);
            off = next;
        }
        assert_eq!(got, vec![3, 1, 5, 2, 4, 0]);
    }

    /// `finish` frames each partition in place as it merges; the blob and
    /// the index must equal `write_mof` over the partitions sorted stably
    /// (and, with the counting combiner, folded to one record per key).
    #[test]
    fn finish_writes_the_mof_that_write_mof_writes() {
        let count: Combiner = Arc::new(|_k, vals: &[Vec<u8>]| {
            let n: u32 = vals.iter().map(|v| u32::from_be_bytes(v[..4].try_into().unwrap())).sum();
            Some(n.to_be_bytes().to_vec())
        });
        // Keys for partitions 0 and 2 only: 1 and 3 stay empty.
        let records: Vec<(u32, Vec<u8>)> = (0..300u32)
            .map(|i| (2 * (i % 2), format!("keyed-{:02}-{}", (i * 37) % 41, i % 3).into_bytes()))
            .collect();
        // (case, records collected, spill threshold, combiner, spills before `finish`)
        let cases: [(&str, usize, u64, Option<&Combiner>, bool); 5] = [
            ("no records", 0, u64::MAX, None, false),
            ("one spill", records.len(), u64::MAX, None, false),
            ("many spills", records.len(), 512, None, true),
            ("one spill, combined", records.len(), u64::MAX, Some(&count), false),
            ("many spills, combined", records.len(), 512, Some(&count), true),
        ];
        for (name, n, threshold, combiner, many) in cases {
            let fs = MemFs::new();
            let mut b = MapOutputBuffer::new(bytewise_cmp(), combiner.cloned(), 4, threshold, "m/");
            for (i, (p, k)) in records[..n].iter().enumerate() {
                let value = if combiner.is_some() { 1u32 } else { i as u32 }.to_be_bytes().to_vec();
                b.collect(&fs, *p, k.clone(), value).unwrap();
            }
            assert_eq!(b.spill_count() > 1, many, "{name}: spills before finish");
            let mof = b.finish(&fs).unwrap();
            assert_eq!(fs.list("m/"), vec![mof.path.clone()], "{name}: spill files are deleted");
            let partitions: Vec<Vec<u8>> = (0..4u32)
                .map(|part| {
                    let mut run: Vec<(Vec<u8>, u32)> = records[..n]
                        .iter()
                        .enumerate()
                        .filter(|(_, (p, _))| *p == part)
                        .map(|(i, (_, k))| (k.clone(), i as u32))
                        .collect();
                    run.sort_by(|a, b| a.0.cmp(&b.0));
                    if combiner.is_some() {
                        let mut folded: Vec<(Vec<u8>, u32)> = Vec::new();
                        for (k, _) in run {
                            match folded.last_mut() {
                                Some((last, c)) if *last == k => *c += 1,
                                _ => folded.push((k, 1)),
                            }
                        }
                        run = folded;
                    }
                    let mut out = Vec::new();
                    for (k, v) in run {
                        codec::encode_into(&mut out, &k, &v.to_be_bytes());
                    }
                    out
                })
                .collect();
            let want_fs = MemFs::new();
            let want = write_mof(&want_fs, &mof.path, &partitions).unwrap();
            assert_eq!(mof, want, "{name}: index");
            assert_eq!(fs.read(&mof.path).unwrap(), want_fs.read(&want.path).unwrap(), "{name}: blob");
        }
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
