//! Reduce-side shuffle buffers.
//!
//! A ReduceTask "periodically fetches segments from MOFs on remote nodes.
//! Depending on the segment size and remaining available memory, it
//! determines whether to store it in memory or spill to disks" (§III-A).
//! [`ReduceBuffers`] is that state: in-memory segments under a budget,
//! on-disk segments, and the set of already-fetched MOFs — precisely the
//! fields of the shuffle-stage analytics log record (Fig. 6 left column).
//!
//! [`ReduceBuffers::flush_in_memory`] is the "temporary in-memory merging
//! thread" ALG invokes before logging: it evacuates volatile in-memory
//! segments into one on-disk sorted run so the log's file list captures all
//! shuffled data.

use bytes::Bytes;
use std::collections::BTreeSet;

use crate::error::Result;
use crate::localfs::LocalFs;
use crate::merger;
use crate::segment::{SegmentReader, SegmentSource};
use crate::KeyCmp;

/// Fraction of the memory budget above which a fetched segment bypasses
/// memory and goes straight to disk (Hadoop's `shuffle.memory.limit`).
const DIRECT_TO_DISK_FRACTION: f64 = 0.25;

/// Reduce-side shuffle state for one ReduceTask attempt.
pub struct ReduceBuffers {
    /// Node-local path prefix, e.g. `"reduce/{attempt}/"`.
    prefix: String,
    mem_budget: u64,
    /// In-memory merge trigger as a fraction of `mem_budget`.
    merge_trigger_fraction: f64,
    in_mem: Vec<(u64, Bytes)>,
    mem_used: u64,
    on_disk: Vec<String>,
    fetched: BTreeSet<u32>,
    next_mem_id: u64,
    next_disk_id: u64,
    shuffled_bytes: u64,
    /// Number of in-memory merges performed (observability).
    mem_merges: u32,
}

impl ReduceBuffers {
    pub fn new(
        _order: KeyCmp,
        prefix: impl Into<String>,
        mem_budget: u64,
        merge_trigger_fraction: f64,
    ) -> ReduceBuffers {
        ReduceBuffers {
            prefix: prefix.into(),
            mem_budget: mem_budget.max(1),
            merge_trigger_fraction: merge_trigger_fraction.clamp(0.05, 1.0),
            in_mem: Vec::new(),
            mem_used: 0,
            on_disk: Vec::new(),
            fetched: BTreeSet::new(),
            next_mem_id: 0,
            next_disk_id: 0,
            shuffled_bytes: 0,
            mem_merges: 0,
        }
    }

    /// Reconstruct shuffle state from a logged snapshot (ALG recovery):
    /// the fetched-MOF set plus the on-disk segment paths. In-memory
    /// segments don't appear — ALG flushed them before logging.
    pub fn restore(
        prefix: impl Into<String>,
        mem_budget: u64,
        merge_trigger_fraction: f64,
        fetched: BTreeSet<u32>,
        on_disk: Vec<String>,
        shuffled_bytes: u64,
    ) -> ReduceBuffers {
        // Continue disk numbering past any restored path to avoid clashes.
        let next_disk_id = on_disk
            .iter()
            .filter_map(|p| p.rsplit('-').next()?.strip_suffix(".out")?.parse::<u64>().ok())
            .max()
            .map_or(0, |m| m + 1);
        let mut b = ReduceBuffers::new(KeyCmp, prefix, mem_budget, merge_trigger_fraction);
        b.fetched = fetched;
        b.on_disk = on_disk;
        b.next_disk_id = next_disk_id;
        b.shuffled_bytes = shuffled_bytes;
        b
    }

    /// Ingest one fetched partition. Large segments go straight to disk;
    /// small ones are buffered in memory, triggering an in-memory merge
    /// flush when the budget threshold is crossed.
    pub fn ingest(&mut self, fs: &dyn LocalFs, map_index: u32, data: Bytes) -> Result<()> {
        debug_assert!(!self.fetched.contains(&map_index), "MOF {map_index} ingested twice");
        self.fetched.insert(map_index);
        self.shuffled_bytes += data.len() as u64;
        if data.is_empty() {
            return Ok(());
        }
        if data.len() as u64 > (self.mem_budget as f64 * DIRECT_TO_DISK_FRACTION) as u64 {
            let path = self.next_disk_path();
            fs.write(&path, data)?;
            self.on_disk.push(path);
            return Ok(());
        }
        self.mem_used += data.len() as u64;
        let id = self.next_mem_id;
        self.next_mem_id += 1;
        self.in_mem.push((id, data));
        if self.mem_used as f64 >= self.mem_budget as f64 * self.merge_trigger_fraction {
            self.flush_in_memory(fs)?;
        }
        Ok(())
    }

    fn next_disk_path(&mut self) -> String {
        let p = format!("{}seg-{}.out", self.prefix, self.next_disk_id);
        self.next_disk_id += 1;
        p
    }

    /// Merge every in-memory segment into one new on-disk sorted run.
    /// Returns the new path, or `None` if memory was empty. This is both
    /// the background in-memory merger and ALG's pre-log flush.
    pub fn flush_in_memory(&mut self, fs: &dyn LocalFs) -> Result<Option<String>> {
        if self.in_mem.is_empty() {
            return Ok(None);
        }
        let blobs: Vec<Bytes> = self.in_mem.drain(..).map(|(_, b)| b).collect();
        self.mem_used = 0;
        let merged = merger::merge_memory_segments(&blobs, None)?;
        let path = self.next_disk_path();
        fs.write(&path, merged)?;
        self.on_disk.push(path.clone());
        self.mem_merges += 1;
        Ok(Some(path))
    }

    pub fn fetched(&self) -> &BTreeSet<u32> {
        &self.fetched
    }

    pub fn has_fetched(&self, map_index: u32) -> bool {
        self.fetched.contains(&map_index)
    }

    pub fn on_disk_paths(&self) -> &[String] {
        &self.on_disk
    }

    pub fn in_mem_segments(&self) -> usize {
        self.in_mem.len()
    }

    pub fn mem_used(&self) -> u64 {
        self.mem_used
    }

    pub fn shuffled_bytes(&self) -> u64 {
        self.shuffled_bytes
    }

    pub fn mem_merges(&self) -> u32 {
        self.mem_merges
    }

    /// End of shuffle: factor-merge the on-disk segments down to
    /// `io.sort.factor` and return readers for the final MPQ (remaining
    /// in-memory segments join as memory readers — Hadoop's memory-to-
    /// reduce path).
    pub fn finalize(mut self, fs: &dyn LocalFs, factor: usize) -> Result<Vec<SegmentReader>> {
        let (disk_paths, _rounds) = merger::factor_merge(
            fs,
            &KeyCmp,
            std::mem::take(&mut self.on_disk),
            factor.max(2),
            &format!("{}final-", self.prefix),
        )?;
        let mut readers = Vec::with_capacity(disk_paths.len() + self.in_mem.len());
        for p in disk_paths {
            readers.push(SegmentReader::new(SegmentSource::LocalFile { path: p.clone() }, fs.read(&p)?)?);
        }
        for (id, data) in self.in_mem.drain(..) {
            readers.push(SegmentReader::new(SegmentSource::Memory { id }, data)?);
        }
        Ok(readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytewise_cmp;
    use crate::localfs::MemFs;
    use crate::mpq::MergeQueue;
    use crate::segment::build_segment;
    use proptest::prelude::*;

    fn seg(keys: &[&str]) -> Bytes {
        build_segment(&keys.iter().map(|k| (k.as_bytes().to_vec(), b"v".to_vec())).collect::<Vec<_>>())
    }

    #[test]
    fn small_segments_stay_in_memory() {
        let fs = MemFs::new();
        let mut b = ReduceBuffers::new(bytewise_cmp(), "r/", 10_000, 0.9);
        b.ingest(&fs, 0, seg(&["a"])).unwrap();
        b.ingest(&fs, 1, seg(&["b"])).unwrap();
        assert_eq!(b.in_mem_segments(), 2);
        assert!(b.on_disk_paths().is_empty());
        assert!(b.has_fetched(0) && b.has_fetched(1) && !b.has_fetched(2));
    }

    #[test]
    fn oversized_segment_goes_to_disk() {
        let fs = MemFs::new();
        let mut b = ReduceBuffers::new(bytewise_cmp(), "r/", 100, 0.9);
        let big = seg(&["abcdefghijklmnopqrstuvwxyz", "b", "c"]); // > 25 bytes
        b.ingest(&fs, 0, big).unwrap();
        assert_eq!(b.in_mem_segments(), 0);
        assert_eq!(b.on_disk_paths().len(), 1);
    }

    #[test]
    fn budget_pressure_triggers_memory_merge() {
        let fs = MemFs::new();
        let mut b = ReduceBuffers::new(bytewise_cmp(), "r/", 400, 0.5);
        for i in 0..10 {
            // 29 wire bytes per segment; ten of them cross the 200-byte
            // merge trigger without hitting the direct-to-disk size (100).
            b.ingest(&fs, i, seg(&[&format!("key-{i:016}")])).unwrap();
        }
        assert!(b.mem_merges() > 0, "in-memory merge should have triggered");
        assert!(b.mem_used() < 400);
    }

    #[test]
    fn flush_then_restore_loses_nothing() {
        let fs = MemFs::new();
        let mut b = ReduceBuffers::new(bytewise_cmp(), "r/", 10_000, 0.99);
        b.ingest(&fs, 0, seg(&["c"])).unwrap();
        b.ingest(&fs, 1, seg(&["a"])).unwrap();
        b.flush_in_memory(&fs).unwrap();
        let snapshot_fetched = b.fetched().clone();
        let snapshot_disk = b.on_disk_paths().to_vec();
        let shuffled = b.shuffled_bytes();
        drop(b);

        let restored = ReduceBuffers::restore("r/", 10_000, 0.99, snapshot_fetched, snapshot_disk, shuffled);
        assert!(restored.has_fetched(0) && restored.has_fetched(1));
        let readers = restored.finalize(&fs, 10).unwrap();
        let mut q = MergeQueue::new(bytewise_cmp(), readers);
        let keys: Vec<Vec<u8>> = q.drain().unwrap().into_iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn restore_continues_disk_numbering() {
        let fs = MemFs::new();
        let mut b = ReduceBuffers::restore("r/", 100, 0.9, BTreeSet::new(), vec!["r/seg-7.out".into()], 0);
        let big = seg(&["abcdefghijklmnopqrstuvwxyz0123456789"]);
        b.ingest(&fs, 3, big).unwrap();
        assert_eq!(b.on_disk_paths()[1], "r/seg-8.out");
    }

    proptest! {
        /// However ingestion interleaves memory/disk/merges, finalize
        /// yields the exact multiset of ingested records in merged order.
        #[test]
        fn no_record_lost(
            parts in proptest::collection::vec(proptest::collection::vec(proptest::collection::vec(b'a'..=b'z', 1..5), 0..20), 1..12),
            budget in 64u64..2048,
            trigger in 0.1f64..1.0,
        ) {
            let fs = MemFs::new();
            let mut b = ReduceBuffers::new(bytewise_cmp(), "r/", budget, trigger);
            let mut expected: Vec<Vec<u8>> = Vec::new();
            for (i, keys) in parts.iter().enumerate() {
                let mut sorted = keys.clone();
                sorted.sort();
                expected.extend(sorted.iter().cloned());
                let records: Vec<(Vec<u8>, Vec<u8>)> = sorted.iter().map(|k| (k.clone(), b"v".to_vec())).collect();
                b.ingest(&fs, i as u32, build_segment(&records)).unwrap();
            }
            expected.sort();
            let readers = b.finalize(&fs, 3).unwrap();
            let mut q = MergeQueue::new(bytewise_cmp(), readers);
            let got: Vec<Vec<u8>> = q.drain().unwrap().into_iter().map(|(k, _)| k.to_vec()).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
