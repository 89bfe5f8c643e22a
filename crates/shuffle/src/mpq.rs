//! The Minimum Priority Queue (MPQ): a comparator-driven k-way merge heap
//! over segment readers.
//!
//! This is the structure the paper's reduce stage drains (§II-A) and the
//! structure whose *shape* the reduce-stage analytics log preserves: for
//! every member segment, its source and the byte offset of its next
//! unconsumed record (Fig. 6). [`MergeQueue::snapshot`] produces exactly
//! that list; rebuilding the MPQ from a snapshot is `SegmentReader::resume`
//! per entry followed by `MergeQueue::new`.
//!
//! The heap is hand-rolled (rather than `BinaryHeap`) because the ordering
//! is a runtime comparator, and ties break on reader index so merges are
//! deterministic and stable.

use bytes::Bytes;

use crate::error::Result;
use crate::segment::{SegmentReader, SegmentSource};
use crate::KeyCmp;

/// One entry of an MPQ snapshot: where the segment lives and how far the
/// merge had consumed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpqEntry {
    pub source: SegmentSource,
    pub offset: usize,
}

/// A stream of key-ordered records that an MPQ can merge.
///
/// [`SegmentReader`] is the materialised implementation; FCM's pipelined
/// per-participant streams implement it over channels so the Global-MPQ can
/// merge data that is still being produced remotely.
pub trait SortedRun {
    /// Key of the current record; `None` when exhausted.
    fn key(&self) -> Option<&[u8]>;
    /// Value of the current record; `None` when exhausted.
    fn value(&self) -> Option<&[u8]>;
    /// Consume the current record and move to the next. May block
    /// (streaming implementations) until the next record is available.
    fn advance(&mut self) -> Result<Option<(Bytes, Bytes)>>;
    /// [`SortedRun::advance`] for a caller that has already read the
    /// current record through [`SortedRun::key`] and [`SortedRun::value`].
    fn skip(&mut self) -> Result<()> {
        self.advance().map(drop)
    }
    fn is_exhausted(&self) -> bool {
        self.key().is_none()
    }
    /// Where this run's bytes live (for logging snapshots).
    fn source(&self) -> &SegmentSource;
    /// Byte offset of the current record within the run, when meaningful.
    /// Streaming runs report 0 — they are never snapshotted into logs.
    fn current_offset(&self) -> usize {
        0
    }
    /// Unconsumed bytes, when known.
    fn remaining_bytes(&self) -> usize {
        0
    }
}

impl SortedRun for SegmentReader {
    fn key(&self) -> Option<&[u8]> {
        SegmentReader::key(self)
    }
    fn value(&self) -> Option<&[u8]> {
        SegmentReader::value(self)
    }
    fn advance(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        SegmentReader::advance(self)
    }
    fn skip(&mut self) -> Result<()> {
        SegmentReader::skip(self)
    }
    fn is_exhausted(&self) -> bool {
        SegmentReader::is_exhausted(self)
    }
    fn source(&self) -> &SegmentSource {
        SegmentReader::source(self)
    }
    fn current_offset(&self) -> usize {
        SegmentReader::current_offset(self)
    }
    fn remaining_bytes(&self) -> usize {
        SegmentReader::remaining_bytes(self)
    }
}

/// K-way merge over sorted runs.
pub struct MergeQueue<R: SortedRun = SegmentReader> {
    cmp: KeyCmp,
    readers: Vec<R>,
    /// Indices into `readers` of non-exhausted readers, heap-ordered with
    /// the minimum key at `heap[0]`.
    heap: Vec<usize>,
}

impl<R: SortedRun> MergeQueue<R> {
    /// Build an MPQ from (already sorted) runs. Exhausted runs are dropped
    /// up front.
    pub fn new(cmp: KeyCmp, readers: Vec<R>) -> MergeQueue<R> {
        let mut q = MergeQueue { cmp, readers, heap: Vec::new() };
        for i in 0..q.readers.len() {
            if !q.readers[i].is_exhausted() {
                q.heap.push(i);
            }
        }
        if !q.heap.is_empty() {
            for i in (0..q.heap.len() / 2).rev() {
                q.sift_down(i);
            }
        }
        q
    }

    /// `a` orders before `b` in the heap?
    fn before(&self, a: usize, b: usize) -> bool {
        let ka = self.readers[a].key().expect("heap members are non-exhausted");
        let kb = self.readers[b].key().expect("heap members are non-exhausted");
        match (self.cmp)(ka, kb) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a < b, // stable tie-break
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.before(self.heap[l], self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.before(self.heap[r], self.heap[smallest]) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }

    /// Number of live segments in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The minimum record without consuming it.
    pub fn peek(&self) -> Option<(&[u8], &[u8])> {
        let &i = self.heap.first()?;
        let reader = &self.readers[i];
        Some((
            reader.key().expect("a reader on the heap holds a record"),
            reader.value().expect("a reader on the heap holds a record"),
        ))
    }

    /// Pop the minimum record and advance its reader.
    pub fn pop(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        let Some(&i) = self.heap.first() else { return Ok(None) };
        let rec = self.readers[i].advance();
        self.top_advanced();
        rec
    }

    /// Pop the minimum record, handing its key and value to `f` as slices
    /// of the run: no `Bytes` handle is built. `pop_with(|_, _| ())` skips
    /// a record.
    pub fn pop_with<T>(&mut self, f: impl FnOnce(&[u8], &[u8]) -> T) -> Result<Option<T>> {
        let Some((k, v)) = self.peek() else { return Ok(None) };
        let out = f(k, v);
        let moved = self.readers[self.heap[0]].skip();
        self.top_advanced();
        moved.map(|()| Some(out))
    }

    /// Restore the heap after the minimum's reader moved on. A reader that
    /// failed to decode its next record holds none, and leaves the heap
    /// like an exhausted one.
    fn top_advanced(&mut self) {
        if self.readers[self.heap[0]].is_exhausted() {
            self.heap.swap_remove(0);
        }
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
    }

    /// Drain everything into a vector (test convenience; production paths
    /// stream via [`MergeQueue::pop_with`]).
    pub fn drain(&mut self) -> Result<Vec<(Bytes, Bytes)>> {
        let mut out = Vec::new();
        while let Some(r) = self.pop()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Snapshot the MPQ structure for analytics logging: each live
    /// segment's source and current byte offset, in reader order (the
    /// structure, not the heap order, which is reconstructible).
    pub fn snapshot(&self) -> Vec<MpqEntry> {
        let mut live: Vec<usize> = self.heap.clone();
        live.sort_unstable();
        live.iter()
            .map(|&i| MpqEntry {
                source: self.readers[i].source().clone(),
                offset: self.readers[i].current_offset(),
            })
            .collect()
    }

    /// Total unconsumed bytes across live segments.
    pub fn remaining_bytes(&self) -> usize {
        self.heap.iter().map(|&i| self.readers[i].remaining_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytewise_cmp;
    use crate::segment::build_segment;
    use proptest::prelude::*;

    fn reader(id: u64, recs: &[(&[u8], &[u8])]) -> SegmentReader {
        let recs: Vec<(Vec<u8>, Vec<u8>)> = recs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        SegmentReader::new(SegmentSource::Memory { id }, build_segment(&recs)).unwrap()
    }

    #[test]
    fn merges_in_key_order() {
        let r1 = reader(1, &[(b"a", b"1"), (b"d", b"4")]);
        let r2 = reader(2, &[(b"b", b"2"), (b"c", b"3"), (b"e", b"5")]);
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r1, r2]);
        let keys: Vec<Vec<u8>> = q.drain().unwrap().into_iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec(), b"e".to_vec()]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_keys_pop_in_reader_order() {
        let r1 = reader(1, &[(b"k", b"first")]);
        let r2 = reader(2, &[(b"k", b"second")]);
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r1, r2]);
        let vals: Vec<Vec<u8>> = q.drain().unwrap().into_iter().map(|(_, v)| v.to_vec()).collect();
        assert_eq!(vals, vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn empty_and_exhausted_readers_are_skipped() {
        let r1 = reader(1, &[]);
        let r2 = reader(2, &[(b"x", b"1")]);
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r1, r2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.drain().unwrap().len(), 1);
    }

    #[test]
    fn a_run_that_fails_to_decode_leaves_the_queue() {
        let mut torn =
            build_segment(&[(b"a".to_vec(), b"1".to_vec()), (b"c".to_vec(), b"3".to_vec())]).to_vec();
        torn.pop();
        let r1 = SegmentReader::new(SegmentSource::Memory { id: 1 }, Bytes::from(torn)).unwrap();
        let r2 = reader(2, &[(b"b", b"2")]);
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r1, r2]);
        assert!(q.pop().is_err(), "the torn record is reported");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_with(|k, _| k.to_vec()).unwrap(), Some(b"b".to_vec()));
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_reflects_consumption_and_restores() {
        let data1 = build_segment(&[(b"a".to_vec(), b"1".to_vec()), (b"c".to_vec(), b"3".to_vec())]);
        let data2 = build_segment(&[(b"b".to_vec(), b"2".to_vec()), (b"d".to_vec(), b"4".to_vec())]);
        let r1 = SegmentReader::new(SegmentSource::LocalFile { path: "s1".into() }, data1.clone()).unwrap();
        let r2 = SegmentReader::new(SegmentSource::LocalFile { path: "s2".into() }, data2.clone()).unwrap();
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r1, r2]);
        q.pop().unwrap(); // a
        q.pop().unwrap(); // b
        let snap = q.snapshot();
        assert_eq!(snap.len(), 2);

        // Rebuild from the snapshot (as SFM's log resume does) and check the
        // remaining stream is identical.
        let datas = [("s1", data1), ("s2", data2)];
        let readers: Vec<SegmentReader> = snap
            .iter()
            .map(|e| {
                let path = match &e.source {
                    SegmentSource::LocalFile { path } => path.clone(),
                    _ => panic!(),
                };
                let data = datas.iter().find(|(p, _)| *p == path).unwrap().1.clone();
                SegmentReader::resume(e.source.clone(), data, e.offset).unwrap()
            })
            .collect();
        let mut q2 = MergeQueue::new(bytewise_cmp(), readers);
        let rest: Vec<Vec<u8>> = q2.drain().unwrap().into_iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(rest, vec![b"c".to_vec(), b"d".to_vec()]);

        // The original queue drains the same remainder.
        let orig_rest: Vec<Vec<u8>> = q.drain().unwrap().into_iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(orig_rest, vec![b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn remaining_bytes_decreases_monotonically() {
        let r = reader(1, &[(b"a", b"11"), (b"b", b"22"), (b"c", b"33")]);
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r]);
        let mut last = q.remaining_bytes();
        while q.pop().unwrap().is_some() {
            let now = q.remaining_bytes();
            assert!(now < last);
            last = now;
        }
        assert_eq!(last, 0);
    }

    proptest! {
        /// Merging arbitrary sorted segments equals a stable sort of their
        /// concatenation (equal keys pop in reader order), whether records
        /// leave through `pop` or `pop_with`.
        #[test]
        fn merge_equals_global_sort(segs in proptest::collection::vec(
            proptest::collection::vec((proptest::collection::vec(0u8..=255, 0..8), proptest::collection::vec(0u8..=255, 0..8)), 0..30),
            1..6),
            pattern in proptest::collection::vec(proptest::bool::ANY, 1..8)) {
            let mut expected: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut readers = Vec::new();
            for (i, mut seg) in segs.into_iter().enumerate() {
                seg.sort_by(|a, b| a.0.cmp(&b.0));
                expected.extend(seg.iter().cloned());
                readers.push(SegmentReader::new(SegmentSource::Memory { id: i as u64 }, build_segment(&seg)).unwrap());
            }
            expected.sort_by(|a, b| a.0.cmp(&b.0));
            let mut q = MergeQueue::new(bytewise_cmp(), readers);
            let mut merged = Vec::new();
            for with in pattern.iter().cycle() {
                let rec = if *with {
                    q.pop_with(|k, v| (k.to_vec(), v.to_vec())).unwrap()
                } else {
                    q.pop().unwrap().map(|(k, v)| (k.to_vec(), v.to_vec()))
                };
                match rec {
                    Some(r) => merged.push(r),
                    None => break,
                }
            }
            prop_assert_eq!(merged, expected);
        }

        /// A snapshot taken after consuming m records resumes to exactly
        /// the remaining records.
        #[test]
        fn snapshot_resume_equivalence(
            seg_a in proptest::collection::vec((proptest::collection::vec(0u8..=255, 1..6), proptest::collection::vec(0u8..=255, 0..6)), 1..20),
            seg_b in proptest::collection::vec((proptest::collection::vec(0u8..=255, 1..6), proptest::collection::vec(0u8..=255, 0..6)), 1..20),
            consume_frac in 0.0f64..1.0,
        ) {
            let mut a = seg_a; a.sort_by(|x, y| x.0.cmp(&y.0));
            let mut b = seg_b; b.sort_by(|x, y| x.0.cmp(&y.0));
            let (da, db) = (build_segment(&a), build_segment(&b));
            let total = a.len() + b.len();
            let consume = (total as f64 * consume_frac) as usize;

            let mk = |da: &Bytes, db: &Bytes| MergeQueue::new(bytewise_cmp(), vec![
                SegmentReader::new(SegmentSource::Memory { id: 0 }, da.clone()).unwrap(),
                SegmentReader::new(SegmentSource::Memory { id: 1 }, db.clone()).unwrap(),
            ]);
            let mut q = mk(&da, &db);
            for _ in 0..consume { q.pop().unwrap(); }
            let snap = q.snapshot();
            let readers: Vec<SegmentReader> = snap.iter().map(|e| {
                let data = match e.source { SegmentSource::Memory { id: 0 } => da.clone(), _ => db.clone() };
                SegmentReader::resume(e.source.clone(), data, e.offset).unwrap()
            }).collect();
            let mut q2 = MergeQueue::new(bytewise_cmp(), readers);
            let resumed = q2.drain().unwrap();
            let original_rest = q.drain().unwrap();
            prop_assert_eq!(resumed, original_rest);
        }
    }
}
