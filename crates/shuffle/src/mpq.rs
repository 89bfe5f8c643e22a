//! The Minimum Priority Queue (MPQ): a k-way merge over segment readers,
//! in bytewise key order.
//!
//! This is the structure the paper's reduce stage drains (§II-A) and the
//! structure whose *shape* the reduce-stage analytics log preserves: for
//! every member segment, its source and the byte offset of its next
//! unconsumed record (Fig. 6). [`MergeQueue::snapshot`] produces exactly
//! that list; rebuilding the MPQ from a snapshot is `SegmentReader::resume`
//! per entry followed by `MergeQueue::new`.
//!
//! The queue is a tree of losers over the readers. Each reader's current
//! key is cached as its 8-byte big-endian prefix, so most matches compare
//! two integers and read key bytes only when prefixes tie. Ties on the
//! whole key break on reader index, so merges are deterministic and
//! stable.

use std::cmp::Ordering;

use bytes::Bytes;

use crate::codec::key_prefix;
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

/// A reader's place in the tournament: exhausted readers order after
/// every live one, live ones by their current key's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    exhausted: bool,
    /// [`key_prefix`] of the current key; 0 once exhausted.
    prefix: u64,
}

impl Head {
    fn of<R: SortedRun>(reader: &R) -> Head {
        match reader.key() {
            Some(key) => Head { exhausted: false, prefix: key_prefix(key) },
            None => Head { exhausted: true, prefix: 0 },
        }
    }
}

/// K-way merge over sorted runs.
///
/// A tree of losers: reader `i` is the leaf at node `k + i`, node `n`'s
/// parent is `n / 2` (which lays out a tree for any `k`), `tree[n]` holds
/// the reader that lost the match at internal node `n`, and `tree[0]` the
/// overall winner. After the winner's reader moves on, one pass from its
/// leaf to the root replays the matches on that path: ⌈log₂ k⌉
/// comparisons per pop at most.
pub struct MergeQueue<R: SortedRun = SegmentReader> {
    readers: Vec<R>,
    /// Per reader, its [`Head`].
    heads: Vec<Head>,
    tree: Vec<usize>,
    /// Readers not exhausted.
    live: usize,
}

impl<R: SortedRun> MergeQueue<R> {
    /// Build an MPQ from (already sorted) runs. Exhausted runs stay out of
    /// [`MergeQueue::len`], snapshots and the byte count.
    pub fn new(_order: KeyCmp, readers: Vec<R>) -> MergeQueue<R> {
        let k = readers.len();
        let heads: Vec<Head> = readers.iter().map(Head::of).collect();
        let live = heads.iter().filter(|h| !h.exhausted).count();
        let mut q = MergeQueue { readers, heads, tree: vec![0; k.max(1)], live };
        // Play every match bottom-up; `winners[n]` won the subtree at `n`.
        let mut winners = vec![0; k];
        winners.extend(0..k);
        for n in (1..k).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            let (winner, loser) = if q.before(a, b) { (a, b) } else { (b, a) };
            winners[n] = winner;
            q.tree[n] = loser;
        }
        if k > 0 {
            q.tree[0] = winners[1];
        }
        q
    }

    /// Reader `a` pops before reader `b`: by (live, prefix, key bytes,
    /// reader index).
    fn before(&self, a: usize, b: usize) -> bool {
        let (ha, hb) = (self.heads[a], self.heads[b]);
        let by_key = ha.cmp(&hb).then_with(|| {
            if ha.exhausted {
                return Ordering::Equal;
            }
            let key = |i: usize| self.readers[i].key().expect("a live reader holds a record");
            key(a).cmp(key(b))
        });
        let tie = a.cmp(&b);
        by_key.then(tie).is_lt()
    }

    /// Re-cache `leaf`'s head after its reader moved on, and replay the
    /// matches from its leaf to the root. A reader that failed to decode
    /// its next record holds none, and leaves the queue like an exhausted
    /// one.
    fn replay(&mut self, leaf: usize) {
        let head = Head::of(&self.readers[leaf]);
        if head.exhausted {
            self.live -= 1;
        }
        self.heads[leaf] = head;
        let mut winner = leaf;
        let mut node = (self.readers.len() + leaf) / 2;
        while node > 0 {
            let challenger = self.tree[node];
            if self.before(challenger, winner) {
                self.tree[node] = winner;
                winner = challenger;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// The reader holding the minimum record, if any is live.
    fn top(&self) -> Option<usize> {
        (self.live > 0).then(|| self.tree[0])
    }

    /// Number of live segments in the queue.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The minimum record without consuming it.
    pub fn peek(&self) -> Option<(&[u8], &[u8])> {
        let reader = &self.readers[self.top()?];
        Some((
            reader.key().expect("the winning reader holds a record"),
            reader.value().expect("the winning reader holds a record"),
        ))
    }

    /// Pop the minimum record and advance its reader.
    pub fn pop(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        let Some(top) = self.top() else { return Ok(None) };
        let rec = self.readers[top].advance();
        self.replay(top);
        rec
    }

    /// Pop the minimum record, handing its key and value to `f` as slices
    /// of the run: no `Bytes` handle is built. `pop_with(|_, _| ())` skips
    /// a record.
    pub fn pop_with<T>(&mut self, f: impl FnOnce(&[u8], &[u8]) -> T) -> Result<Option<T>> {
        self.pop_top(|r| {
            f(
                r.key().expect("the winning reader holds a record"),
                r.value().expect("the winning reader holds a record"),
            )
        })
    }

    /// Hand the winning reader to `f`, then move it on past its record.
    fn pop_top<T>(&mut self, f: impl FnOnce(&R) -> T) -> Result<Option<T>> {
        let Some(top) = self.top() else { return Ok(None) };
        let out = f(&self.readers[top]);
        let moved = self.readers[top].skip();
        self.replay(top);
        moved.map(|()| Some(out))
    }

    /// Pop one group: the minimum record and every following record whose
    /// key `same_group(first_key, key)` accepts. The first key goes into
    /// `key` and the values into `vals[..n]`, refilling the vectors
    /// already there, so a drain allocates only for its largest group.
    /// Returns `n`, 0 once the queue is empty.
    pub fn pop_group(
        &mut self,
        key: &mut Vec<u8>,
        vals: &mut Vec<Vec<u8>>,
        same_group: impl Fn(&[u8], &[u8]) -> bool,
    ) -> Result<usize> {
        let mut n = 0;
        let mut put = |v: &[u8]| {
            if n == vals.len() {
                vals.push(Vec::new());
            }
            vals[n].clear();
            vals[n].extend_from_slice(v);
            n += 1;
        };
        let first = self.pop_with(|k, v| {
            key.clear();
            key.extend_from_slice(k);
            put(v);
        })?;
        if first.is_none() {
            return Ok(0);
        }
        while self.peek().is_some_and(|(k, _)| same_group(key, k)) {
            self.pop_with(|_, v| put(v))?;
        }
        Ok(n)
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

    /// The live readers, in reader order.
    fn live_readers(&self) -> impl Iterator<Item = &R> {
        self.readers.iter().zip(&self.heads).filter(|(_, h)| !h.exhausted).map(|(r, _)| r)
    }

    /// Snapshot the MPQ structure for analytics logging: each live
    /// segment's source and current byte offset, in reader order (the
    /// structure, not the tree, which is reconstructible).
    pub fn snapshot(&self) -> Vec<MpqEntry> {
        self.live_readers()
            .map(|r| MpqEntry { source: r.source().clone(), offset: r.current_offset() })
            .collect()
    }

    /// Total unconsumed bytes across live segments.
    pub fn remaining_bytes(&self) -> usize {
        self.live_readers().map(SortedRun::remaining_bytes).sum()
    }
}

impl MergeQueue<SegmentReader> {
    /// Pop the minimum record, handing `f` its encoded bytes (header, key
    /// and value) as one slice of the segment: a merge that re-emits
    /// records unchanged copies each with one `extend_from_slice`.
    pub fn pop_encoded_with<T>(&mut self, f: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        self.pop_top(|r| f(r.record().expect("the winning reader holds a record")))
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

    /// The one record in `rec`, as owned key and value.
    fn decode_one(rec: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let rec = Bytes::copy_from_slice(rec);
        let (k, v, end) = crate::codec::decode_at(&rec, 0).unwrap().unwrap();
        assert_eq!(end, rec.len(), "exactly one record");
        (k.to_vec(), v.to_vec())
    }

    #[test]
    fn equal_keys_pop_in_reader_order() {
        // Five leaves: a tree that is not a power of two, where equal keys
        // meet at different depths.
        let readers = (0..5u8).map(|i| reader(u64::from(i), &[(b"k", &[i]), (b"k\0", &[i + 5])])).collect();
        let mut q = MergeQueue::new(bytewise_cmp(), readers);
        let vals: Vec<u8> = q.drain().unwrap().into_iter().map(|(_, v)| v[0]).collect();
        assert_eq!(vals, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn pop_group_refills_the_previous_groups_vectors() {
        // Groups by first key byte, three values, then one, then two.
        let r1 = reader(1, &[(b"a1", b"1"), (b"b1", b"4"), (b"c1", b"5")]);
        let r2 = reader(2, &[(b"a1", b"2"), (b"a2", b"3"), (b"c2", b"6")]);
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r1, r2]);
        let (mut key, mut vals) = (Vec::new(), Vec::new());
        let mut groups = Vec::new();
        loop {
            let n = q.pop_group(&mut key, &mut vals, |first, k| first[0] == k[0]).unwrap();
            if n == 0 {
                break;
            }
            groups.push((key.clone(), vals[..n].concat()));
        }
        let want: [(&[u8], &[u8]); 3] = [(b"a1", b"123"), (b"b1", b"4"), (b"c1", b"56")];
        assert_eq!(groups, want.map(|(k, v)| (k.to_vec(), v.to_vec())));
        assert_eq!(vals.len(), 3, "the largest group's vectors are kept");
    }

    #[test]
    fn keys_sharing_an_eight_byte_prefix_merge_bytewise() {
        let r1 = reader(1, &[(b"prefix00", b"1"), (b"prefix00\x00", b"2"), (b"prefix00b", b"3")]);
        let r2 = reader(2, &[(b"prefix0", b"4"), (b"prefix00", b"5"), (b"prefix00a", b"6")]);
        let r3 = reader(3, &[(b"prefix00\x00", b"7"), (b"prefix00a\xff", b"8")]);
        let mut q = MergeQueue::new(bytewise_cmp(), vec![r1, r2, r3]);
        let vals: Vec<Vec<u8>> = q.drain().unwrap().into_iter().map(|(_, v)| v.to_vec()).collect();
        let want: Vec<Vec<u8>> =
            ["4", "1", "5", "2", "7", "6", "8", "3"].iter().map(|v| v.as_bytes().to_vec()).collect();
        assert_eq!(vals, want);
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
        /// Merging sorted segments equals a stable sort of their
        /// concatenation (equal keys pop in reader order), whether records
        /// leave through `pop`, `pop_with` or `pop_encoded_with`; after
        /// every pop, `len`, `remaining_bytes` and `snapshot` match a model
        /// that tracks each run's position. 0–17 runs build trees of every
        /// shape up to 17 leaves, with runs empty from the start or drained
        /// early. Keys are 0–12-byte cuts of two 12-byte strings that share
        /// their first seven bytes and hold zeros there, so 8-byte prefixes
        /// often tie (long keys) or match only through padding (short keys);
        /// bytes above 0x7f check that prefixes compare unsigned.
        #[test]
        fn merge_equals_global_sort(
            pool in proptest::collection::vec((0usize..2, 0usize..=12, proptest::collection::vec(0u8..=2, 4)), 1..12),
            segs in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..12), 0..=17),
            pattern in proptest::collection::vec(0u8..3, 1..8),
        ) {
            let stems: [[u8; 8]; 2] = [[0x87, 0, 0, 1, 0, 0, 0, 0], [0x87, 0, 0, 1, 0, 0, 0, 0xff]];
            let pool: Vec<Vec<u8>> = pool
                .iter()
                .map(|(stem, len, tail)| {
                    let tail = tail.iter().map(|&t| [0, 1, 0xff][usize::from(t)]);
                    stems[*stem].iter().copied().chain(tail).take(*len).collect()
                })
                .collect();
            // Each value names its run and position.
            let runs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = segs
                .iter()
                .enumerate()
                .map(|(i, picks)| {
                    let mut keys: Vec<Vec<u8>> = picks.iter().map(|k| pool[k % pool.len()].clone()).collect();
                    keys.sort();
                    keys.into_iter().enumerate().map(|(j, k)| (k, vec![i as u8, j as u8])).collect()
                })
                .collect();
            let mut expected: Vec<(Vec<u8>, Vec<u8>)> = runs.concat();
            expected.sort_by(|a, b| a.0.cmp(&b.0));
            let data: Vec<Bytes> = runs.iter().map(|run| build_segment(run)).collect();
            let readers = data
                .iter()
                .enumerate()
                .map(|(i, d)| SegmentReader::new(SegmentSource::Memory { id: i as u64 }, d.clone()).unwrap())
                .collect();
            let mut q = MergeQueue::new(bytewise_cmp(), readers);
            // The model: per run, how many records and bytes are consumed.
            let mut taken = vec![(0usize, 0usize); runs.len()];
            let mut merged = Vec::new();
            for how in pattern.iter().cycle() {
                let live: Vec<usize> = (0..runs.len()).filter(|&i| taken[i].0 < runs[i].len()).collect();
                prop_assert_eq!(q.len(), live.len());
                prop_assert_eq!(q.remaining_bytes(), live.iter().map(|&i| data[i].len() - taken[i].1).sum::<usize>());
                let model: Vec<MpqEntry> = live
                    .iter()
                    .map(|&i| MpqEntry { source: SegmentSource::Memory { id: i as u64 }, offset: taken[i].1 })
                    .collect();
                prop_assert_eq!(q.snapshot(), model);
                let rec = match how {
                    0 => q.pop().unwrap().map(|(k, v)| (k.to_vec(), v.to_vec())),
                    1 => q.pop_with(|k, v| (k.to_vec(), v.to_vec())).unwrap(),
                    _ => q.pop_encoded_with(decode_one).unwrap(),
                };
                let Some((k, v)) = rec else { break };
                let run = v[0] as usize;
                taken[run].0 += 1;
                taken[run].1 += crate::codec::encoded_len(k.len(), v.len());
                merged.push((k, v));
            }
            prop_assert!(q.is_empty());
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
