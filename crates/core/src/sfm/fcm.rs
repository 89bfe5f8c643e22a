//! Fast Collective Merging (§IV-A).
//!
//! "The key idea of FCM is to ask each node to merge local intermediate
//! data before supplying them to the recovering ReduceTask." Each
//! participant builds a **Local-MPQ** over its local segments and streams
//! the merged run, chunk by chunk, to the recovering ReduceTask, whose
//! **Global-MPQ** merges the participant streams while the reduce function
//! consumes them — a fully in-memory pipeline overlapping shuffle, merge
//! and reduce.
//!
//! In this engine every participant is a thread with a bounded channel to
//! the global merger; chunk boundaries always align with record boundaries
//! so the streaming reader never sees a torn record. FCM keeps no local
//! intermediate state (§IV-A.1), so a failed recovery just drops the
//! channels and a new attempt rebuilds from the (still present) map-side
//! segments.

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::VecDeque;

use alm_shuffle::error::{Result, ShuffleError};
use alm_shuffle::mpq::SortedRun;
use alm_shuffle::{codec, KeyCmp, MergeQueue, SegmentReader, SegmentSource};
use alm_types::NodeId;

/// Default chunk size for participant → reducer streaming.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Bounded pipeline depth: how many chunks a participant may run ahead of
/// the global merge. Keeps the whole pipeline in memory yet bounded.
const PIPELINE_DEPTH: usize = 4;

/// Outcome statistics of one collective merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FcmStats {
    pub participants: usize,
    pub records: u64,
    pub bytes: u64,
}

/// A [`SortedRun`] fed by a channel of record-aligned encoded chunks.
pub struct ChannelRun {
    source: SegmentSource,
    rx: Receiver<Result<Bytes>>,
    chunks: VecDeque<Bytes>,
    /// Decode position within `chunks[0]`.
    pos: usize,
    current: Option<(Bytes, Bytes)>,
    finished: bool,
}

impl ChannelRun {
    /// Wrap a receiving channel; blocks until the first record (or end of
    /// stream) arrives.
    pub fn new(node: NodeId, rx: Receiver<Result<Bytes>>) -> Result<ChannelRun> {
        let mut run = ChannelRun {
            source: SegmentSource::Memory { id: node.0 as u64 },
            rx,
            chunks: VecDeque::new(),
            pos: 0,
            current: None,
            finished: false,
        };
        run.decode_next()?;
        Ok(run)
    }

    fn refill(&mut self) -> Result<()> {
        while self.chunks.is_empty() && !self.finished {
            match self.rx.recv() {
                Ok(Ok(chunk)) => {
                    if !chunk.is_empty() {
                        self.chunks.push_back(chunk);
                        self.pos = 0;
                    }
                }
                Ok(Err(e)) => {
                    self.finished = true;
                    return Err(e);
                }
                Err(_) => self.finished = true, // producer done
            }
        }
        Ok(())
    }

    fn decode_next(&mut self) -> Result<()> {
        loop {
            if let Some(front) = self.chunks.front() {
                match codec::decode_at(front, self.pos)? {
                    Some((k, v, next)) => {
                        self.current = Some((k, v));
                        self.pos = next;
                        return Ok(());
                    }
                    None => {
                        self.chunks.pop_front();
                        self.pos = 0;
                        continue;
                    }
                }
            }
            self.refill()?;
            if self.chunks.is_empty() {
                self.current = None;
                return Ok(());
            }
        }
    }
}

impl SortedRun for ChannelRun {
    fn key(&self) -> Option<&[u8]> {
        self.current.as_ref().map(|(k, _)| &k[..])
    }

    fn value(&self) -> Option<&[u8]> {
        self.current.as_ref().map(|(_, v)| &v[..])
    }

    fn advance(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        let out = self.current.take();
        if out.is_some() {
            self.decode_next()?;
        }
        Ok(out)
    }

    fn source(&self) -> &SegmentSource {
        &self.source
    }
}

/// One participant's contribution: its node id and the local segments of
/// the recovering reducer's partition.
pub struct Participant {
    pub node: NodeId,
    pub segments: Vec<SegmentReader>,
}

/// Run a participant's Local-MPQ, streaming merged chunks into `tx`.
fn run_local_mpq(segments: Vec<SegmentReader>, chunk_bytes: usize, tx: Sender<Result<Bytes>>) {
    let mut q = MergeQueue::new(KeyCmp, segments);
    let mut buf = Vec::with_capacity(chunk_bytes + 256);
    loop {
        match q.pop_encoded_with(|rec| buf.extend_from_slice(rec)) {
            Ok(Some(())) => {
                if buf.len() >= chunk_bytes {
                    // Record-aligned flush; a closed channel means the
                    // recovery attempt died — just stop (FCM teardown).
                    if tx.send(Ok(Bytes::from(std::mem::take(&mut buf)))).is_err() {
                        return;
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
    if !buf.is_empty() {
        let _ = tx.send(Ok(Bytes::from(buf)));
    }
}

/// A running collective-merge pipeline: the participant producer threads
/// plus the channel-fed runs their Local-MPQs stream into. Dropping the
/// session (or its runs) closes the channels, which is FCM's teardown: the
/// participants observe the closed channel and stop.
pub struct FcmPipeline {
    pub runs: Vec<ChannelRun>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl FcmPipeline {
    /// Wait for all participant threads to finish (after draining or
    /// dropping the runs).
    pub fn join(self) -> Result<()> {
        for h in self.handles {
            h.join().map_err(|_| ShuffleError::Invalid("FCM participant thread panicked".into()))?;
        }
        Ok(())
    }
}

/// Start the per-participant Local-MPQ threads and return the streaming
/// runs for the caller's Global-MPQ. This is the building block used by
/// `alm-runtime`'s FCM-mode ReduceTask, which needs to own the merge loop
/// (for grouping, logging and cancellation).
pub fn spawn_participants(
    _order: &KeyCmp,
    participants: Vec<Participant>,
    chunk_bytes: usize,
) -> Result<FcmPipeline> {
    let chunk_bytes = chunk_bytes.max(64);
    let mut handles = Vec::with_capacity(participants.len());
    let mut runs = Vec::with_capacity(participants.len());
    for p in participants {
        let (tx, rx) = bounded::<Result<Bytes>>(PIPELINE_DEPTH);
        let segs = p.segments;
        handles.push(std::thread::spawn(move || run_local_mpq(segs, chunk_bytes, tx)));
        runs.push(ChannelRun::new(p.node, rx));
    }
    let runs: Result<Vec<ChannelRun>> = runs.into_iter().collect();
    match runs {
        Ok(runs) => Ok(FcmPipeline { runs, handles }),
        Err(e) => {
            // Construction failed: drop what we built; producers see the
            // closed channels and stop, then we reap them.
            for h in handles {
                let _ = h.join();
            }
            Err(e)
        }
    }
}

/// Execute Fast Collective Merging: every participant pre-merges its local
/// segments on its own thread and streams to the Global-MPQ here, which
/// drives `sink` with globally merged records.
pub fn collective_merge(
    participants: Vec<Participant>,
    chunk_bytes: usize,
    mut sink: impl FnMut(&[u8], &[u8]),
) -> Result<FcmStats> {
    let n = participants.len();
    let runs = spawn_participants(&KeyCmp, participants, chunk_bytes)?.into_runs_and_detach();
    let mut q = MergeQueue::new(KeyCmp, runs);
    let mut stats = FcmStats { participants: n, records: 0, bytes: 0 };
    while let Some((k, v)) = q.pop()? {
        stats.records += 1;
        stats.bytes += codec::encoded_len(k.len(), v.len()) as u64;
        sink(&k, &v);
    }
    Ok(stats)
}

impl FcmPipeline {
    /// Take the runs and detach the producer threads (they terminate once
    /// their stream is drained or dropped). Used by the convenience
    /// [`collective_merge`]; long-lived callers should prefer keeping the
    /// pipeline and calling [`FcmPipeline::join`].
    pub fn into_runs_and_detach(self) -> Vec<ChannelRun> {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_shuffle::bytewise_cmp;
    use alm_shuffle::segment::build_segment;
    use proptest::prelude::*;

    fn reader(id: u64, keys: &[&str]) -> SegmentReader {
        let recs: Vec<(Vec<u8>, Vec<u8>)> =
            keys.iter().map(|k| (k.as_bytes().to_vec(), b"v".to_vec())).collect();
        SegmentReader::new(SegmentSource::Memory { id }, build_segment(&recs)).unwrap()
    }

    #[test]
    fn collective_merge_is_globally_sorted() {
        let participants = vec![
            Participant { node: NodeId(0), segments: vec![reader(0, &["a", "e"]), reader(1, &["c"])] },
            Participant { node: NodeId(1), segments: vec![reader(2, &["b", "d", "f"])] },
        ];
        let mut keys = Vec::new();
        let stats = collective_merge(participants, 64, |k, _| keys.push(k.to_vec())).unwrap();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec(), b"e".to_vec(), b"f".to_vec()]
        );
        assert_eq!(stats.participants, 2);
        assert_eq!(stats.records, 6);
    }

    #[test]
    fn empty_participants_yield_empty_stats() {
        let stats = collective_merge(vec![], 1024, |_, _| panic!("no records")).unwrap();
        assert_eq!(stats.records, 0);
        let stats =
            collective_merge(vec![Participant { node: NodeId(0), segments: vec![] }], 1024, |_, _| {
                panic!("no records")
            })
            .unwrap();
        assert_eq!(stats.records, 0);
        assert_eq!(stats.participants, 1);
    }

    #[test]
    fn tiny_chunks_exercise_chunk_boundaries() {
        // chunk_bytes is clamped to 64, below any realistic record run, so
        // nearly every record crosses a channel send.
        let participants = vec![
            Participant {
                node: NodeId(0),
                segments: vec![reader(0, &["aaaaaaaaaaaaaaaa", "cccccccccccccccc"])],
            },
            Participant {
                node: NodeId(1),
                segments: vec![reader(1, &["bbbbbbbbbbbbbbbb", "dddddddddddddddd"])],
            },
        ];
        let mut keys = Vec::new();
        collective_merge(participants, 1, |k, _| keys.push(k[0])).unwrap();
        assert_eq!(keys, vec![b'a', b'b', b'c', b'd']);
    }

    proptest! {
        /// FCM's pipelined collective merge produces exactly the same
        /// stream as a single-node merge of all segments.
        #[test]
        fn fcm_equivalent_to_single_node_merge(
            node_segs in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((proptest::collection::vec(0u8..=255, 1..6), proptest::collection::vec(0u8..=255, 0..6)), 0..25),
                    0..4),
                1..5),
            chunk in 64usize..512,
        ) {
            let mut single_readers = Vec::new();
            let mut participants = Vec::new();
            let mut id = 0u64;
            for (n, segs) in node_segs.iter().enumerate() {
                let mut p = Participant { node: NodeId(n as u32), segments: Vec::new() };
                for seg in segs {
                    let mut sorted = seg.clone();
                    sorted.sort_by(|a, b| a.0.cmp(&b.0));
                    let data = build_segment(&sorted);
                    p.segments.push(SegmentReader::new(SegmentSource::Memory { id }, data.clone()).unwrap());
                    single_readers.push(SegmentReader::new(SegmentSource::Memory { id }, data).unwrap());
                    id += 1;
                }
                participants.push(p);
            }
            let mut single = MergeQueue::new(bytewise_cmp(), single_readers);
            let expected: Vec<Vec<u8>> = single.drain().unwrap().into_iter().map(|(k, _)| k.to_vec()).collect();
            let mut got = Vec::new();
            collective_merge(participants, chunk, |k, _| got.push(k.to_vec())).unwrap();
            prop_assert_eq!(got, expected);
        }
    }
}
