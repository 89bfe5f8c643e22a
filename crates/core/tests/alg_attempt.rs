//! A single-threaded reduce-attempt driver over `AnalyticsLogger` +
//! `PartialOutput` + `recover_attempt`: a fixture reduce stream is played
//! through the logger, killed at chosen points, recovered and finished.
//!
//! The fixture's reduce is the identity, so `records_processed` and
//! `output_records` move together and the committed partition must be the
//! stream itself, byte for byte. The clock is the record counter: every
//! safe point is exactly one logging interval after the previous one.

use alm_core::{recover_attempt, AnalyticsLogger, LogPaths, PartialOutput, RecoveredState, RecoveryReport};
use alm_dfs::{DfsCluster, Topology};
use alm_types::{AlmConfig, JobId, NodeId, RecoveryMode, ReplicationLevel, TaskId};
use bytes::Bytes;

const NODE: NodeId = NodeId(0);
const FINAL: &str = "/out/part-00000";

struct World {
    dfs: DfsCluster,
    paths: LogPaths,
    alm: AlmConfig,
    /// The reduce stream: `(key, value)` in the order the reducer emits.
    stream: Vec<(Vec<u8>, Vec<u8>)>,
}

impl World {
    /// `records` records of 9..=40 value bytes, over a one-replica DFS
    /// with blocks small enough that most segments span several.
    fn new(records: usize) -> World {
        let stream = (0..records)
            .map(|i| (format!("key-{i:06}").into_bytes(), vec![(i * 31 % 251) as u8; 9 + i * 7 % 32]))
            .collect();
        World {
            dfs: DfsCluster::new(Topology::even(4, 2), 256, 1),
            paths: LogPaths::for_task(task()),
            alm: AlmConfig { logging_interval_ms: 1, ..AlmConfig::with_mode(RecoveryMode::SfmAlg) },
            stream,
        }
    }

    fn oracle(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for (k, v) in &self.stream {
            alm_shuffle::codec::encode_into(&mut buf, k, v);
        }
        buf
    }

    fn committed(&self) -> Bytes {
        self.dfs.read(FINAL).expect("the attempt committed")
    }

    fn segments(&self) -> Vec<String> {
        self.dfs.list(&self.paths.dfs_segment_prefix())
    }

    /// The bytes reached by following segment names from offset 0.
    fn chain(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        while let Ok(segment) = self.dfs.read(&self.paths.dfs_segment(bytes.len() as u64)) {
            bytes.extend_from_slice(&segment);
        }
        bytes
    }

    /// Play one attempt from recovery to commit, snapshotting every
    /// `every` records, and return what recovery reported.
    fn finish(&self, number: u32, every: usize) -> RecoveryReport {
        let mut a = Attempt::recover(self, number, every);
        a.run(self, None);
        let report = a.report.clone();
        a.commit(self);
        report
    }
}

fn task() -> TaskId {
    TaskId::reduce(JobId(1), 0)
}

/// Where an attempt dies, counted in safe points reached by *it*.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kill {
    /// After the `n`-th safe point's segment write, before its record.
    AfterSegment(usize),
    /// After the `n`-th safe point's record write.
    AfterRecord(usize),
}

struct Attempt {
    logger: AnalyticsLogger,
    output: PartialOutput,
    /// Records of the stream reduced so far, skipped ones included.
    next: usize,
    /// Where this attempt resumed.
    skipped: usize,
    every: usize,
    safe_points: usize,
    report: RecoveryReport,
}

impl Attempt {
    fn recover(w: &World, number: u32, every: usize) -> Attempt {
        let (state, output, report) = recover_attempt(None, &w.dfs, &w.paths);
        let skipped = match &state {
            RecoveredState::ReduceStage { records_processed, .. } => *records_processed as usize,
            _ => 0,
        };
        assert_eq!(output.records(), skipped as u64, "output is never ahead of or behind the skip count");
        let mut logger = AnalyticsLogger::new(&w.alm, task().attempt(number));
        if let Some(seq) = state.seq() {
            logger.resume_after(seq);
        }
        Attempt { logger, output, next: skipped, skipped, every, safe_points: 0, report }
    }

    /// Reduce one record; at a safe point, snapshot. Returns false when
    /// the attempt died at `kill`.
    fn step(&mut self, w: &World, kill: Option<Kill>) -> bool {
        let (k, v) = &w.stream[self.next];
        self.output.append(k, v);
        self.next += 1;
        if !self.next.is_multiple_of(self.every) {
            return true;
        }
        self.safe_points += 1;
        if kill == Some(Kill::AfterSegment(self.safe_points)) {
            self.output.flush(&w.dfs, NODE, w.alm.log_replication).expect("healthy DFS");
            return false;
        }
        let logged = self
            .logger
            .maybe_log_reduce(self.next as u64, &w.dfs, NODE, &[], self.next as u64, &mut self.output)
            .expect("healthy DFS");
        assert!(logged.is_some(), "one interval per safe point: every snapshot is due");
        kill != Some(Kill::AfterRecord(self.safe_points))
    }

    /// Run to the end of the stream, or to `kill`. Returns false if killed.
    fn run(&mut self, w: &World, kill: Option<Kill>) -> bool {
        while self.next < w.stream.len() {
            if !self.step(w, kill) {
                return false;
            }
        }
        true
    }

    fn commit(self, w: &World) {
        self.output.commit(&w.dfs, NODE, ReplicationLevel::Cluster, FINAL).expect("healthy DFS");
    }
}

fn kill_points(safe_points: usize) -> Vec<Kill> {
    (1..=safe_points).flat_map(|n| [Kill::AfterSegment(n), Kill::AfterRecord(n)]).collect()
}

#[test]
fn a_kill_at_every_segment_and_record_write_recovers_byte_identically() {
    const RECORDS: usize = 61; // 7 safe points and an unflushed tail
    const EVERY: usize = 8;
    for kill in kill_points(RECORDS / EVERY) {
        let w = World::new(RECORDS);
        let mut first = Attempt::recover(&w, 0, EVERY);
        assert!(!first.run(&w, Some(kill)), "{kill:?} is reached");
        let reduced = first.next;
        drop(first);

        let mut second = Attempt::recover(&w, 1, EVERY);
        assert!(second.report.bounded_by_one_snapshot(), "{kill:?}: {:?}", second.report);
        assert!(reduced - second.skipped <= EVERY, "{kill:?}: at most one snapshot of work redone");
        assert!(second.run(&w, None));
        second.commit(&w);
        assert!(w.committed() == w.oracle(), "{kill:?}: committed bytes differ from the oracle's");
        assert!(w.segments().is_empty(), "{kill:?}: commit drops every segment");
    }
}

#[test]
fn a_second_kill_during_recovery_recovers_byte_identically() {
    const RECORDS: usize = 45;
    const EVERY: usize = 6;
    for first_kill in kill_points(RECORDS / EVERY) {
        // The recovering attempt snapshots on a different cadence, so its
        // segments do not line up with its predecessor's.
        for second_kill in kill_points(3) {
            let w = World::new(RECORDS);
            assert!(!Attempt::recover(&w, 0, EVERY).run(&w, Some(first_kill)));
            let mut second = Attempt::recover(&w, 1, 4);
            let died = !second.run(&w, Some(second_kill));
            if !died {
                continue; // resumed too close to the end to reach the kill
            }
            let report = w.finish(2, EVERY);
            assert!(report.bounded_by_one_snapshot(), "{first_kill:?}, {second_kill:?}: {report:?}");
            assert!(w.committed() == w.oracle(), "{first_kill:?}, {second_kill:?}");
        }
    }
}

#[test]
fn flushed_bytes_equal_output_bytes_at_any_snapshot_count() {
    const RECORDS: usize = 600;
    for snapshots in [3usize, 30, 300] {
        let w = World::new(RECORDS);
        let mut a = Attempt::recover(&w, 0, RECORDS / snapshots);
        assert!(a.run(&w, None));
        assert_eq!(a.safe_points, snapshots);
        let output_bytes = a.output.bytes();
        assert_eq!(output_bytes, w.oracle().len() as u64);
        let flushed = w.dfs.stats().bytes_written - a.logger.bytes_written();
        assert_eq!(flushed, output_bytes, "{snapshots} snapshots: every output byte crosses the DFS once");
        assert_eq!(w.segments().len(), snapshots);
        let record_bytes = a.logger.bytes_written();
        a.commit(&w);
        assert_eq!(
            w.dfs.stats().bytes_written - record_bytes,
            2 * output_bytes,
            "{snapshots} snapshots: commit is the one rewrite"
        );
    }
}

#[test]
fn two_attempts_interleaved_under_one_prefix_chain_into_a_valid_prefix() {
    const RECORDS: usize = 90;
    // (cadence of a, cadence of b, records a is ahead by when b starts)
    for (every_a, every_b, head_start) in [(7, 5, 0), (5, 7, 0), (6, 4, 20), (4, 9, 33), (8, 8, 3)] {
        let w = World::new(RECORDS);
        // Algorithm 1: a local relaunch and a speculative attempt of one
        // task, both alive, flushing and logging under the same prefix.
        let mut a = Attempt::recover(&w, 0, every_a);
        for _ in 0..head_start {
            assert!(a.step(&w, None));
        }
        let mut b = Attempt::recover(&w, 1, every_b);
        while a.next < 70 && b.next < 70 {
            assert!(a.step(&w, None));
            assert!(b.step(&w, None));
        }
        // Both die. Whatever the two left behind, the chain is a prefix of
        // the one true stream and the newest record's extent is honoured.
        let what = format!("cadences {every_a}/{every_b}, head start {head_start}");
        let oracle = w.oracle();
        let chain = w.chain();
        assert!(!chain.is_empty() && oracle.starts_with(&chain), "{what}: the chain is not a prefix");
        let restored = PartialOutput::restore(&w.paths, &w.dfs).expect("every segment is readable");
        assert_eq!(restored.bytes(), chain.len() as u64, "{what}: restore follows the whole chain");
        let third = Attempt::recover(&w, 2, every_a);
        assert!(third.skipped > 0 || third.report.output_lost, "{what}: a scratch restart is reported");
        drop(third);
        w.finish(3, every_b);
        assert!(w.committed() == oracle, "{what}: committed bytes differ from the oracle's");
        assert!(w.segments().is_empty(), "{what}: commit drops both attempts' segments");
    }
}

#[test]
fn a_scratch_wipe_under_a_live_writer_still_commits_the_stream() {
    const RECORDS: usize = 90;
    // Why b restarts from scratch — and wipes the prefix — while a is alive.
    for wipe in ["a's first segment is lost", "a is between its first flush and its record"] {
        for (every_a, every_b) in [(6, 6), (6, 4), (5, 9)] {
            let what = format!("{wipe}, cadences {every_a}/{every_b}");
            let w = World::new(RECORDS);
            let mut a = Attempt::recover(&w, 0, every_a);
            let mut b = if wipe.ends_with("lost") {
                for _ in 0..3 * every_a {
                    assert!(a.step(&w, None));
                }
                assert!(w.dfs.delete(&w.paths.dfs_segment(0)));
                let b = Attempt::recover(&w, 1, every_b);
                assert!(b.report.output_lost, "{what}: {:?}", b.report);
                b
            } else {
                for _ in 1..every_a {
                    assert!(a.step(&w, None));
                }
                assert!(!a.step(&w, Some(Kill::AfterSegment(1))), "a pauses after its flush");
                let b = Attempt::recover(&w, 1, every_b);
                // No record vouched for the segment, so nothing reports
                // that a live attempt's durable progress went with it.
                assert_eq!(b.report, RecoveryReport::default(), "{what}");
                // a wakes up and vouches for the segment b just deleted.
                let at = a.next as u64;
                let logged = a.logger.maybe_log_reduce(at, &w.dfs, NODE, &[], at, &mut a.output);
                assert!(logged.expect("healthy DFS").is_some());
                b
            };
            assert_eq!(b.skipped, 0, "{what}");
            // a keeps flushing at offsets past the hole and logging extents
            // the chain no longer holds; b refills the chain from offset 0.
            while a.next < 70 {
                assert!(a.step(&w, None));
                assert!(b.step(&w, None));
            }
            // Both die. The chain is still a prefix of the stream, and the
            // next attempt either finds its record's extent on it (b's
            // segments reached a seam with a's) or scratches again.
            let oracle = w.oracle();
            assert!(oracle.starts_with(&w.chain()), "{what}: the chain is not a prefix");
            let c = Attempt::recover(&w, 2, every_a);
            assert!(c.skipped > 0 || c.report.output_lost, "{what}: {:?}", c.report);
            drop(c);
            w.finish(3, every_b);
            assert!(w.committed() == oracle, "{what}: committed bytes differ from the oracle's");
            assert!(w.segments().is_empty(), "{what}");
        }
    }
}

#[test]
fn a_damaged_segment_means_a_scratch_restart_with_correct_bytes() {
    const RECORDS: usize = 50;
    const EVERY: usize = 10;
    for damage in ["rot", "delete", "cut mid-record", "cut at a record boundary"] {
        for victim in 0..3 {
            let w = World::new(RECORDS);
            assert!(!Attempt::recover(&w, 0, EVERY).run(&w, Some(Kill::AfterRecord(4))));
            let path = w.segments()[victim].clone();
            let whole = w.dfs.read(&path).expect("healthy so far");
            let first_record =
                alm_shuffle::codec::decode_at(&whole, 0).expect("decodes").expect("non-empty").2;
            match damage {
                "rot" => assert!(w.dfs.corrupt_replica(&path, 0, None)),
                "delete" => assert!(w.dfs.delete(&path)),
                "cut mid-record" => {
                    w.dfs
                        .write(&path, whole.slice(0..whole.len() - 3), NODE, ReplicationLevel::Node)
                        .unwrap();
                }
                _ => {
                    w.dfs.write(&path, whole.slice(0..first_record), NODE, ReplicationLevel::Node).unwrap();
                }
            }
            let what = format!("{damage} segment {victim}");
            let mut second = Attempt::recover(&w, 1, EVERY);
            assert_eq!(second.skipped, 0, "{what}: nothing may be skipped");
            assert!(second.report.output_lost, "{what}: {:?}", second.report);
            assert!(!second.report.bounded_by_one_snapshot(), "{what}");
            assert!(w.dfs.list(&w.paths.dfs_prefix).is_empty(), "{what}: the prefix is wiped");
            assert!(second.run(&w, None));
            second.commit(&w);
            assert!(w.committed() == w.oracle(), "{what}: committed bytes differ from the oracle's");
        }
    }
}

#[test]
fn a_segment_past_the_resumed_record_is_deleted_before_anything_is_flushed() {
    let w = World::new(40);
    assert!(!Attempt::recover(&w, 0, 10).run(&w, Some(Kill::AfterSegment(3))));
    assert_eq!(w.segments().len(), 3, "two vouched-for segments and one that is not");
    let second = Attempt::recover(&w, 1, 10);
    assert_eq!(second.skipped, 20);
    assert_eq!(w.segments().len(), 2, "the unvouched segment is gone before the attempt reduces a record");
    assert_eq!(second.report, RecoveryReport { resumed_seq: Some(1), ..RecoveryReport::default() });
}
