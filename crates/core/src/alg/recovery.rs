//! Turning logged records back into runnable ReduceTask state.
//!
//! "A recovering ReduceTask looks up the previously generated log files for
//! one that records the progress in the reduce stage" (§IV). Lookup order:
//!
//! 1. the newest valid **reduce-stage** record on the DFS — available even
//!    after a node crash;
//! 2. the newest valid **shuffle/merge-stage** record on the original
//!    node's local store — available only when that node still lives
//!    (Algorithm 1's local-resume path);
//! 3. nothing — recover from scratch (stock YARN behaviour).
//!
//! The log is a journal: records are trusted only up to the first
//! bad/torn one. A damaged record (torn write or detected checksum
//! mismatch) *truncates* the scan — recovery resumes from the last good
//! snapshot strictly before the damage rather than trusting anything
//! after it, so a corruption hit costs at most one snapshot interval of
//! redone work instead of a restart from zero. [`RecoveryReport`]
//! records where the truncation happened so harnesses can assert that
//! bound.
//!
//! A reduce-stage record *vouches for* an extent of the partial output —
//! its first `output_records` records. [`recover_attempt`] makes that
//! binding: the attempt resumes with exactly that extent (whatever was
//! flushed past it is deleted), or — when the chain of segments is
//! missing, unreadable or shorter than the extent — from scratch, with
//! nothing skipped. Output ahead of the skip count would be committed
//! twice; output behind it would be silently lost.

use alm_dfs::DfsCluster;
use alm_shuffle::{LocalFs, ShuffleError};
use serde::Serialize;

use super::logger::{LogPaths, PartialOutput};
use super::record::{LogRecord, MpqLogEntry, StageLog};

/// What recovery managed to restore.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredState {
    /// Resume mid-reduce: rebuild the MPQ from `(source, offset)` entries,
    /// skip `records_processed` records' worth of work, reuse the flushed
    /// output.
    ReduceStage {
        records_processed: u64,
        mpq: Vec<MpqLogEntry>,
        output_path: String,
        output_records: u64,
        seq: u64,
    },
    /// Resume at the merge stage with these local intermediate files.
    MergeStage { intermediate_files: Vec<String>, merge_progress: f64, seq: u64 },
    /// Resume mid-shuffle: re-fetch only the missing MOFs.
    ShuffleStage { shuffled_bytes: u64, fetched_mof_ids: Vec<u32>, intermediate_files: Vec<String>, seq: u64 },
    /// No usable log: start from scratch.
    Fresh,
}

impl RecoveredState {
    pub fn from_record(rec: LogRecord) -> RecoveredState {
        match rec.stage {
            StageLog::Reduce { records_processed, mpq, output_path, output_records } => {
                RecoveredState::ReduceStage {
                    records_processed,
                    mpq,
                    output_path,
                    output_records,
                    seq: rec.seq,
                }
            }
            StageLog::Merge { merge_progress, intermediate_files } => {
                RecoveredState::MergeStage { intermediate_files, merge_progress, seq: rec.seq }
            }
            StageLog::Shuffle { shuffled_bytes, fetched_mof_ids, intermediate_files } => {
                RecoveredState::ShuffleStage {
                    shuffled_bytes,
                    fetched_mof_ids,
                    intermediate_files,
                    seq: rec.seq,
                }
            }
        }
    }

    /// Sequence number of the restored record (for `resume_after`).
    pub fn seq(&self) -> Option<u64> {
        match self {
            RecoveredState::ReduceStage { seq, .. }
            | RecoveredState::MergeStage { seq, .. }
            | RecoveredState::ShuffleStage { seq, .. } => Some(*seq),
            RecoveredState::Fresh => None,
        }
    }

    pub fn is_fresh(&self) -> bool {
        matches!(self, RecoveredState::Fresh)
    }
}

/// Forensics of one log scan: where recovery resumed and what it had to
/// discard. The transient-fault harness asserts its bound — a corrupted
/// record truncates the log *at that seq*, so the resume point is the
/// immediately preceding snapshot and redone work is at most one logging
/// interval.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryReport {
    /// Seq of the snapshot recovery resumed from, if any.
    pub resumed_seq: Option<u64>,
    /// Seq of the first bad/torn record, where the scan truncated the log.
    pub truncated_at_seq: Option<u64>,
    /// Records discarded at and after the truncation point.
    pub discarded_records: usize,
    /// How many of the discards were *detected* checksum mismatches (bit
    /// rot inside an intact frame) as opposed to torn/truncated writes.
    pub checksum_mismatches: usize,
    /// A reduce-stage record was found but the partial output it vouches
    /// for was missing, unreadable or short: the attempt restarted from
    /// scratch and every snapshot of the previous attempt was redone.
    pub output_lost: bool,
}

impl RecoveryReport {
    /// True when recovery cost at most one snapshot: the output the resume
    /// point vouches for was there, and the resume point is exactly the
    /// record before the first bad one (if any was bad).
    pub fn bounded_by_one_snapshot(&self) -> bool {
        if self.output_lost {
            return false;
        }
        match (self.truncated_at_seq, self.resumed_seq) {
            (Some(bad), Some(resumed)) => bad == resumed + 1,
            (Some(bad), None) => bad == 0,
            (None, _) => true,
        }
    }
}

/// Scan one store's records in ascending seq order, truncating at the
/// first bad record: returns the last good record strictly before the
/// damage. `records` is `(seq, decode result)` in any order.
fn scan_journal(
    mut records: Vec<(u64, Result<LogRecord, ShuffleError>)>,
    report: &mut RecoveryReport,
) -> Option<LogRecord> {
    records.sort_by_key(|(seq, _)| *seq);
    let mut last_good: Option<LogRecord> = None;
    for (i, (seq, res)) in records.iter().enumerate() {
        match res {
            Ok(rec) => last_good = Some(rec.clone()),
            Err(_) => {
                report.truncated_at_seq = Some(*seq);
                report.discarded_records = records.len() - i;
                report.checksum_mismatches = records[i..]
                    .iter()
                    .filter(|(_, r)| matches!(r, Err(ShuffleError::ChecksumMismatch(_))))
                    .count();
                break;
            }
        }
    }
    report.resumed_seq = last_good.as_ref().map(|r| r.seq);
    last_good
}

/// Seq encoded in a `…log-{seq:08}` path.
fn seq_of(path: &str) -> Option<u64> {
    path.rsplit("log-").next()?.parse().ok()
}

/// Find the newest *trustworthy* log record for a task, journal-style:
/// the scan stops at the first bad/torn record per store.
///
/// `local_fs` should be `Some` only when the original node is believed
/// alive (its store reachable); reduce-stage records on the DFS win over
/// anything local because they represent strictly later progress.
pub fn find_latest_log(
    local_fs: Option<&dyn LocalFs>,
    dfs: &DfsCluster,
    paths: &LogPaths,
) -> Option<LogRecord> {
    find_latest_log_with_report(local_fs, dfs, paths).0
}

/// [`find_latest_log`] plus the forensic [`RecoveryReport`].
pub fn find_latest_log_with_report(
    local_fs: Option<&dyn LocalFs>,
    dfs: &DfsCluster,
    paths: &LogPaths,
) -> (Option<LogRecord>, RecoveryReport) {
    // Reduce-stage records (DFS).
    let mut dfs_report = RecoveryReport::default();
    let dfs_records: Vec<(u64, Result<LogRecord, ShuffleError>)> = dfs
        .list(&paths.dfs_prefix)
        .into_iter()
        // The partial-output file shares the prefix; only log-* files are records.
        .filter(|p| p.starts_with(&format!("{}log-", paths.dfs_prefix)))
        .filter_map(|p| {
            let seq = seq_of(&p)?;
            let data = dfs.read(&p).ok()?;
            Some((seq, LogRecord::decode(&data)))
        })
        .collect();
    if let Some(rec) = scan_journal(dfs_records, &mut dfs_report) {
        return (Some(rec), dfs_report);
    }

    // No trustworthy DFS record: fall back to shuffle/merge records on the
    // (live) local store, carrying any DFS truncation forensics along.
    let Some(fs) = local_fs else {
        return (None, dfs_report);
    };
    let mut local_report = RecoveryReport::default();
    let local_records: Vec<(u64, Result<LogRecord, ShuffleError>)> = fs
        .list(&format!("{}log-", paths.local_prefix))
        .into_iter()
        .filter_map(|p| {
            let seq = seq_of(&p)?;
            let data = fs.read(&p).ok()?;
            Some((seq, LogRecord::decode(&data)))
        })
        .collect();
    let rec = scan_journal(local_records, &mut local_report);
    let merged = RecoveryReport {
        resumed_seq: local_report.resumed_seq,
        truncated_at_seq: match (dfs_report.truncated_at_seq, local_report.truncated_at_seq) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        },
        discarded_records: dfs_report.discarded_records + local_report.discarded_records,
        checksum_mismatches: dfs_report.checksum_mismatches + local_report.checksum_mismatches,
        output_lost: false,
    };
    (rec, merged)
}

/// `find_latest_log` + `RecoveredState::from_record`.
pub fn recover_state(local_fs: Option<&dyn LocalFs>, dfs: &DfsCluster, paths: &LogPaths) -> RecoveredState {
    recover_state_with_report(local_fs, dfs, paths).0
}

/// [`recover_state`] plus the forensic [`RecoveryReport`].
pub fn recover_state_with_report(
    local_fs: Option<&dyn LocalFs>,
    dfs: &DfsCluster,
    paths: &LogPaths,
) -> (RecoveredState, RecoveryReport) {
    let (rec, report) = find_latest_log_with_report(local_fs, dfs, paths);
    (rec.map_or(RecoveredState::Fresh, RecoveredState::from_record), report)
}

/// What a recovering reduce attempt starts from: the state its newest
/// trustworthy record describes, and exactly the output that record
/// vouches for. One of three outcomes:
///
/// * **resume** — a reduce-stage record whose extent is the whole chain;
/// * **truncate** — the chain runs past the extent (the record that
///   vouched for the rest is rotten, torn or was never written): the
///   excess segments are deleted before the attempt flushes anything;
/// * **scratch** — no reduce-stage record, or one whose extent the chain
///   cannot supply (reported as [`RecoveryReport::output_lost`], state
///   [`RecoveredState::Fresh`]): nothing under the task's DFS prefix is
///   vouched for by anything any more, so all of it is deleted and the
///   output starts empty.
pub fn recover_attempt(
    local_fs: Option<&dyn LocalFs>,
    dfs: &DfsCluster,
    paths: &LogPaths,
) -> (RecoveredState, PartialOutput, RecoveryReport) {
    let (mut state, mut report) = recover_state_with_report(local_fs, dfs, paths);
    if let RecoveredState::ReduceStage { output_records, .. } = state {
        if let Ok(mut output) = PartialOutput::restore(paths, dfs) {
            if output.truncate(dfs, output_records) {
                return (state, output, report);
            }
        }
        report.output_lost = true;
        state = RecoveredState::Fresh;
    }
    for p in dfs.list(&paths.dfs_prefix) {
        dfs.delete(&p);
    }
    (state, PartialOutput::new(paths), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_dfs::Topology;
    use alm_shuffle::MemFs;
    use alm_types::{AttemptId, JobId, NodeId, ReplicationLevel, TaskId};
    use bytes::Bytes;

    fn attempt() -> AttemptId {
        TaskId::reduce(JobId(1), 0).attempt(0)
    }

    fn paths() -> LogPaths {
        LogPaths::for_task(attempt().task)
    }

    fn dfs() -> DfsCluster {
        DfsCluster::new(Topology::even(4, 2), 1024, 2)
    }

    fn shuffle_rec(seq: u64) -> LogRecord {
        LogRecord::new(
            attempt(),
            seq,
            0,
            StageLog::Shuffle {
                shuffled_bytes: seq * 10,
                fetched_mof_ids: vec![],
                intermediate_files: vec![],
            },
        )
    }

    fn reduce_rec(seq: u64) -> LogRecord {
        LogRecord::new(
            attempt(),
            seq,
            0,
            StageLog::Reduce {
                records_processed: seq,
                mpq: vec![],
                output_path: "/p".into(),
                output_records: 0,
            },
        )
    }

    #[test]
    fn fresh_when_no_logs() {
        assert!(recover_state(None, &dfs(), &paths()).is_fresh());
        let fs = MemFs::new();
        assert!(recover_state(Some(&fs), &dfs(), &paths()).is_fresh());
    }

    #[test]
    fn newest_local_record_wins() {
        let fs = MemFs::new();
        let p = paths();
        for seq in [0u64, 2, 1] {
            fs.write(&p.local_record(seq), shuffle_rec(seq).encode()).unwrap();
        }
        let st = recover_state(Some(&fs), &dfs(), &p);
        assert_eq!(st.seq(), Some(2));
        assert!(matches!(st, RecoveredState::ShuffleStage { shuffled_bytes: 20, .. }));
    }

    #[test]
    fn dfs_reduce_record_preferred_over_local() {
        let fs = MemFs::new();
        let d = dfs();
        let p = paths();
        fs.write(&p.local_record(9), shuffle_rec(9).encode()).unwrap();
        d.write(&p.dfs_record(3), reduce_rec(3).encode(), NodeId(0), ReplicationLevel::Rack).unwrap();
        let st = recover_state(Some(&fs), &d, &p);
        assert!(
            matches!(st, RecoveredState::ReduceStage { records_processed: 3, .. }),
            "reduce-stage progress strictly supersedes shuffle-stage logs"
        );
    }

    #[test]
    fn dead_node_loses_local_logs_but_not_dfs() {
        let d = dfs();
        let p = paths();
        d.write(&p.dfs_record(0), reduce_rec(0).encode(), NodeId(0), ReplicationLevel::Rack).unwrap();
        // Node dead: caller passes None for local_fs.
        let st = recover_state(None, &d, &p);
        assert!(matches!(st, RecoveredState::ReduceStage { .. }));
    }

    #[test]
    fn corrupt_records_truncate_to_previous() {
        let fs = MemFs::new();
        let p = paths();
        fs.write(&p.local_record(0), shuffle_rec(0).encode()).unwrap();
        // Newer but torn record.
        let good = shuffle_rec(1).encode();
        fs.write(&p.local_record(1), good.slice(0..good.len() - 2)).unwrap();
        let (st, report) = recover_state_with_report(Some(&fs), &dfs(), &p);
        assert_eq!(st.seq(), Some(0), "torn newest record falls back to previous");
        assert_eq!(report.truncated_at_seq, Some(1));
        assert_eq!(report.discarded_records, 1);
        assert_eq!(report.checksum_mismatches, 0, "torn, not bit-rotted");
        assert!(report.bounded_by_one_snapshot());
    }

    #[test]
    fn corruption_truncates_the_journal_ignoring_later_records() {
        // Records 0..=4, with record 2 bit-flipped: the journal is only
        // trustworthy up to seq 1 — later records must NOT be trusted even
        // though they decode, because the log is a sequential journal.
        let fs = MemFs::new();
        let p = paths();
        for seq in 0..5u64 {
            fs.write(&p.local_record(seq), shuffle_rec(seq).encode()).unwrap();
        }
        let mut bad = shuffle_rec(2).encode().to_vec();
        let n = bad.len();
        bad[n - 4] ^= 0x10;
        fs.write(&p.local_record(2), bytes::Bytes::from(bad)).unwrap();

        let (st, report) = recover_state_with_report(Some(&fs), &dfs(), &p);
        assert_eq!(st.seq(), Some(1), "resume from the last good record before the damage");
        assert_eq!(report.truncated_at_seq, Some(2));
        assert_eq!(report.discarded_records, 3, "bad record plus the two after it");
        assert_eq!(report.checksum_mismatches, 1);
        assert!(report.bounded_by_one_snapshot());
    }

    #[test]
    fn corrupted_dfs_journal_falls_back_to_local_with_forensics() {
        let fs = MemFs::new();
        let d = dfs();
        let p = paths();
        for seq in 0..5u64 {
            fs.write(&p.local_record(seq), shuffle_rec(seq).encode()).unwrap();
        }
        // The only DFS reduce-stage record is corrupted.
        let mut bad = reduce_rec(5).encode().to_vec();
        let n = bad.len();
        bad[n - 6] ^= 0x01;
        d.write(&p.dfs_record(5), Bytes::from(bad), NodeId(0), ReplicationLevel::Rack).unwrap();

        let (st, report) = recover_state_with_report(Some(&fs), &d, &p);
        assert_eq!(st.seq(), Some(4), "falls back to the newest good local snapshot");
        assert_eq!(report.truncated_at_seq, Some(5));
        assert_eq!(report.checksum_mismatches, 1);
        assert!(report.bounded_by_one_snapshot(), "one snapshot interval lost, no more");
    }

    #[test]
    fn fully_corrupt_journal_recovers_fresh_with_unbounded_report() {
        let fs = MemFs::new();
        let p = paths();
        for seq in 0..2u64 {
            let mut bad = shuffle_rec(seq).encode().to_vec();
            let n = bad.len();
            bad[n - 1] ^= 0x80;
            fs.write(&p.local_record(seq), bytes::Bytes::from(bad)).unwrap();
        }
        let (st, report) = recover_state_with_report(Some(&fs), &dfs(), &p);
        assert!(st.is_fresh());
        assert_eq!(report.truncated_at_seq, Some(0));
        assert_eq!(report.discarded_records, 2);
        assert!(report.bounded_by_one_snapshot(), "nothing good before seq 0 means zero snapshots lost");
    }

    #[test]
    fn output_segment_is_not_mistaken_for_a_record() {
        let d = dfs();
        let p = paths();
        d.write(
            &p.dfs_segment(0),
            Bytes::from_static(b"raw output bytes"),
            NodeId(0),
            ReplicationLevel::Rack,
        )
        .unwrap();
        assert!(recover_state(None, &d, &p).is_fresh());
    }

    /// A previous attempt that flushed and logged after 1, 2 and 3 records.
    fn three_snapshots(d: &DfsCluster, p: &LogPaths) {
        let mut out = PartialOutput::new(p);
        for seq in 0..3u64 {
            out.append(&[b'k', seq as u8], b"v");
            let (output_path, output_records) = out.flush(d, NodeId(0), ReplicationLevel::Rack).unwrap();
            let stage =
                StageLog::Reduce { records_processed: seq + 1, mpq: vec![], output_path, output_records };
            let rec = LogRecord::new(attempt(), seq, 0, stage);
            d.write(&p.dfs_record(seq), rec.encode(), NodeId(0), ReplicationLevel::Rack).unwrap();
        }
    }

    #[test]
    fn recover_attempt_resumes_with_exactly_the_vouched_output() {
        let (d, p) = (dfs(), paths());
        three_snapshots(&d, &p);
        let (state, out, report) = recover_attempt(None, &d, &p);
        assert!(matches!(state, RecoveredState::ReduceStage { records_processed: 3, .. }));
        assert_eq!(out.records(), 3);
        assert!(report.bounded_by_one_snapshot());
        assert_eq!(d.list(&p.dfs_segment_prefix()).len(), 3, "a clean resume deletes nothing");
    }

    #[test]
    fn recover_attempt_truncates_output_ahead_of_the_record() {
        let (d, p) = (dfs(), paths());
        three_snapshots(&d, &p);
        // The newest record is torn: its segment is flushed but unvouched.
        let torn = d.read(&p.dfs_record(2)).unwrap();
        d.write(&p.dfs_record(2), torn.slice(0..torn.len() - 2), NodeId(0), ReplicationLevel::Rack).unwrap();
        let (state, out, report) = recover_attempt(None, &d, &p);
        assert!(matches!(state, RecoveredState::ReduceStage { records_processed: 2, .. }));
        assert_eq!(out.records(), 2, "output never runs ahead of the skip count");
        assert!(report.bounded_by_one_snapshot());
        assert_eq!(d.list(&p.dfs_segment_prefix()).len(), 2, "the unvouched segment is gone");
    }

    #[test]
    fn recover_attempt_restarts_from_scratch_when_the_chain_is_lost() {
        for damage in ["missing", "rotten", "short"] {
            let d = DfsCluster::new(Topology::even(4, 2), 1024, 1);
            let p = paths();
            three_snapshots(&d, &p);
            match damage {
                "missing" => assert!(d.delete(&p.dfs_segment(0))),
                "rotten" => assert!(d.corrupt_replica(&p.dfs_segment(0), 0, None)),
                _ => assert!(d.delete(&d.list(&p.dfs_segment_prefix())[2])),
            }
            let (state, out, report) = recover_attempt(None, &d, &p);
            assert!(state.is_fresh(), "{damage}: nothing may be skipped");
            assert_eq!(out.records(), 0, "{damage}");
            assert!(report.output_lost && !report.bounded_by_one_snapshot(), "{damage}: {report:?}");
            assert!(d.list(&p.dfs_prefix).is_empty(), "{damage}: records vouching for lost output go too");
        }
    }

    #[test]
    fn recover_attempt_without_a_reduce_record_starts_with_empty_output() {
        let (d, p) = (dfs(), paths());
        let fs = MemFs::new();
        fs.write(&p.local_record(0), shuffle_rec(0).encode()).unwrap();
        // Flushed, but the attempt died before the record was written.
        let mut out = PartialOutput::new(&p);
        out.append(b"k", b"v");
        out.flush(&d, NodeId(0), ReplicationLevel::Rack).unwrap();
        let (state, out, report) = recover_attempt(Some(&fs), &d, &p);
        assert!(matches!(state, RecoveredState::ShuffleStage { .. }));
        assert_eq!(out.records(), 0);
        assert!(!report.output_lost, "no record vouched for that output");
        assert!(d.list(&p.dfs_prefix).is_empty());
    }

    #[test]
    fn merge_stage_record_maps_to_merge_state() {
        let fs = MemFs::new();
        let p = paths();
        let rec = LogRecord::new(
            attempt(),
            5,
            0,
            StageLog::Merge { merge_progress: 0.7, intermediate_files: vec!["a".into()] },
        );
        fs.write(&p.local_record(5), rec.encode()).unwrap();
        match recover_state(Some(&fs), &dfs(), &p) {
            RecoveredState::MergeStage { intermediate_files, merge_progress, seq } => {
                assert_eq!(intermediate_files, vec!["a".to_string()]);
                assert!((merge_progress - 0.7).abs() < 1e-12);
                assert_eq!(seq, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
