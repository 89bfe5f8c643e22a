//! The logging engine: when to log, what to snapshot, where to store it.
//!
//! Per §III the logger is *task-local* (no job-level coordination) and
//! *asynchronous* (the caller hands it the current time; it decides whether
//! a snapshot is due). Stage strategies differ:
//!
//! * **shuffle/merge** — records go to the node-local store. Before a
//!   shuffle-stage snapshot the logger flushes all in-memory segments to
//!   disk via a temporary merge (so the file list in the record covers all
//!   shuffled data) — the paper's "temporary in-memory merging thread".
//! * **reduce** — records go to the DFS at the configured replication
//!   level, together with the asynchronously-flushed partial reduce output,
//!   so recovery works even when the whole node is gone. The output is an
//!   append-only chain of delta segments ([`PartialOutput`]): a snapshot
//!   costs the bytes produced since the previous one, not the bytes
//!   produced so far.

use alm_dfs::DfsCluster;
use alm_shuffle::{LocalFs, MpqEntry, ReduceBuffers, ShuffleError};
use alm_types::{AlmConfig, AttemptId, NodeId, ReplicationLevel, TaskId};
use bytes::Bytes;

use super::record::{LogRecord, MpqLogEntry, StageLog};

/// Where a task's analytics logs live. Keyed by *task*, not attempt, so a
/// recovery attempt finds its predecessor's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogPaths {
    /// Prefix on the node-local store for shuffle/merge-stage records.
    pub local_prefix: String,
    /// Prefix on the DFS for reduce-stage records and flushed output.
    pub dfs_prefix: String,
}

impl LogPaths {
    pub fn for_task(task: TaskId) -> LogPaths {
        LogPaths { local_prefix: format!("alg/{task}/"), dfs_prefix: format!("/alg/{task}/") }
    }

    pub fn local_record(&self, seq: u64) -> String {
        format!("{}log-{seq:08}", self.local_prefix)
    }

    pub fn dfs_record(&self, seq: u64) -> String {
        format!("{}log-{seq:08}", self.dfs_prefix)
    }

    /// Common prefix of the partial-output segments. Not `log-`, so
    /// record scans never mistake a segment for a record.
    pub fn dfs_segment_prefix(&self) -> String {
        format!("{}out-", self.dfs_prefix)
    }

    /// The segment that starts at byte `offset` of the task's reduce-output
    /// stream. Zero-padded to `u64::MAX`'s width: `DfsCluster::list`
    /// returns segments in stream order and "every segment from `offset`
    /// on" is a string comparison.
    pub fn dfs_segment(&self, offset: u64) -> String {
        format!("{}out-{offset:020}", self.dfs_prefix)
    }
}

/// Periodic progress logger for one ReduceTask attempt.
pub struct AnalyticsLogger {
    paths: LogPaths,
    attempt: AttemptId,
    interval_ms: u64,
    replication: ReplicationLevel,
    seq: u64,
    last_log_ms: Option<u64>,
    records_written: u64,
    bytes_written: u64,
}

impl AnalyticsLogger {
    pub fn new(config: &AlmConfig, attempt: AttemptId) -> AnalyticsLogger {
        AnalyticsLogger {
            paths: LogPaths::for_task(attempt.task),
            attempt,
            interval_ms: config.logging_interval_ms.max(1),
            replication: config.log_replication,
            seq: 0,
            last_log_ms: None,
            records_written: 0,
            bytes_written: 0,
        }
    }

    /// Continue sequence numbering after a resumed attempt so newer records
    /// always outrank restored ones.
    pub fn resume_after(&mut self, prior_seq: u64) {
        self.seq = self.seq.max(prior_seq + 1);
    }

    pub fn paths(&self) -> &LogPaths {
        &self.paths
    }

    /// Whether the logging interval has elapsed.
    pub fn due(&self, now_ms: u64) -> bool {
        match self.last_log_ms {
            None => true,
            Some(t) => now_ms.saturating_sub(t) >= self.interval_ms,
        }
    }

    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn write_local(
        &mut self,
        fs: &dyn LocalFs,
        now_ms: u64,
        stage: StageLog,
    ) -> Result<LogRecord, ShuffleError> {
        let rec = LogRecord::new(self.attempt, self.seq, now_ms, stage);
        let encoded = rec.encode();
        self.bytes_written += encoded.len() as u64;
        fs.write(&self.paths.local_record(self.seq), encoded)?;
        self.seq += 1;
        self.records_written += 1;
        self.last_log_ms = Some(now_ms);
        Ok(rec)
    }

    /// Shuffle-stage snapshot (if due): flush in-memory segments, then log
    /// fetched MOF ids + intermediate file paths to the local store.
    pub fn maybe_log_shuffle(
        &mut self,
        now_ms: u64,
        fs: &dyn LocalFs,
        buffers: &mut ReduceBuffers,
    ) -> Result<Option<LogRecord>, ShuffleError> {
        if !self.due(now_ms) {
            return Ok(None);
        }
        // Temporary in-memory merge: evacuate volatile segments so the
        // logged file list is complete.
        buffers.flush_in_memory(fs)?;
        let stage = StageLog::Shuffle {
            shuffled_bytes: buffers.shuffled_bytes(),
            fetched_mof_ids: buffers.fetched().iter().copied().collect(),
            intermediate_files: buffers.on_disk_paths().to_vec(),
        };
        self.write_local(fs, now_ms, stage).map(Some)
    }

    /// Merge-stage snapshot (if due): only the surviving file paths matter.
    pub fn maybe_log_merge(
        &mut self,
        now_ms: u64,
        fs: &dyn LocalFs,
        merge_progress: f64,
        intermediate_files: &[String],
    ) -> Result<Option<LogRecord>, ShuffleError> {
        if !self.due(now_ms) {
            return Ok(None);
        }
        let stage = StageLog::Merge {
            merge_progress: merge_progress.clamp(0.0, 1.0),
            intermediate_files: intermediate_files.to_vec(),
        };
        self.write_local(fs, now_ms, stage).map(Some)
    }

    /// Reduce-stage snapshot (if due): the MPQ structure and the flushed
    /// partial output, stored on the DFS so it survives node loss.
    #[allow(clippy::too_many_arguments)]
    pub fn maybe_log_reduce(
        &mut self,
        now_ms: u64,
        dfs: &DfsCluster,
        node: NodeId,
        mpq_snapshot: &[MpqEntry],
        records_processed: u64,
        output: &mut PartialOutput,
    ) -> Result<Option<LogRecord>, ShuffleError> {
        if !self.due(now_ms) {
            return Ok(None);
        }
        // Flush the accumulated reduce output first: the record must never
        // reference output that is not yet durable.
        let (output_path, output_records) = output.flush(dfs, node, self.replication)?;
        let stage = StageLog::Reduce {
            records_processed,
            mpq: mpq_snapshot.iter().map(MpqLogEntry::from).collect(),
            output_path,
            output_records,
        };
        let rec = LogRecord::new(self.attempt, self.seq, now_ms, stage);
        let encoded = rec.encode();
        self.bytes_written += encoded.len() as u64;
        dfs.write(&self.paths.dfs_record(self.seq), encoded, node, self.replication).map_err(dfs_failed)?;
        self.seq += 1;
        self.records_written += 1;
        self.last_log_ms = Some(now_ms);
        Ok(Some(rec))
    }
}

fn dfs_failed(e: alm_dfs::DfsError) -> ShuffleError {
    ShuffleError::FetchFailed { source: "dfs".into(), reason: e.to_string() }
}

/// The asynchronously-flushed partial reduce output (§III-B): completed
/// `reduce()` results accumulate here and are written to the DFS at each
/// reduce-stage log point, "without stalling the execution of the
/// ReduceTask".
///
/// On the DFS the output is a chain of delta segments under the task's
/// prefix, each named by the stream byte offset it starts at
/// ([`LogPaths::dfs_segment`]) and holding whole records. A flush writes
/// only the bytes appended since the previous flush. Naming by offset
/// rather than by a counter is what makes two attempts of one task safe
/// under one prefix: the reduce stream is deterministic, so whichever
/// attempt wrote the segment found at offset `n`, following the chain from
/// offset 0 can only ever read a prefix of the one true stream.
pub struct PartialOutput {
    paths: LogPaths,
    buf: Vec<u8>,
    records: u64,
    /// End offsets of the chain's segments, ascending; the last one is how
    /// much of `buf` is durable and where the next segment will start.
    chain: Vec<usize>,
}

impl PartialOutput {
    pub fn new(paths: &LogPaths) -> PartialOutput {
        PartialOutput { paths: paths.clone(), buf: Vec::new(), records: 0, chain: Vec::new() }
    }

    /// Reload everything a previous attempt flushed: follow the chain from
    /// offset 0 until a segment is missing. A missing segment ends the
    /// chain (none at offset 0: nothing was ever flushed); a segment that
    /// exists but cannot be read or decoded is an error — the caller must
    /// not mistake lost output for no output.
    pub fn restore(paths: &LogPaths, dfs: &DfsCluster) -> Result<PartialOutput, ShuffleError> {
        let mut out = PartialOutput::new(paths);
        loop {
            let data = match dfs.read(&paths.dfs_segment(out.buf.len() as u64)) {
                Ok(data) => data,
                Err(alm_dfs::DfsError::NotFound(_)) => return Ok(out),
                Err(e) => return Err(dfs_failed(e)),
            };
            if data.is_empty() {
                return Err(ShuffleError::Corrupt("empty partial-output segment".into()));
            }
            out.records += alm_shuffle::codec::validate_stream(&data)? as u64;
            out.buf.extend_from_slice(&data);
            out.chain.push(out.buf.len());
        }
    }

    /// Cut the output back to its first `records` records — the extent a
    /// reduce-stage log record vouches for — and delete every segment
    /// that reaches past that point, before anything new is flushed.
    /// Returns false, changing nothing, when fewer records are held.
    /// Crate-private: [`super::recovery::recover_attempt`] is the only
    /// supported way for a recovering attempt to obtain its output, so
    /// that state and output cannot be combined unbound.
    pub(crate) fn truncate(&mut self, dfs: &DfsCluster, records: u64) -> bool {
        let mut extent = 0;
        for _ in 0..records {
            match alm_shuffle::codec::record_bounds(&self.buf, extent) {
                Ok(Some((_, _, end))) => extent = end,
                _ => return false,
            }
        }
        self.buf.truncate(extent);
        self.records = records;
        // A segment straddling the extent (only possible when another
        // attempt flushed at different points) goes too; its leading bytes
        // stay in `buf` and ride in the next flush.
        self.chain.retain(|&end| end <= extent);
        let first_stale = self.paths.dfs_segment(self.durable_bytes() as u64);
        for p in dfs.list(&self.paths.dfs_segment_prefix()) {
            if p >= first_stale {
                dfs.delete(&p);
            }
        }
        true
    }

    /// Append one reduce-output record.
    pub fn append(&mut self, key: &[u8], value: &[u8]) {
        alm_shuffle::codec::encode_into(&mut self.buf, key, value);
        self.records += 1;
    }

    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    fn durable_bytes(&self) -> usize {
        self.chain.last().copied().unwrap_or(0)
    }

    /// Make everything appended so far durable: write the bytes past the
    /// last segment as one new segment (nothing new, no segment). Returns
    /// `(segment prefix, records durable)`.
    pub fn flush(
        &mut self,
        dfs: &DfsCluster,
        node: NodeId,
        replication: ReplicationLevel,
    ) -> Result<(String, u64), ShuffleError> {
        let durable = self.durable_bytes();
        if self.buf.len() > durable {
            let tail = Bytes::copy_from_slice(&self.buf[durable..]);
            dfs.write(&self.paths.dfs_segment(durable as u64), tail, node, replication)
                .map_err(dfs_failed)?;
            self.chain.push(self.buf.len());
        }
        Ok((self.paths.dfs_segment_prefix(), self.records))
    }

    /// Commit the final output to its job-visible path — the one write a
    /// job without logging pays too — and drop every segment under the
    /// task's prefix, whichever attempt wrote it.
    pub fn commit(
        self,
        dfs: &DfsCluster,
        node: NodeId,
        replication: ReplicationLevel,
        final_path: &str,
    ) -> Result<u64, ShuffleError> {
        dfs.write(final_path, Bytes::from(self.buf), node, replication).map_err(dfs_failed)?;
        for p in dfs.list(&self.paths.dfs_segment_prefix()) {
            dfs.delete(&p);
        }
        Ok(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_dfs::Topology;
    use alm_shuffle::segment::build_segment;
    use alm_shuffle::{bytewise_cmp, MemFs};
    use alm_types::{JobId, RecoveryMode};

    fn cfg() -> AlmConfig {
        AlmConfig { logging_interval_ms: 100, ..AlmConfig::with_mode(RecoveryMode::SfmAlg) }
    }

    fn attempt() -> AttemptId {
        TaskId::reduce(JobId(2), 0).attempt(0)
    }

    fn dfs() -> DfsCluster {
        DfsCluster::new(Topology::even(4, 2), 1024, 2)
    }

    #[test]
    fn interval_gating() {
        let mut lg = AnalyticsLogger::new(&cfg(), attempt());
        let fs = MemFs::new();
        let mut bufs = ReduceBuffers::new(bytewise_cmp(), "r/", 1 << 20, 0.9);
        assert!(lg.due(0), "first log is always due");
        assert!(lg.maybe_log_shuffle(0, &fs, &mut bufs).unwrap().is_some());
        assert!(!lg.due(50));
        assert!(lg.maybe_log_shuffle(50, &fs, &mut bufs).unwrap().is_none());
        assert!(lg.maybe_log_shuffle(100, &fs, &mut bufs).unwrap().is_some());
        assert_eq!(lg.records_written(), 2);
    }

    #[test]
    fn shuffle_log_flushes_memory_and_lists_files() {
        let mut lg = AnalyticsLogger::new(&cfg(), attempt());
        let fs = MemFs::new();
        let mut bufs = ReduceBuffers::new(bytewise_cmp(), "r/", 1 << 20, 0.99);
        bufs.ingest(&fs, 0, build_segment(&[(b"a".to_vec(), b"1".to_vec())])).unwrap();
        bufs.ingest(&fs, 3, build_segment(&[(b"b".to_vec(), b"2".to_vec())])).unwrap();
        assert_eq!(bufs.in_mem_segments(), 2);
        let rec = lg.maybe_log_shuffle(0, &fs, &mut bufs).unwrap().unwrap();
        assert_eq!(bufs.in_mem_segments(), 0, "pre-log flush evacuated memory");
        match &rec.stage {
            StageLog::Shuffle { fetched_mof_ids, intermediate_files, shuffled_bytes } => {
                assert_eq!(fetched_mof_ids, &vec![0, 3]);
                assert_eq!(intermediate_files.len(), 1);
                assert!(*shuffled_bytes > 0);
            }
            other => panic!("expected shuffle log, got {other:?}"),
        }
        // The record is durable on the local store and decodes back.
        let stored = fs.read(&lg.paths().local_record(0)).unwrap();
        assert_eq!(LogRecord::decode(&stored).unwrap(), rec);
    }

    #[test]
    fn reduce_log_goes_to_dfs_with_output() {
        let mut lg = AnalyticsLogger::new(&cfg(), attempt());
        let d = dfs();
        let mut out = PartialOutput::new(lg.paths());
        out.append(b"k1", b"v1");
        out.append(b"k2", b"v2");
        let rec = lg.maybe_log_reduce(0, &d, NodeId(1), &[], 2, &mut out).unwrap().unwrap();
        match &rec.stage {
            StageLog::Reduce { records_processed, output_records, output_path, .. } => {
                assert_eq!(*records_processed, 2);
                assert_eq!(*output_records, 2);
                assert_eq!(d.list(output_path), vec![lg.paths().dfs_segment(0)], "flushed output is durable");
            }
            other => panic!("expected reduce log, got {other:?}"),
        }
        assert!(d.is_available(&lg.paths().dfs_record(0)));
    }

    #[test]
    fn partial_output_restore_round_trip() {
        let d = dfs();
        let paths = LogPaths::for_task(attempt().task);
        let mut out = PartialOutput::new(&paths);
        out.append(b"a", b"1");
        out.flush(&d, NodeId(0), ReplicationLevel::Rack).unwrap();
        out.append(b"b", b"2"); // not yet flushed

        let restored = PartialOutput::restore(&paths, &d).unwrap();
        assert_eq!(restored.records(), 1, "only flushed records survive");

        // Committing writes the final path and removes every segment.
        let mut restored = restored;
        restored.append(b"b", b"2");
        let n = restored.commit(&d, NodeId(0), ReplicationLevel::Rack, "/out/part-0").unwrap();
        assert_eq!(n, 2);
        assert!(d.is_available("/out/part-0"));
        assert!(d.list(&paths.dfs_prefix).is_empty());
    }

    #[test]
    fn each_flush_writes_only_the_new_tail() {
        let d = dfs();
        let paths = LogPaths::for_task(attempt().task);
        let mut out = PartialOutput::new(&paths);
        out.append(b"a", b"1");
        let (prefix, n1) = out.flush(&d, NodeId(0), ReplicationLevel::Node).unwrap();
        let first = out.bytes();
        // Nothing new: no segment, no bytes.
        let (_, n2) = out.flush(&d, NodeId(0), ReplicationLevel::Node).unwrap();
        assert_eq!((n1, n2), (1, 1));
        assert_eq!(d.stats().bytes_written, first);
        out.append(b"bb", b"22");
        out.flush(&d, NodeId(0), ReplicationLevel::Node).unwrap();
        assert_eq!(d.list(&prefix), vec![paths.dfs_segment(0), paths.dfs_segment(first)]);
        assert_eq!(d.stats().bytes_written, out.bytes(), "every byte crossed the DFS once");
        assert_eq!(d.read(&paths.dfs_segment(first)).unwrap().len() as u64, out.bytes() - first);
    }

    #[test]
    fn truncate_cuts_memory_and_chain_to_the_vouched_extent() {
        let d = dfs();
        let paths = LogPaths::for_task(attempt().task);
        let mut out = PartialOutput::new(&paths);
        for (i, rec) in [b"a", b"b", b"c"].into_iter().enumerate() {
            out.append(rec, &[i as u8]);
            out.flush(&d, NodeId(0), ReplicationLevel::Node).unwrap();
        }
        let mut restored = PartialOutput::restore(&paths, &d).unwrap();
        assert!(!restored.truncate(&d, 4), "a chain shorter than the record vouches for is refused");
        assert_eq!(restored.records(), 3, "and a refusal changes nothing");
        assert!(restored.truncate(&d, 1));
        assert_eq!((restored.records(), restored.bytes()), (1, 10));
        assert_eq!(d.list(&paths.dfs_segment_prefix()), vec![paths.dfs_segment(0)]);
        assert_eq!(PartialOutput::restore(&paths, &d).unwrap().records(), 1);
    }

    #[test]
    fn truncate_inside_a_segment_drops_it_and_reflushes_its_head() {
        // Another attempt's segment straddles the extent this one resumes at.
        let d = dfs();
        let paths = LogPaths::for_task(attempt().task);
        let mut theirs = PartialOutput::new(&paths);
        theirs.append(b"a", b"1");
        theirs.flush(&d, NodeId(0), ReplicationLevel::Node).unwrap();
        theirs.append(b"b", b"2");
        theirs.append(b"c", b"3");
        theirs.flush(&d, NodeId(0), ReplicationLevel::Node).unwrap();

        let mut ours = PartialOutput::restore(&paths, &d).unwrap();
        assert!(ours.truncate(&d, 2));
        assert_eq!(d.list(&paths.dfs_segment_prefix()), vec![paths.dfs_segment(0)]);
        ours.append(b"x", b"9");
        ours.flush(&d, NodeId(0), ReplicationLevel::Node).unwrap();
        let chained = PartialOutput::restore(&paths, &d).unwrap();
        assert_eq!((chained.records(), chained.bytes()), (3, ours.bytes()), "a, b, x — and no c");
    }

    #[test]
    fn unreadable_segment_is_an_error_not_an_empty_output() {
        let d = dfs();
        let paths = LogPaths::for_task(attempt().task);
        assert_eq!(
            PartialOutput::restore(&paths, &d).unwrap().records(),
            0,
            "nothing flushed is not an error"
        );
        let mut out = PartialOutput::new(&paths);
        out.append(b"a", b"1");
        out.flush(&d, NodeId(1), ReplicationLevel::Node).unwrap();
        d.corrupt_replica(&paths.dfs_segment(0), 0, None);
        assert!(PartialOutput::restore(&paths, &d).is_err(), "rotten everywhere");
        out.append(b"b", b"2");
        out.flush(&d, NodeId(1), ReplicationLevel::Node).unwrap();
        d.set_node_alive(NodeId(1), false);
        assert!(PartialOutput::restore(&paths, &d).is_err(), "no live replica");
    }

    #[test]
    fn resume_after_continues_sequence() {
        let mut lg = AnalyticsLogger::new(&cfg(), attempt());
        lg.resume_after(41);
        let fs = MemFs::new();
        let mut bufs = ReduceBuffers::new(bytewise_cmp(), "r/", 1 << 20, 0.9);
        let rec = lg.maybe_log_shuffle(0, &fs, &mut bufs).unwrap().unwrap();
        assert_eq!(rec.seq, 42);
    }
}
