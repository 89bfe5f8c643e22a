//! Analytics log records — the concrete realisation of Fig. 6.
//!
//! Records are serialised as JSON (`derive(Serialize)`) inside the shared
//! CRC32-checksummed frame ([`alm_shuffle::frame`]). Decoding unframes the
//! payload, parses it into a [`serde_json::Value`] and reads each field by
//! name — the record is the only typed value the workspace reads back, so
//! its reader lives here rather than in a deserialisation framework. A
//! torn record (the node died mid-write) decodes to
//! [`ShuffleError::Corrupt`]; an intact record whose bytes rotted decodes
//! to [`ShuffleError::ChecksumMismatch`]; an intact frame whose payload is
//! not a record of this shape is [`ShuffleError::Corrupt`] too.
//! Recovery treats each as a truncation point: it resumes from the
//! last good snapshot before the damage — logging is always safe to
//! interrupt and at most one snapshot interval of work is redone.

use alm_types::{AttemptId, JobId, ReducePhase, TaskId, TaskKind};
use bytes::Bytes;
use serde::Serialize;
use serde_json::Value;

use alm_shuffle::frame;
use alm_shuffle::{MpqEntry, SegmentSource, ShuffleError};

/// One MPQ member in a reduce-stage log: the segment's location and the
/// byte offset of its next unconsumed record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MpqLogEntry {
    pub source: SegmentSource,
    pub offset: u64,
}

impl From<&MpqEntry> for MpqLogEntry {
    fn from(e: &MpqEntry) -> MpqLogEntry {
        MpqLogEntry { source: e.source.clone(), offset: e.offset as u64 }
    }
}

/// Stage-specific progress payload (the three columns of Fig. 6).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum StageLog {
    /// Shuffle stage: which MOFs have been fetched and where the local
    /// intermediate files are. On resume, only the missing MOFs are
    /// re-fetched.
    Shuffle { shuffled_bytes: u64, fetched_mof_ids: Vec<u32>, intermediate_files: Vec<String> },
    /// Merge stage: all segments are local; only the file paths (and how
    /// far the factor-merge has come) matter.
    Merge { merge_progress: f64, intermediate_files: Vec<String> },
    /// Reduce stage: the MPQ structure plus the amount of reduce work
    /// already done and where its flushed output lives on the DFS.
    Reduce {
        records_processed: u64,
        mpq: Vec<MpqLogEntry>,
        /// DFS path of the (asynchronously flushed) partial reduce output.
        output_path: String,
        output_records: u64,
    },
}

impl StageLog {
    pub fn phase(&self) -> ReducePhase {
        match self {
            StageLog::Shuffle { .. } => ReducePhase::Shuffle,
            StageLog::Merge { .. } => ReducePhase::Merge,
            StageLog::Reduce { .. } => ReducePhase::Reduce,
        }
    }
}

/// A complete, self-describing log record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LogRecord {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The attempt that wrote the record.
    pub attempt: AttemptId,
    /// Monotonic sequence number within the attempt; recovery picks the
    /// highest valid one.
    pub seq: u64,
    /// Virtual/real timestamp (ms) at write time — diagnostics only.
    pub at_ms: u64,
    pub stage: StageLog,
}

pub const LOG_FORMAT_VERSION: u32 = 1;

/// Envelope: one CRC32 frame (`[len u32 BE][crc32 u32 BE][json]`).
impl LogRecord {
    pub fn new(attempt: AttemptId, seq: u64, at_ms: u64, stage: StageLog) -> LogRecord {
        LogRecord { version: LOG_FORMAT_VERSION, attempt, seq, at_ms, stage }
    }

    pub fn encode(&self) -> Bytes {
        let payload = serde_json::to_vec(self).expect("log records always serialise");
        Bytes::from(frame::frame(&payload))
    }

    /// Decode one framed record. Torn/truncated bytes are
    /// [`ShuffleError::Corrupt`]; an intact frame with rotted payload is
    /// [`ShuffleError::ChecksumMismatch`] — recovery truncates the log at
    /// either, but reports them distinctly.
    ///
    /// The payload must have exactly the shape [`LogRecord::encode`]
    /// writes. A payload that is not UTF-8 or not JSON, a missing field, a
    /// value of the wrong type, an integer out of its field's range or an
    /// unknown variant tag is [`ShuffleError::Corrupt`]. `null` is not a
    /// number: no writer can log a non-finite `merge_progress`.
    pub fn decode(data: &[u8]) -> Result<LogRecord, ShuffleError> {
        let payload = frame::unframe(&Bytes::copy_from_slice(data))?;
        let text =
            std::str::from_utf8(&payload).map_err(|e| corrupt(format!("payload is not UTF-8: {e}")))?;
        let v = serde_json::parse_value_complete(text)
            .map_err(|e| corrupt(format!("payload is not JSON: {e}")))?;
        Ok(LogRecord {
            version: uint32(v.field("version"), "version")?,
            attempt: attempt(v.field("attempt"))?,
            seq: uint(v.field("seq"), "seq")?,
            at_ms: uint(v.field("at_ms"), "at_ms")?,
            stage: stage(v.field("stage"))?,
        })
    }
}

// Field readers for `decode`. They accept the shape `derive(Serialize)`
// writes: named fields are object members (a missing one reads as `null`
// and fails its type check), `JobId` is a bare number, and enums are
// externally tagged — `{"Reduce":{…}}`, a unit variant the bare string.

fn corrupt(msg: String) -> ShuffleError {
    ShuffleError::Corrupt(format!("log record: {msg}"))
}

fn uint(v: &Value, what: &str) -> Result<u64, ShuffleError> {
    match *v {
        Value::I64(i) if i >= 0 => Ok(i as u64),
        Value::U64(u) => Ok(u),
        _ => Err(corrupt(format!("{what}: expected an unsigned integer, found {v:?}"))),
    }
}

fn uint32(v: &Value, what: &str) -> Result<u32, ShuffleError> {
    u32::try_from(uint(v, what)?).map_err(|_| corrupt(format!("{what}: {v:?} is out of range for u32")))
}

/// An integral float is written without a fraction (`0.0` as `0`), so
/// integers are numbers too.
fn float(v: &Value, what: &str) -> Result<f64, ShuffleError> {
    match *v {
        Value::F64(f) => Ok(f),
        Value::I64(i) => Ok(i as f64),
        Value::U64(u) => Ok(u as f64),
        _ => Err(corrupt(format!("{what}: expected a number, found {v:?}"))),
    }
}

fn string(v: &Value, what: &str) -> Result<String, ShuffleError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(corrupt(format!("{what}: expected a string, found {v:?}"))),
    }
}

fn list<T>(
    v: &Value,
    what: &str,
    item: fn(&Value, &str) -> Result<T, ShuffleError>,
) -> Result<Vec<T>, ShuffleError> {
    match v {
        Value::Array(items) => items.iter().map(|x| item(x, what)).collect(),
        _ => Err(corrupt(format!("{what}: expected an array, found {v:?}"))),
    }
}

/// The tag and body of an externally tagged struct variant.
fn variant<'a>(v: &'a Value, what: &str) -> Result<(&'a str, &'a Value), ShuffleError> {
    match v {
        Value::Object(members) if members.len() == 1 => Ok((&members[0].0, &members[0].1)),
        _ => Err(corrupt(format!("{what}: expected a one-member object, found {v:?}"))),
    }
}

fn attempt(v: &Value) -> Result<AttemptId, ShuffleError> {
    let task = v.field("task");
    let kind = match string(task.field("kind"), "kind")?.as_str() {
        "Map" => TaskKind::Map,
        "Reduce" => TaskKind::Reduce,
        other => return Err(corrupt(format!("kind: unknown task kind {other:?}"))),
    };
    let job = JobId(uint32(task.field("job"), "job")?);
    let task = TaskId { job, kind, index: uint32(task.field("index"), "index")? };
    Ok(task.attempt(uint32(v.field("number"), "number")?))
}

fn stage(v: &Value) -> Result<StageLog, ShuffleError> {
    let files = |s: &Value| list(s.field("intermediate_files"), "intermediate_files", string);
    match variant(v, "stage")? {
        ("Shuffle", s) => Ok(StageLog::Shuffle {
            shuffled_bytes: uint(s.field("shuffled_bytes"), "shuffled_bytes")?,
            fetched_mof_ids: list(s.field("fetched_mof_ids"), "fetched_mof_ids", uint32)?,
            intermediate_files: files(s)?,
        }),
        ("Merge", s) => Ok(StageLog::Merge {
            merge_progress: float(s.field("merge_progress"), "merge_progress")?,
            intermediate_files: files(s)?,
        }),
        ("Reduce", s) => Ok(StageLog::Reduce {
            records_processed: uint(s.field("records_processed"), "records_processed")?,
            mpq: list(s.field("mpq"), "mpq", mpq_entry)?,
            output_path: string(s.field("output_path"), "output_path")?,
            output_records: uint(s.field("output_records"), "output_records")?,
        }),
        (tag, _) => Err(corrupt(format!("stage: unknown stage {tag:?}"))),
    }
}

fn mpq_entry(v: &Value, _: &str) -> Result<MpqLogEntry, ShuffleError> {
    let source = match variant(v.field("source"), "source")? {
        ("Memory", s) => SegmentSource::Memory { id: uint(s.field("id"), "id")? },
        ("LocalFile", s) => SegmentSource::LocalFile { path: string(s.field("path"), "path")? },
        ("Dfs", s) => SegmentSource::Dfs { path: string(s.field("path"), "path")? },
        (tag, _) => return Err(corrupt(format!("source: unknown segment source {tag:?}"))),
    };
    Ok(MpqLogEntry { source, offset: uint(v.field("offset"), "offset")? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn attempt() -> AttemptId {
        TaskId::reduce(JobId(1), 3).attempt(0)
    }

    #[test]
    fn round_trip_each_stage() {
        let stages = [
            StageLog::Shuffle {
                shuffled_bytes: 1 << 30,
                fetched_mof_ids: vec![0, 1, 5],
                intermediate_files: vec!["r/seg-0.out".into()],
            },
            StageLog::Merge { merge_progress: 0.4, intermediate_files: vec!["r/merged-1.out".into()] },
            StageLog::Reduce {
                records_processed: 12345,
                mpq: vec![MpqLogEntry {
                    source: SegmentSource::LocalFile { path: "r/final-0.out".into() },
                    offset: 4096,
                }],
                output_path: "/out/part-3".into(),
                output_records: 999,
            },
        ];
        for (i, stage) in stages.into_iter().enumerate() {
            let rec = LogRecord::new(attempt(), i as u64, 42_000, stage.clone());
            let back = LogRecord::decode(&rec.encode()).unwrap();
            assert_eq!(back, rec);
            assert_eq!(back.stage.phase(), stage.phase());
        }
    }

    #[test]
    fn stage_phases() {
        assert_eq!(
            StageLog::Shuffle { shuffled_bytes: 0, fetched_mof_ids: vec![], intermediate_files: vec![] }
                .phase(),
            ReducePhase::Shuffle
        );
        assert_eq!(
            StageLog::Merge { merge_progress: 0.0, intermediate_files: vec![] }.phase(),
            ReducePhase::Merge
        );
    }

    #[test]
    fn torn_record_detected() {
        let rec = LogRecord::new(
            attempt(),
            0,
            0,
            StageLog::Merge { merge_progress: 0.5, intermediate_files: vec![] },
        );
        let bytes = rec.encode();
        // Truncate the payload: torn write, classified as corruption.
        assert!(matches!(LogRecord::decode(&bytes[..bytes.len() - 3]), Err(ShuffleError::Corrupt(_))));
        // Flip a payload byte: detected checksum mismatch, distinct class.
        let mut corrupted = bytes.to_vec();
        let last = corrupted.len() - 5;
        corrupted[last] ^= 0xff;
        assert!(matches!(LogRecord::decode(&corrupted), Err(ShuffleError::ChecksumMismatch(_))));
        // Too short for even the envelope.
        assert!(matches!(LogRecord::decode(&[1, 2, 3]), Err(ShuffleError::Corrupt(_))));
    }

    /// Records and the exact payload `encode` wrote for each while records
    /// were still read back through a generic deserialiser: `decode` may
    /// change, the bytes on the node stores and the DFS may not.
    fn pinned() -> Vec<(LogRecord, String)> {
        let rec = |seq: u64, stage| {
            LogRecord::new(TaskId::reduce(JobId(7), 3).attempt(2), seq, 1_000 + 500 * seq, stage)
        };
        let files = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let head = r#"{"version":1,"attempt":{"task":{"job":7,"kind":"Reduce","index":3},"number":2}"#;
        let shuffle = StageLog::Shuffle {
            shuffled_bytes: u64::MAX,
            fetched_mof_ids: vec![0, u32::MAX],
            intermediate_files: files(&["r/séjour/数据-0.out"]),
        };
        let reduce = StageLog::Reduce {
            records_processed: 12_345,
            mpq: vec![
                MpqLogEntry { source: SegmentSource::Memory { id: 9 }, offset: 0 },
                MpqLogEntry {
                    source: SegmentSource::LocalFile { path: "r/final-0.out".into() },
                    offset: 4_096,
                },
                MpqLogEntry { source: SegmentSource::Dfs { path: "/alg/r3/seg-1".into() }, offset: 77 },
            ],
            output_path: "/out/part-3".into(),
            output_records: 999,
        };
        let merge = |merge_progress, names: &[&str]| StageLog::Merge {
            merge_progress,
            intermediate_files: files(names),
        };
        [
            (rec(1, shuffle), r#","seq":1,"at_ms":1500,"stage":{"Shuffle":{"shuffled_bytes":18446744073709551615,"fetched_mof_ids":[0,4294967295],"intermediate_files":["r/séjour/数据-0.out"]}}}"#),
            (rec(2, merge(0.0, &[])), r#","seq":2,"at_ms":2000,"stage":{"Merge":{"merge_progress":0,"intermediate_files":[]}}}"#),
            (rec(3, merge(1.0, &["r/merged-1.out"])), r#","seq":3,"at_ms":2500,"stage":{"Merge":{"merge_progress":1,"intermediate_files":["r/merged-1.out"]}}}"#),
            (rec(4, merge(0.4, &["r/merged-1.out", "r/merged-2.out"])), r#","seq":4,"at_ms":3000,"stage":{"Merge":{"merge_progress":0.4,"intermediate_files":["r/merged-1.out","r/merged-2.out"]}}}"#),
            (rec(5, reduce), r#","seq":5,"at_ms":3500,"stage":{"Reduce":{"records_processed":12345,"mpq":[{"source":{"Memory":{"id":9}},"offset":0},{"source":{"LocalFile":{"path":"r/final-0.out"}},"offset":4096},{"source":{"Dfs":{"path":"/alg/r3/seg-1"}},"offset":77}],"output_path":"/out/part-3","output_records":999}}}"#),
        ]
        .into_iter()
        .map(|(rec, tail)| (rec, format!("{head}{tail}")))
        .collect()
    }

    #[test]
    fn payload_bytes_are_pinned_and_decode_back() {
        for (rec, json) in pinned() {
            // A new stage or segment-source variant stops compiling here:
            // pin its payload above and teach `decode` its tag.
            match &rec.stage {
                StageLog::Shuffle { .. } | StageLog::Merge { .. } => {}
                StageLog::Reduce { mpq, .. } => {
                    for e in mpq {
                        match e.source {
                            SegmentSource::Memory { .. }
                            | SegmentSource::LocalFile { .. }
                            | SegmentSource::Dfs { .. } => {}
                        }
                    }
                }
            }
            let framed = rec.encode();
            assert_eq!(std::str::from_utf8(&frame::unframe(&framed).unwrap()).unwrap(), json);
            assert_eq!(LogRecord::decode(&framed).unwrap(), rec);
        }
    }

    #[test]
    fn malformed_payloads_in_a_valid_frame_are_corrupt() {
        let (_, good) = pinned().remove(3);
        let edited = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            good.replacen(from, to, 1).into_bytes()
        };
        let cases = [
            ("missing field", edited(r#""seq":4,"#, "")),
            ("unknown stage tag", edited(r#""Merge""#, r#""Sort""#)),
            ("unknown task kind", edited(r#""Reduce""#, r#""Combine""#)),
            ("string for a number", edited(r#""at_ms":3000"#, r#""at_ms":"3000""#)),
            ("negative seq", edited(r#""seq":4"#, r#""seq":-4"#)),
            ("u32 above u32::MAX", edited(r#""index":3"#, r#""index":4294967296"#)),
            ("null for a float", edited(r#""merge_progress":0.4"#, r#""merge_progress":null"#)),
            ("not JSON", b"not a log record".to_vec()),
            ("trailing bytes", edited("}}}", "}}}}")),
            ("non-UTF-8", b"{\"version\":\xff}".to_vec()),
        ];
        for (what, payload) in cases {
            let got = LogRecord::decode(&frame::frame(&payload));
            assert!(matches!(got, Err(ShuffleError::Corrupt(_))), "{what}: {got:?}");
        }
    }

    proptest! {
        #[test]
        fn arbitrary_shuffle_logs_round_trip(
            bytes_shuffled in proptest::num::u64::ANY,
            mofs in proptest::collection::vec(0u32..5000, 0..50),
            files in proptest::collection::vec("[a-z0-9/._-]{1,30}", 0..10),
            seq in proptest::num::u64::ANY,
        ) {
            let rec = LogRecord::new(attempt(), seq, 1, StageLog::Shuffle {
                shuffled_bytes: bytes_shuffled,
                fetched_mof_ids: mofs,
                intermediate_files: files,
            });
            prop_assert_eq!(LogRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }
}
