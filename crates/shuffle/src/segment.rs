//! Sorted runs ("segments") and resumable readers over them.
//!
//! A segment is a byte stream in the [`crate::codec`] format whose records
//! are sorted by the job's key comparator. [`SegmentReader`] walks one
//! record at a time and knows the byte offset of its *current* record —
//! the pair `(source, offset)` is exactly one entry of the reduce-stage
//! analytics log (Fig. 6), and [`SegmentReader::resume`] is how a recovered
//! ReduceTask re-opens the segment mid-stream.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::codec;
use crate::error::Result;

/// Where a segment's bytes live — recorded in analytics logs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentSource {
    /// An in-memory shuffle segment (lost on task death; ALG's in-memory
    /// merge flush exists to evacuate these before logging).
    Memory { id: u64 },
    /// A file on a node's local store (spill or merged output).
    LocalFile { path: String },
    /// A file on the DFS (reduce-stage logs and flushed reduce output).
    Dfs { path: String },
}

impl SegmentSource {
    pub fn describe(&self) -> String {
        match self {
            SegmentSource::Memory { id } => format!("mem:{id}"),
            SegmentSource::LocalFile { path } => format!("file:{path}"),
            SegmentSource::Dfs { path } => format!("dfs:{path}"),
        }
    }
}

/// A streaming reader over one segment.
#[derive(Debug, Clone)]
pub struct SegmentReader {
    source: SegmentSource,
    data: Bytes,
    /// Byte offset of the current record (valid while `current.is_some()`).
    current_offset: usize,
    /// Offset of the record after the current one.
    next_offset: usize,
    current: Option<(Bytes, Bytes)>,
}

impl SegmentReader {
    /// Open a segment from the beginning.
    pub fn new(source: SegmentSource, data: Bytes) -> Result<SegmentReader> {
        SegmentReader::resume(source, data, 0)
    }

    /// Open a segment at a byte offset previously obtained from
    /// [`SegmentReader::current_offset`] — the log-resume path.
    pub fn resume(source: SegmentSource, data: Bytes, offset: usize) -> Result<SegmentReader> {
        let mut r =
            SegmentReader { source, data, current_offset: offset, next_offset: offset, current: None };
        r.decode_current()?;
        Ok(r)
    }

    fn decode_current(&mut self) -> Result<()> {
        self.current_offset = self.next_offset;
        match codec::decode_at(&self.data, self.next_offset)? {
            Some((k, v, next)) => {
                self.current = Some((k, v));
                self.next_offset = next;
            }
            None => self.current = None,
        }
        Ok(())
    }

    pub fn source(&self) -> &SegmentSource {
        &self.source
    }

    /// Key of the current record; `None` when exhausted.
    pub fn key(&self) -> Option<&[u8]> {
        self.current.as_ref().map(|(k, _)| &k[..])
    }

    pub fn value(&self) -> Option<&[u8]> {
        self.current.as_ref().map(|(_, v)| &v[..])
    }

    /// Byte offset of the current record — what ALG logs for the MPQ.
    pub fn current_offset(&self) -> usize {
        self.current_offset
    }

    pub fn is_exhausted(&self) -> bool {
        self.current.is_none()
    }

    /// Total bytes remaining from the current record to segment end.
    pub fn remaining_bytes(&self) -> usize {
        self.data.len().saturating_sub(self.current_offset)
    }

    /// Move to the next record; returns the record that was current.
    pub fn advance(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        let out = self.current.take();
        if out.is_some() {
            self.decode_current()?;
        }
        Ok(out)
    }
}

/// Build an encoded segment from sorted records (test/production helper).
pub fn build_segment(records: &[(Vec<u8>, Vec<u8>)]) -> Bytes {
    let mut buf = Vec::new();
    for (k, v) in records {
        codec::encode_into(&mut buf, k, v);
    }
    Bytes::from(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> Bytes {
        build_segment(&[
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
            (b"c".to_vec(), b"3".to_vec()),
        ])
    }

    fn src() -> SegmentSource {
        SegmentSource::Memory { id: 0 }
    }

    #[test]
    fn sequential_read() {
        let mut r = SegmentReader::new(src(), seg()).unwrap();
        assert_eq!(r.key().unwrap(), b"a");
        assert_eq!(r.current_offset(), 0);
        let (k, v) = r.advance().unwrap().unwrap();
        assert_eq!((&k[..], &v[..]), (&b"a"[..], &b"1"[..]));
        assert_eq!(r.key().unwrap(), b"b");
        r.advance().unwrap();
        r.advance().unwrap();
        assert!(r.is_exhausted());
        assert_eq!(r.advance().unwrap(), None);
    }

    #[test]
    fn offset_resume_reproduces_suffix() {
        let data = seg();
        let mut r = SegmentReader::new(src(), data.clone()).unwrap();
        r.advance().unwrap(); // consumed "a"
        let off = r.current_offset(); // points at "b"
        let mut resumed = SegmentReader::resume(src(), data, off).unwrap();
        assert_eq!(resumed.key().unwrap(), b"b");
        let mut rest = Vec::new();
        while let Some((k, _)) = resumed.advance().unwrap() {
            rest.push(k);
        }
        assert_eq!(rest.len(), 2);
        assert_eq!(&rest[0][..], b"b");
        assert_eq!(&rest[1][..], b"c");
    }

    #[test]
    fn resume_at_end_is_exhausted() {
        let data = seg();
        let r = SegmentReader::resume(src(), data.clone(), data.len()).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(r.remaining_bytes(), 0);
    }

    #[test]
    fn empty_segment() {
        let r = SegmentReader::new(src(), Bytes::new()).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(r.key(), None);
    }

    #[test]
    fn corrupt_data_errors() {
        let bad = Bytes::from_static(&[0, 0, 0, 9, 0, 0, 0, 9, 1, 2]);
        assert!(SegmentReader::new(src(), bad).is_err());
    }
}
