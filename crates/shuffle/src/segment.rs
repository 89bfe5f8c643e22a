//! Sorted runs ("segments") and resumable readers over them.
//!
//! A segment is a byte stream in the [`crate::codec`] format whose records
//! are sorted bytewise by key. [`SegmentReader`] walks one record at a
//! time and knows the byte offset of its *current* record —
//! the pair `(source, offset)` is exactly one entry of the reduce-stage
//! analytics log (Fig. 6), and [`SegmentReader::resume`] is how a recovered
//! ReduceTask re-opens the segment mid-stream.

use bytes::Bytes;
use serde::Serialize;

use crate::codec;
use crate::error::Result;

/// Where a segment's bytes live — recorded in analytics logs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
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
///
/// The reader holds only the *offsets* of its current record: [`key`] and
/// [`value`] are slices of the segment, and a merge that compares keys and
/// copies records out never touches a reference count. [`advance`] builds
/// `Bytes` handles for callers that keep the record.
///
/// [`key`]: SegmentReader::key
/// [`value`]: SegmentReader::value
/// [`advance`]: SegmentReader::advance
#[derive(Debug, Clone)]
pub struct SegmentReader {
    source: SegmentSource,
    data: Bytes,
    /// Byte offset of the current record (the segment's end once exhausted).
    current_offset: usize,
    /// `(key_start, value_start, end)` of the current record.
    current: Option<(usize, usize, usize)>,
}

impl SegmentReader {
    /// Open a segment from the beginning.
    pub fn new(source: SegmentSource, data: Bytes) -> Result<SegmentReader> {
        SegmentReader::resume(source, data, 0)
    }

    /// Open a segment at a byte offset previously obtained from
    /// [`SegmentReader::current_offset`] — the log-resume path.
    pub fn resume(source: SegmentSource, data: Bytes, offset: usize) -> Result<SegmentReader> {
        let current = codec::record_bounds(&data, offset)?;
        Ok(SegmentReader { source, data, current_offset: offset, current })
    }

    pub fn source(&self) -> &SegmentSource {
        &self.source
    }

    /// Key of the current record; `None` when exhausted.
    pub fn key(&self) -> Option<&[u8]> {
        self.current.map(|(k, v, _)| &self.data[k..v])
    }

    pub fn value(&self) -> Option<&[u8]> {
        self.current.map(|(_, v, end)| &self.data[v..end])
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

    /// Move to the next record without materialising the current one.
    pub fn skip(&mut self) -> Result<()> {
        if let Some((_, _, end)) = self.current.take() {
            self.current_offset = end;
            self.current = codec::record_bounds(&self.data, end)?;
        }
        Ok(())
    }

    /// Move to the next record; returns the record that was current.
    pub fn advance(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        let out = self.current.map(|(k, v, end)| (self.data.slice(k..v), self.data.slice(v..end)));
        self.skip()?;
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
    fn skip_moves_like_advance_and_reads_in_place() {
        let data = seg();
        let mut r = SegmentReader::new(src(), data.clone()).unwrap();
        assert_eq!(r.key().unwrap().as_ptr(), data.as_ptr().wrapping_add(codec::HEADER_LEN));
        r.skip().unwrap();
        assert_eq!((r.key().unwrap(), r.value().unwrap()), (&b"b"[..], &b"2"[..]));
        r.skip().unwrap();
        r.skip().unwrap();
        assert!(r.is_exhausted());
        assert_eq!(r.current_offset(), data.len());
        r.skip().unwrap(); // a no-op once exhausted
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
