//! Map Output Files.
//!
//! A MOF is the committed output of one MapTask attempt: a single data
//! blob containing every reduce partition's sorted run back-to-back, plus
//! an index of `(offset, len)` per partition (§II-A: "A MOF contains
//! multiple partitions, one per ReduceTask"). MOFs live on the map-side
//! node's local store; losing that node loses the MOFs — the root cause
//! chain of the paper's failure amplification.

use bytes::Bytes;
use serde::Serialize;

use crate::error::{Result, ShuffleError};
use crate::frame;
use crate::localfs::LocalFs;

/// Handle to a committed MOF.
///
/// Each partition's sorted run is stored as one CRC32-checksummed frame
/// ([`crate::frame`]) so that on-disk corruption of a partition is caught
/// at fetch time as [`ShuffleError::ChecksumMismatch`] instead of being
/// shuffled into a reducer silently.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MofData {
    /// Path of the data blob on the producing node's local store.
    pub path: String,
    /// Per-partition `(frame_offset, payload_len)` into the blob; the
    /// stored frame occupies `frame::framed_len(payload_len)` bytes.
    pub index: Vec<(u64, u64)>,
}

impl MofData {
    pub fn num_partitions(&self) -> u32 {
        self.index.len() as u32
    }

    /// Bytes of one partition (zero for an empty partition).
    pub fn partition_len(&self, partition: u32) -> u64 {
        self.index.get(partition as usize).map_or(0, |&(_, len)| len)
    }

    pub fn total_bytes(&self) -> u64 {
        self.index.iter().map(|&(_, len)| len).sum()
    }

    /// Byte range `(offset, len)` of one partition's stored frame within
    /// the blob — the unit a corruption injection targets.
    pub fn frame_range(&self, partition: u32) -> Option<(u64, u64)> {
        self.index.get(partition as usize).map(|&(off, len)| (off, frame::framed_len(len as usize) as u64))
    }

    /// Read and checksum-verify one partition's sorted run from the
    /// producing node's store. Fails with `Invalid` if the partition index
    /// is out of range, `NotFound`/`Corrupt` if the store lost or tore the
    /// blob (node crash), and `ChecksumMismatch` if the frame is intact
    /// but its payload bytes rotted.
    pub fn read_partition(&self, fs: &dyn LocalFs, partition: u32) -> Result<Bytes> {
        let &(off, len) = self
            .index
            .get(partition as usize)
            .ok_or_else(|| ShuffleError::Invalid(format!("partition {partition} out of range")))?;
        let blob = fs.read(&self.path)?;
        let (off, framed) = (off as usize, frame::framed_len(len as usize));
        if off + framed > blob.len() {
            return Err(ShuffleError::Corrupt(format!(
                "MOF index points past blob end ({} + {} > {})",
                off,
                framed,
                blob.len()
            )));
        }
        frame::unframe(&blob.slice(off..off + framed))
    }
}

/// Assemble and commit a MOF of `num_partitions` partitions. `fill(p,
/// blob)` appends partition `p`'s encoded sorted run to the blob, which
/// frames it in place ([`frame::frame_with`]); `payload_bytes` sizes the
/// blob up front.
pub fn build_mof(
    fs: &dyn LocalFs,
    path: &str,
    num_partitions: usize,
    payload_bytes: usize,
    mut fill: impl FnMut(usize, &mut Vec<u8>) -> Result<()>,
) -> Result<MofData> {
    let mut blob = Vec::with_capacity(payload_bytes + num_partitions * frame::FRAME_HEADER_LEN);
    let mut index = Vec::with_capacity(num_partitions);
    for part in 0..num_partitions {
        let offset = blob.len() as u64;
        let len = frame::frame_with(&mut blob, |blob| fill(part, blob))?;
        index.push((offset, len as u64));
    }
    fs.write(path, Bytes::from(blob))?;
    Ok(MofData { path: path.to_string(), index })
}

/// Assemble and commit a MOF from per-partition encoded sorted runs, each
/// wrapped in a CRC32 frame.
pub fn write_mof<P: AsRef<[u8]>>(fs: &dyn LocalFs, path: &str, partitions: &[P]) -> Result<MofData> {
    let payload_bytes = partitions.iter().map(|p| p.as_ref().len()).sum();
    build_mof(fs, path, partitions.len(), payload_bytes, |part, blob| {
        blob.extend_from_slice(partitions[part].as_ref());
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::localfs::MemFs;

    fn encoded(pairs: &[(&str, &str)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in pairs {
            codec::encode_into(&mut out, k.as_bytes(), v.as_bytes());
        }
        out
    }

    #[test]
    fn write_and_read_partitions() {
        let fs = MemFs::new();
        let p0 = encoded(&[("a", "1")]);
        let p1 = Vec::new(); // empty partition
        let p2 = encoded(&[("b", "2"), ("c", "3")]);
        let mof = write_mof(&fs, "mof/m0", &[p0.clone(), p1, p2.clone()]).unwrap();
        assert_eq!(mof.num_partitions(), 3);
        assert_eq!(mof.partition_len(1), 0);
        assert_eq!(mof.total_bytes(), (p0.len() + p2.len()) as u64);
        assert_eq!(&mof.read_partition(&fs, 0).unwrap()[..], &p0[..]);
        assert!(mof.read_partition(&fs, 1).unwrap().is_empty());
        assert_eq!(&mof.read_partition(&fs, 2).unwrap()[..], &p2[..]);
    }

    #[test]
    fn a_partition_read_is_a_slice_of_the_stored_blob() {
        let fs = MemFs::new();
        let mof = write_mof(&fs, "mof/m0", &[encoded(&[("a", "1")]), encoded(&[("b", "2")])]).unwrap();
        let blob = fs.read("mof/m0").unwrap();
        for part in 0..2 {
            let (off, _) = mof.frame_range(part).unwrap();
            let payload = mof.read_partition(&fs, part).unwrap();
            let at = blob.as_ptr().wrapping_add(off as usize + crate::frame::FRAME_HEADER_LEN);
            assert_eq!(payload.as_ptr(), at, "partition {part} must be read in place");
        }
    }

    #[test]
    fn out_of_range_partition_rejected() {
        let fs = MemFs::new();
        let mof = write_mof(&fs, "mof/m0", &[encoded(&[("a", "1")])]).unwrap();
        assert!(matches!(mof.read_partition(&fs, 5), Err(ShuffleError::Invalid(_))));
        assert_eq!(mof.partition_len(5), 0);
    }

    #[test]
    fn node_crash_loses_mof() {
        let fs = MemFs::new();
        let mof = write_mof(&fs, "mof/m0", &[encoded(&[("a", "1")])]).unwrap();
        fs.wipe();
        assert!(mof.read_partition(&fs, 0).is_err());
    }

    #[test]
    fn flipped_partition_byte_is_a_checksum_mismatch() {
        let fs = MemFs::new();
        let p0 = encoded(&[("a", "1"), ("b", "2")]);
        let mof = write_mof(&fs, "mof/m0", &[p0]).unwrap();
        // Flip one payload byte inside partition 0's stored frame.
        let (off, framed) = mof.frame_range(0).unwrap();
        let mut blob = fs.read("mof/m0").unwrap().to_vec();
        blob[(off + framed - 1) as usize] ^= 0x01;
        fs.write("mof/m0", Bytes::from(blob)).unwrap();
        assert!(matches!(mof.read_partition(&fs, 0), Err(ShuffleError::ChecksumMismatch(_))));
    }

    #[test]
    fn corrupt_index_detected() {
        let fs = MemFs::new();
        fs.write("m", Bytes::from_static(b"short")).unwrap();
        let mof = MofData { path: "m".into(), index: vec![(0, 100)] };
        assert!(matches!(mof.read_partition(&fs, 0), Err(ShuffleError::Corrupt(_))));
    }
}
