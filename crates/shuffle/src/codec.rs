//! Record wire format: `[klen: u32 BE][vlen: u32 BE][key][value]`, repeated.
//!
//! This is the on-disk/in-flight representation of every sorted run
//! (spill, merged segment, MOF partition). Byte offsets into this stream
//! are what the reduce-stage analytics log records (Fig. 6 right column).

use bytes::Bytes;

use crate::error::{Result, ShuffleError};

/// Bytes of the `[klen][vlen]` header preceding each record's key.
pub const HEADER_LEN: usize = 8;

/// Encoded size of a record with the given key/value lengths.
pub fn encoded_len(key_len: usize, value_len: usize) -> usize {
    HEADER_LEN + key_len + value_len
}

/// Append one record to `out`.
pub fn encode_into(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// The key's first eight bytes as a big-endian integer, zero-padded. Bytewise
/// key order never contradicts prefix order (`a <= b` implies
/// `key_prefix(a) <= key_prefix(b)`), so only equal prefixes need the keys.
pub(crate) fn key_prefix(key: &[u8]) -> u64 {
    let mut prefix = [0u8; 8];
    let n = key.len().min(8);
    prefix[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(prefix)
}

/// Where the record starting at `offset` lies: `(key_start, value_start,
/// end)`. `Ok(None)` at end-of-stream; `Err` on truncation. The one place
/// that reads the header layout.
pub fn record_bounds(data: &[u8], offset: usize) -> Result<Option<(usize, usize, usize)>> {
    if offset == data.len() {
        return Ok(None);
    }
    if offset + HEADER_LEN > data.len() {
        return Err(ShuffleError::Corrupt(format!("truncated header at offset {offset}")));
    }
    let klen = u32::from_be_bytes(data[offset..offset + 4].try_into().expect("4-byte slice")) as usize;
    let vlen = u32::from_be_bytes(data[offset + 4..offset + 8].try_into().expect("4-byte slice")) as usize;
    let key_start = offset + HEADER_LEN;
    let val_start = key_start + klen;
    let end = val_start + vlen;
    if end > data.len() {
        return Err(ShuffleError::Corrupt(format!(
            "record at offset {offset} claims {klen}+{vlen} bytes but only {} remain",
            data.len() - key_start
        )));
    }
    Ok(Some((key_start, val_start, end)))
}

/// Decode the record starting at `offset`. Returns `(key, value,
/// next_offset)`; `Ok(None)` at end-of-stream; `Err` on truncation.
pub fn decode_at(data: &Bytes, offset: usize) -> Result<Option<(Bytes, Bytes, usize)>> {
    Ok(record_bounds(data, offset)?.map(|(key_start, val_start, end)| {
        (data.slice(key_start..val_start), data.slice(val_start..end), end)
    }))
}

/// Count records and verify structural integrity of a whole stream.
pub fn validate_stream(data: &Bytes) -> Result<usize> {
    let mut n = 0;
    let mut off = 0;
    while let Some((_, _, next)) = decode_at(data, off)? {
        off = next;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_two_records() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"alpha", b"1");
        encode_into(&mut buf, b"", b"empty-key");
        let data = Bytes::from(buf);

        let (k, v, next) = decode_at(&data, 0).unwrap().unwrap();
        assert_eq!((&k[..], &v[..]), (&b"alpha"[..], &b"1"[..]));
        let (k2, v2, end) = decode_at(&data, next).unwrap().unwrap();
        assert_eq!((&k2[..], &v2[..]), (&b""[..], &b"empty-key"[..]));
        assert_eq!(decode_at(&data, end).unwrap(), None);
        assert_eq!(validate_stream(&data).unwrap(), 2);
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"key", b"value");
        let data = Bytes::from(buf[..buf.len() - 1].to_vec());
        assert!(matches!(decode_at(&data, 0), Err(ShuffleError::Corrupt(_))));
        let data = Bytes::from(vec![0u8, 0, 0]); // shorter than a header
        assert!(matches!(decode_at(&data, 0), Err(ShuffleError::Corrupt(_))));
    }

    #[test]
    fn encoded_len_matches() {
        let mut buf = Vec::new();
        encode_into(&mut buf, b"abc", b"defg");
        assert_eq!(buf.len(), encoded_len(3, 4));
    }

    proptest! {
        #[test]
        fn arbitrary_records_round_trip(recs in proptest::collection::vec(
            (proptest::collection::vec(0u8..=255, 0..40), proptest::collection::vec(0u8..=255, 0..120)), 0..50)) {
            let mut buf = Vec::new();
            for (k, v) in &recs {
                encode_into(&mut buf, k, v);
            }
            let data = Bytes::from(buf);
            prop_assert_eq!(validate_stream(&data).unwrap(), recs.len());
            let mut off = 0;
            for (k, v) in &recs {
                let (dk, dv, next) = decode_at(&data, off).unwrap().unwrap();
                prop_assert_eq!(&dk[..], &k[..]);
                prop_assert_eq!(&dv[..], &v[..]);
                off = next;
            }
            prop_assert_eq!(decode_at(&data, off).unwrap(), None);
        }

        /// Truncating a valid stream anywhere must never panic: either the
        /// cut lands on a record boundary (fewer records validate) or the
        /// stream classifies as `Corrupt` — never `ChecksumMismatch`,
        /// which is reserved for the CRC32 frame layer.
        #[test]
        fn truncations_never_panic_and_classify_as_corrupt(recs in proptest::collection::vec(
            (proptest::collection::vec(0u8..=255, 0..20), proptest::collection::vec(0u8..=255, 0..40)), 1..20),
            cut in 0usize..4096) {
            let mut buf = Vec::new();
            for (k, v) in &recs {
                encode_into(&mut buf, k, v);
            }
            let at = cut % buf.len().max(1);
            let data = Bytes::from(buf[..at].to_vec());
            match validate_stream(&data) {
                Ok(n) => prop_assert!(n <= recs.len(), "cannot validate more records than encoded"),
                Err(ShuffleError::Corrupt(_)) => {}
                Err(e) => prop_assert!(false, "truncation misclassified as {e:?}"),
            }
        }

        /// Flipping a single byte must never panic. When the stream is
        /// wrapped in a CRC32 frame, the flip is *always* caught before the
        /// codec ever runs — and classified as a checksum mismatch when it
        /// lands in the payload.
        #[test]
        fn single_byte_flips_never_panic_and_frames_catch_them(recs in proptest::collection::vec(
            (proptest::collection::vec(0u8..=255, 0..20), proptest::collection::vec(0u8..=255, 0..40)), 1..20),
            pos in 0usize..4096, bit in 0u8..8) {
            let mut buf = Vec::new();
            for (k, v) in &recs {
                encode_into(&mut buf, k, v);
            }
            let mut framed = crate::frame::frame(&buf);
            let at = pos % framed.len();
            framed[at] ^= 1 << bit;
            let framed = Bytes::from(framed);
            // Frame layer: the flip is always detected, and payload flips
            // classify as checksum mismatches.
            match crate::frame::unframe(&framed) {
                Ok(_) => prop_assert!(false, "flipped frame must not verify"),
                Err(ShuffleError::ChecksumMismatch(_)) => {}
                Err(ShuffleError::Corrupt(_)) =>
                    prop_assert!(at < crate::frame::FRAME_HEADER_LEN,
                        "payload flip at {} must be a checksum mismatch", at),
                Err(e) => prop_assert!(false, "unexpected classification {e:?}"),
            }
            // Codec layer alone (no frame): must not panic; any result is
            // acceptable since a flip can yield a structurally valid stream.
            let mut bare = buf.clone();
            if !bare.is_empty() {
                let at = pos % bare.len();
                bare[at] ^= 1 << bit;
            }
            let _ = validate_stream(&Bytes::from(bare));
        }
    }
}
