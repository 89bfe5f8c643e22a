//! CRC32-checksummed framing for durable artifacts.
//!
//! Both recovery-critical byte stores — MOF partition streams and ALG
//! analytics-log records — are wrapped in a small frame so that silent
//! data corruption is *detected* at read time and classified distinctly
//! from truncation:
//!
//! ```text
//! [payload_len u32 BE][crc32(payload) u32 BE][payload]
//! ```
//!
//! * A frame that is physically shorter than its header claims (torn
//!   write, truncated file) decodes to [`ShuffleError::Corrupt`].
//! * A frame whose bytes are all present but whose payload fails the
//!   checksum (bit rot, injected corruption) decodes to
//!   [`ShuffleError::ChecksumMismatch`].
//!
//! The distinction matters for recovery policy: a checksum mismatch on a
//! fetched MOF partition means the *data* is bad while the source node is
//! healthy — re-fetch, never count it against the fetch-failure budget —
//! and a mismatch inside an ALG log means truncate at that record and
//! resume from the last good snapshot instead of restarting from zero.

use bytes::Bytes;

use crate::error::{Result, ShuffleError};

/// Bytes of frame overhead preceding the payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes, so
/// eight input bytes fold into the state with eight independent lookups
/// instead of eight dependent ones.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[t - 1][i];
            tables[t][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// "Append `zeros` zero bytes" as four byte-indexed tables: the register
/// moves from `c` to `shift(&table, c)`. The map is linear, so the entry
/// for `b << 8k` is the entry without `b`'s lowest set bit XOR that bit's
/// image.
const fn make_shift_tables(zeros: usize) -> [[u32; 256]; 4] {
    let byte = make_tables()[0];
    let mut tables = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 32 {
        let mut c = 1u32 << j;
        let mut n = 0;
        while n < zeros {
            c = byte[(c & 0xFF) as usize] ^ (c >> 8);
            n += 1;
        }
        tables[j / 8][1 << (j % 8)] = c;
        j += 1;
    }
    let mut k = 0;
    while k < 4 {
        let mut b = 3usize;
        while b < 256 {
            let low = b & b.wrapping_neg();
            tables[k][b] = tables[k][b ^ low] ^ tables[k][low];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Bytes per lane: [`crc32`] checksums blocks of three lanes.
const LANE: usize = 1024;

static CRC_TABLES: [[u32; 256]; 8] = make_tables();
static SHIFT_LANE: [[u32; 256]; 4] = make_shift_tables(LANE);
static SHIFT_2_LANES: [[u32; 256]; 4] = make_shift_tables(2 * LANE);

fn shift(table: &[[u32; 256]; 4], c: u32) -> u32 {
    table[0][(c & 0xFF) as usize]
        ^ table[1][((c >> 8) & 0xFF) as usize]
        ^ table[2][((c >> 16) & 0xFF) as usize]
        ^ table[3][(c >> 24) as usize]
}

/// Fold eight bytes into the register.
#[inline(always)]
fn step8(c: u32, chunk: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let w = u64::from_le_bytes(*chunk);
    let lo = c ^ w as u32;
    let hi = (w >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Slicing-by-8 over `data`, then the tail shorter than eight a byte at a
/// time.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let (chunks, tail) = data.as_chunks::<8>();
    for chunk in chunks {
        c = step8(c, chunk);
    }
    for &b in tail {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 (the polynomial used by zip/zlib/Ethernet).
///
/// Each block of three [`LANE`]s runs as three independent slicing-by-8
/// chains, so their table lookups overlap instead of waiting on one
/// register. The first lane starts from the running register, the other
/// two from zero; the register is linear in its state and input, so for a
/// block `A‖B‖C` it is `shift₂ₗ(a) ^ shiftₗ(b) ^ c`, where `shiftₙ` appends
/// `n` zero bytes. Input after the last whole block goes through one chain.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, tail) = data.as_chunks::<{ 3 * LANE }>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        let (a, rest) = words.split_at(LANE / 8);
        let (b, d) = rest.split_at(LANE / 8);
        let (mut ca, mut cb, mut cc) = (c, 0u32, 0u32);
        for ((x, y), z) in a.iter().zip(b).zip(d) {
            ca = step8(ca, x);
            cb = step8(cb, y);
            cc = step8(cc, z);
        }
        c = shift(&SHIFT_2_LANES, ca) ^ shift(&SHIFT_LANE, cb) ^ cc;
    }
    update(c, tail) ^ 0xFFFF_FFFF
}

/// Append one checksummed frame around `payload`.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

/// A fresh buffer holding one checksummed frame around `payload`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame_into(&mut out, payload);
    out
}

/// Total frame size for a payload of `payload_len` bytes.
pub fn framed_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len
}

/// Decode a buffer holding exactly one frame, verifying the checksum.
///
/// Truncation (missing header bytes, payload shorter than the header
/// claims) and framing damage (trailing garbage, length-field rot that
/// makes the claimed length disagree with the physical length) are
/// [`ShuffleError::Corrupt`]; a physically intact frame whose payload
/// fails the CRC is [`ShuffleError::ChecksumMismatch`].
pub fn unframe(buf: &Bytes) -> Result<Bytes> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(ShuffleError::Corrupt(format!("truncated frame header ({} bytes)", buf.len())));
    }
    let len = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let want = u32::from_be_bytes(buf[4..8].try_into().expect("4 bytes"));
    let body = &buf[FRAME_HEADER_LEN..];
    if body.len() != len {
        return Err(ShuffleError::Corrupt(format!(
            "torn frame: header claims {len} payload bytes, {} present",
            body.len()
        )));
    }
    let got = crc32(body);
    if got != want {
        return Err(ShuffleError::ChecksumMismatch(format!(
            "frame checksum mismatch: stored {want:#010x}, computed {got:#010x}"
        )));
    }
    Ok(buf.slice(FRAME_HEADER_LEN..))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time CRC-32, sharing nothing with the tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_reference_at_every_short_length_and_alignment() {
        // Every (body, tail) split of the eight-byte step, from every start
        // offset within an eight-byte word.
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(167) ^ (i >> 2)) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
    }

    /// `len` bytes of a fixed pseudo-random stream (xorshift64).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_reference_around_the_first_block_boundaries() {
        // Every length within nine bytes of one and two three-lane blocks,
        // from every start offset within an eight-byte word: the lanes'
        // fold, the block loop's exit and the single-chain tail meet here.
        let buf = noise(0x5EED, 2 * 3 * LANE + 32);
        for boundary in [3 * LANE, 2 * 3 * LANE] {
            for len in boundary - 9..=boundary + 9 {
                for start in 0..8 {
                    let s = &buf[start..start + len];
                    assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
                }
            }
        }
    }

    #[test]
    fn round_trip() {
        for payload in [&b""[..], b"x", b"hello shuffle", &[0u8; 1024][..]] {
            let framed = Bytes::from(frame(payload));
            assert_eq!(framed.len(), framed_len(payload.len()));
            assert_eq!(&unframe(&framed).unwrap()[..], payload);
        }
    }

    #[test]
    fn unframe_returns_the_payload_in_place() {
        let framed = Bytes::from(frame(b"payload that stays where it is"));
        let payload = unframe(&framed).unwrap();
        assert_eq!(payload.as_ptr(), framed.as_ptr().wrapping_add(FRAME_HEADER_LEN));
    }

    #[test]
    fn truncation_is_corrupt_not_mismatch() {
        let framed = frame(b"some payload worth keeping");
        for cut in 0..framed.len() {
            let cutb = Bytes::copy_from_slice(&framed[..cut]);
            match unframe(&cutb) {
                Err(ShuffleError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_flip_is_checksum_mismatch() {
        let mut framed = frame(b"some payload worth keeping");
        framed[FRAME_HEADER_LEN + 3] ^= 0x40;
        let b = Bytes::from(framed);
        assert!(matches!(unframe(&b), Err(ShuffleError::ChecksumMismatch(_))));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut framed = frame(b"payload");
        framed.push(0xAA);
        let b = Bytes::from(framed);
        assert!(matches!(unframe(&b), Err(ShuffleError::Corrupt(_))));
    }

    proptest! {
        /// Buffers spanning several three-lane blocks, at any start
        /// offset.
        #[test]
        fn crc32_matches_reference_on_random_buffers(
            seed in proptest::num::u64::ANY,
            len in 0usize..20_000,
            start in 0usize..4096,
        ) {
            let data = noise(seed, len);
            let s = &data[start.min(len)..];
            prop_assert_eq!(crc32(s), crc32_bitwise(s));
        }

        /// Any single-byte flip is detected, and flips strictly inside the
        /// payload always classify as a checksum mismatch (header flips may
        /// surface as framing corruption instead — both are detections).
        #[test]
        fn single_byte_flips_never_pass(payload in proptest::collection::vec(0u8..=255, 1..256),
                                        pos in 0usize..4096,
                                        bit in 0u8..8) {
            let mut framed = frame(&payload);
            let at = pos % framed.len();
            framed[at] ^= 1 << bit;
            let b = Bytes::from(framed);
            let res = unframe(&b);
            prop_assert!(res.is_err(), "flipped frame must not verify");
            if at >= FRAME_HEADER_LEN {
                prop_assert!(matches!(res, Err(ShuffleError::ChecksumMismatch(_))),
                    "payload flip at {at} must be a checksum mismatch, got {res:?}");
            }
        }

        /// Any truncation is detected as corruption, never as a checksum
        /// mismatch, and never panics.
        #[test]
        fn truncations_classify_as_corrupt(payload in proptest::collection::vec(0u8..=255, 0..256),
                                           cut in 0usize..4096) {
            let framed = frame(&payload);
            let at = cut % framed.len();
            let b = Bytes::copy_from_slice(&framed[..at]);
            prop_assert!(matches!(unframe(&b), Err(ShuffleError::Corrupt(_))));
        }
    }
}
