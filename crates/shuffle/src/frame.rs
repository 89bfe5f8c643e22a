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

static CRC_TABLES: [[u32; 256]; 8] = make_tables();

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
/// On an x86-64 CPU with PCLMULQDQ and SSE4.1 this runs the carry-less
/// multiply kernel (`clmul`), anywhere else the portable table kernel.
/// The two compute the same function.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_clmul(data).unwrap_or_else(|| crc32_portable(data))
}

/// The portable kernel: one slicing-by-8 chain.
fn crc32_portable(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The carry-less multiply kernel, or `None` where the CPU lacks the
/// features it is compiled for (always, off x86-64).
fn crc32_clmul(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("sse4.1") {
        // SAFETY: `clmul::crc32` is safe code compiled for `pclmulqdq` and
        // `sse4.1`, and this CPU has both: they were detected just above.
        #[allow(
            unsafe_code,
            reason = "the one call into the target-feature kernel, after detecting its features"
        )]
        let crc = unsafe { clmul::crc32(data) };
        return Some(crc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
    None
}

/// CRC-32 by carry-less multiplication: Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), bit-reflected for the IEEE polynomial, with the constants
/// crc32fast and Linux publish.
///
/// Four 128-bit lanes take 64 bytes a round: multiplying a lane's halves by
/// x^(512±32) mod P carries it 64 bytes on, where it meets the next input.
/// The lanes then fold into one, which takes the remaining 16-byte blocks
/// the same way with x^(128±32) mod P. The 128-bit remainder shrinks to 64
/// bits and then, by Barrett reduction, to the 32-bit register. Fewer than
/// 16 trailing bytes, and inputs too short for one round, go through the
/// table kernel.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Each constant is bit-reflected and shifted left by one.
    /// x^(4·128+32) mod P and x^(4·128−32) mod P: fold across four lanes.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) mod P and x^(128−32) mod P: fold across one lane.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64 mod P: 96 bits to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) and μ = x^64 / P(x) for the Barrett reduction.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The bytes of one round of four lanes.
    const ROUND: usize = 64;

    /// Sixteen bytes as one lane, first byte lowest.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let w = u128::from_le_bytes(*block);
        _mm_set_epi64x((w >> 64) as i64, w as i64)
    }

    /// `lane` carried 16 bytes (`k` = K3/K4) or 64 bytes (`k` = K1/K2) on,
    /// plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, k, 0x00);
        let hi = _mm_clmulepi64_si128(lane, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// IEEE CRC-32 of `data`. Code not compiled for both features may call
    /// this only on a CPU that has them, which `crc32_clmul` checks.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(data: &[u8]) -> u32 {
        if data.len() < ROUND {
            return super::crc32_portable(data);
        }
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, blocks) = blocks.split_at(4);
        let mut lanes = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
        // The register's initial all-ones enters with the first four bytes.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!0));
        let (rounds, blocks) = blocks.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for round in rounds {
            for (lane, block) in lanes.iter_mut().zip(round) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = lanes;
        let mut x = fold(fold(fold(a, b, k3k4), c, k3k4), d, k3k4);
        for block in blocks {
            x = fold(x, load(block), k3k4);
        }

        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; in reflected
        // bit order the register is the second 32-bit word of R ^ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update(c, tail) ^ 0xFFFF_FFFF
    }
}

/// Append one checksummed frame to `out` whose payload `fill` appends: the
/// header's place is reserved first and written over once the payload's
/// length and CRC are known, so the payload is built where it is stored.
/// Returns the payload length. When `fill` fails, `out` holds a partial
/// frame and only the error is meaningful.
pub fn frame_with<E>(
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> std::result::Result<(), E>,
) -> std::result::Result<usize, E> {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    fill(out)?;
    let (header, payload) = out[at..].split_at_mut(FRAME_HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
    Ok(payload.len())
}

/// Append one checksummed frame around `payload`.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    let Ok(_) = frame_with(out, |out| {
        out.extend_from_slice(payload);
        Ok::<(), std::convert::Infallible>(())
    });
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

    /// The textbook bit-at-a-time CRC-32, sharing nothing with the kernels.
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

    /// A CRC-32 implementation under test, by name.
    type Kernel = (&'static str, fn(&[u8]) -> u32);

    /// The dispatching `crc32`, the portable kernel and, where this CPU has
    /// its features, the carry-less multiply kernel.
    fn kernels() -> Vec<Kernel> {
        let mut kernels: Vec<Kernel> = vec![("crc32", crc32), ("portable", crc32_portable)];
        if crc32_clmul(b"").is_some() {
            kernels.push(("clmul", |data| crc32_clmul(data).expect("detected once, present always")));
        } else {
            eprintln!("skipping the carry-less multiply kernel: this CPU lacks pclmulqdq or sse4.1");
        }
        kernels
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
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        for (name, kernel) in kernels() {
            assert_eq!(kernel(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(kernel(b""), 0, "{name}");
        }
    }

    #[test]
    fn crc32_matches_reference_at_every_length_and_alignment() {
        // Every length up to four rounds of four lanes, from every start
        // offset within a 16-byte lane: the table kernel's eight-byte step
        // and byte tail, the carry-less kernel's 64-byte entry, its first
        // four-lane round at 128 bytes, the one-lane folds and the tail all
        // meet here.
        let buf = noise(0x5EED, 256 + 16);
        for (name, kernel) in kernels() {
            for start in 0..16 {
                for len in 0..=256 {
                    let s = &buf[start..start + len];
                    assert_eq!(kernel(s), crc32_bitwise(s), "{name}: start {start}, len {len}");
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
        /// Buffers of many rounds, at any start offset, through every
        /// kernel.
        #[test]
        fn crc32_matches_reference_on_random_buffers(
            seed in proptest::num::u64::ANY,
            len in 0usize..20_000,
            start in 0usize..4096,
        ) {
            let data = noise(seed, len);
            let s = &data[start.min(len)..];
            let want = crc32_bitwise(s);
            for (name, kernel) in kernels() {
                prop_assert_eq!(kernel(s), want, "{}", name);
            }
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
