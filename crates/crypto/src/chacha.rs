//! The ChaCha20 stream cipher (RFC 8439).
//!
//! Used for bulk encryption (VPFS file contents, secure channel records,
//! simulated DRAM encryption engines) and as the core of the deterministic
//! random bit generator in [`crate::rng`].
//!
//! [`block`] computes one 64-byte keystream block in portable scalar code.
//! [`xor_stream`] has a second path: on x86-64 CPUs that report AVX2 at run
//! time it computes eight consecutive blocks at once for messages longer
//! than two blocks, after Goll & Gueron, "Vectorization of ChaCha Stream
//! Cipher" (2014). Both paths produce the same keystream; the scalar loop is
//! the fallback and the reference the tests compare the kernel against.

/// "expand 32-byte k" in little-endian words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Bytes of keystream in one pass of the eight-block kernel.
#[cfg(target_arch = "x86_64")]
const CHUNK: usize = 8 * 64;

/// The longest message, or tail after whole kernel chunks, that stays on
/// [`block`]: for one or two blocks an eight-block kernel pass costs more
/// than the blocks it needs.
#[cfg(target_arch = "x86_64")]
const SCALAR_MAX: usize = 2 * 64;

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The sixteen input words of block `counter`: constants, key, counter,
/// nonce.
fn initial_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (word, bytes) in state[4..12].iter_mut().zip(key.as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }
    state[12] = counter;
    for (word, bytes) in state[13..].iter_mut().zip(nonce.as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }
    state
}

/// Computes one 64-byte ChaCha20 keystream block.
///
/// `counter` is the 32-bit block counter; `nonce` is the 96-bit nonce.
pub fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let initial = initial_state(key, counter, nonce);
    let mut state = initial;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs `data` in place with the ChaCha20 keystream for (`key`, `nonce`)
/// starting at block `counter`.
///
/// Applying the function twice with the same parameters recovers the
/// plaintext, as for any stream cipher.
///
/// The only place that chooses a keystream path. On a CPU that reports
/// AVX2, a message longer than two blocks goes through the eight-block
/// kernel one 512-byte chunk at a time, and a tail longer than two blocks
/// takes its keystream from one more kernel pass over a zeroed stack
/// buffer. Everything else, including a tail of one or two blocks, runs
/// [`block`].
///
/// ```
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut data = *b"the meter reading is 42 kWh";
/// lateral_crypto::chacha::xor_stream(&key, 0, &nonce, &mut data);
/// assert_ne!(&data, b"the meter reading is 42 kWh");
/// lateral_crypto::chacha::xor_stream(&key, 0, &nonce, &mut data);
/// assert_eq!(&data, b"the meter reading is 42 kWh");
/// ```
#[allow(unsafe_code)]
pub fn xor_stream(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if data.len() > SCALAR_MAX && is_x86_feature_detected!("avx2") {
        let mut state = initial_state(key, counter, nonce);
        let (chunks, tail) = data.as_chunks_mut::<CHUNK>();
        // SAFETY: `avx2::xor_chunks` is compiled for avx2, and the check
        // above found avx2 on this CPU. It reaches memory only through the
        // references it takes, so the feature is its whole contract.
        unsafe { avx2::xor_chunks(&state, chunks) };
        // Eight blocks per chunk, wrapping as the scalar counter does.
        state[12] = counter.wrapping_add((chunks.len() as u32).wrapping_mul(8));
        if tail.len() > SCALAR_MAX {
            let mut keystream = [0u8; CHUNK];
            // SAFETY: the same check found avx2 on this CPU, and the kernel
            // reaches memory only through `keystream`, a local buffer.
            unsafe { avx2::xor_chunks(&state, std::slice::from_mut(&mut keystream)) };
            for (b, k) in tail.iter_mut().zip(&keystream) {
                *b ^= k;
            }
        } else {
            xor_scalar(key, state[12], nonce, tail);
        }
        return;
    }
    xor_scalar(key, counter, nonce, data);
}

/// [`xor_stream`] one [`block`] at a time: the portable path, and the
/// reference for the kernel.
fn xor_scalar(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    let mut ctr = counter;
    for chunk in data.chunks_mut(64) {
        let ks = block(key, ctr, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr = ctr.wrapping_add(1);
    }
}

/// The eight-block keystream kernel on AVX2.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::CHUNK;
    use std::arch::x86_64::*;

    /// XORs each chunk in place with eight keystream blocks, block `b` of
    /// the chunk with the block numbered `initial[12]` plus eight per
    /// earlier chunk plus `b`, counting mod 2^32; `initial` is
    /// `super::initial_state`'s output. Same result as `super::xor_scalar`
    /// on the same bytes.
    ///
    /// The state is word-sliced: `x[i]` holds state word `i` for eight
    /// consecutive blocks, one block per 32-bit lane. After the rounds two
    /// 8×8 transposes put each block's sixteen words back in order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; a caller not itself compiled for AVX2
    /// checks that at run time. The function reads and writes memory only
    /// through `chunks`, so there is no other requirement.
    #[target_feature(enable = "avx2")]
    pub(super) fn xor_chunks(initial: &[u32; 16], chunks: &mut [[u8; CHUNK]]) {
        let mut start = initial.map(|word| _mm256_set1_epi32(word as i32));
        start[12] = _mm256_add_epi32(start[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        for chunk in chunks {
            let mut x = start;
            for _ in 0..10 {
                // Column rounds.
                quarter_round(&mut x, 0, 4, 8, 12);
                quarter_round(&mut x, 1, 5, 9, 13);
                quarter_round(&mut x, 2, 6, 10, 14);
                quarter_round(&mut x, 3, 7, 11, 15);
                // Diagonal rounds.
                quarter_round(&mut x, 0, 5, 10, 15);
                quarter_round(&mut x, 1, 6, 11, 12);
                quarter_round(&mut x, 2, 7, 8, 13);
                quarter_round(&mut x, 3, 4, 9, 14);
            }
            for (word, input) in x.iter_mut().zip(&start) {
                *word = _mm256_add_epi32(*word, *input);
            }
            let (halves, _) = x.as_chunks::<8>();
            let low = transpose(&halves[0]);
            let high = transpose(&halves[1]);
            let (blocks, _) = chunk.as_chunks_mut::<64>();
            for ((block, lo), hi) in blocks.iter_mut().zip(low).zip(high) {
                xor_block(block, lo, hi);
            }
            start[12] = _mm256_add_epi32(start[12], _mm256_set1_epi32(8));
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // Rotations by whole bytes are one byte shuffle within each lane.
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        let t = _mm256_xor_si256(x[b], x[c]);
        x[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    }

    /// Turns eight word vectors (`rows[i]` lane `b`: word `i` of block `b`)
    /// into eight block vectors (result `b` lane `i`: the same word).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose(rows: &[__m256i; 8]) -> [__m256i; 8] {
        // Pairs, then quads, of rows interleaved within each 128-bit half:
        // `q[c]` holds rows 0–3 (`c` < 4) or 4–7 of block `c % 4` in its
        // low half and of block `c % 4 + 4` in its high half.
        let [r0, r1, r2, r3, r4, r5, r6, r7] = *rows;
        let p0 = _mm256_unpacklo_epi32(r0, r1);
        let p1 = _mm256_unpackhi_epi32(r0, r1);
        let p2 = _mm256_unpacklo_epi32(r2, r3);
        let p3 = _mm256_unpackhi_epi32(r2, r3);
        let p4 = _mm256_unpacklo_epi32(r4, r5);
        let p5 = _mm256_unpackhi_epi32(r4, r5);
        let p6 = _mm256_unpacklo_epi32(r6, r7);
        let p7 = _mm256_unpackhi_epi32(r6, r7);
        let q = [
            _mm256_unpacklo_epi64(p0, p2),
            _mm256_unpackhi_epi64(p0, p2),
            _mm256_unpacklo_epi64(p1, p3),
            _mm256_unpackhi_epi64(p1, p3),
            _mm256_unpacklo_epi64(p4, p6),
            _mm256_unpackhi_epi64(p4, p6),
            _mm256_unpacklo_epi64(p5, p7),
            _mm256_unpackhi_epi64(p5, p7),
        ];
        [
            _mm256_permute2x128_si256::<0x20>(q[0], q[4]),
            _mm256_permute2x128_si256::<0x20>(q[1], q[5]),
            _mm256_permute2x128_si256::<0x20>(q[2], q[6]),
            _mm256_permute2x128_si256::<0x20>(q[3], q[7]),
            _mm256_permute2x128_si256::<0x31>(q[0], q[4]),
            _mm256_permute2x128_si256::<0x31>(q[1], q[5]),
            _mm256_permute2x128_si256::<0x31>(q[2], q[6]),
            _mm256_permute2x128_si256::<0x31>(q[3], q[7]),
        ]
    }

    /// XORs one 64-byte block with keystream words 0–7 (`low`) and 8–15
    /// (`high`), stored little-endian as the scalar code serialises them.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(unsafe_code)]
    fn xor_block(block: &mut [u8; 64], low: __m256i, high: __m256i) {
        let at = block.as_mut_ptr().cast::<__m256i>();
        // SAFETY: `block` is a `&mut [u8; 64]`, so nothing else touches its
        // bytes meanwhile; in `xor_chunks` it is `chunk[b * 64..b * 64 + 64]`
        // of one 512-byte chunk, split off by `as_chunks_mut::<64>`. The
        // load and store through `at` cover its bytes 0..32, and those
        // through `at.add(1)` (32 bytes on) its bytes 32..64: no byte
        // outside it. `loadu`/`storeu` need no alignment, and avx2 is
        // enabled here.
        unsafe {
            _mm256_storeu_si256(at, _mm256_xor_si256(_mm256_loadu_si256(at), low));
            let at = at.add(1);
            _mm256_storeu_si256(at, _mm256_xor_si256(_mm256_loadu_si256(at), high));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Drbg;
    use crate::sha256::sha256;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 8439 §2.3.2's key, 00..1f.
    fn rfc_key() -> [u8; 32] {
        std::array::from_fn(|i| i as u8)
    }

    /// RFC 8439 §2.3.2's nonce, 000000090000004a00000000.
    const RFC_NONCE: [u8; 12] = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];

    #[test]
    fn rfc8439_quarter_round_vector() {
        // RFC 8439 section 2.1.1 test vector.
        let mut st = [0u32; 16];
        st[0] = 0x1111_1111;
        st[1] = 0x0102_0304;
        st[2] = 0x9b8d_6f43;
        st[3] = 0x0123_4567;
        quarter_round(&mut st, 0, 1, 2, 3);
        assert_eq!(st[0], 0xea2a_92f4);
        assert_eq!(st[1], 0xcb1c_f8ce);
        assert_eq!(st[2], 0x4581_472e);
        assert_eq!(st[3], 0x5881_c4bb);
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 section 2.3.2: key 00..1f, counter 1,
        // nonce 000000090000004a00000000.
        assert_eq!(
            hex(&block(&rfc_key(), 1, &RFC_NONCE)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 section 2.4.2: key 00..1f, counter 1,
        // nonce 000000000000004a00000000.
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = *b"Ladies and Gentlemen of the class of '99: If I could offer you \
            only one tip for the future, sunscreen would be it.";
        xor_stream(&rfc_key(), 1, &nonce, &mut data);
        assert_eq!(
            hex(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    /// Long keystreams pinned by digest: 64 KiB (whole kernel chunks), and
    /// 1000 bytes whose counter wraps from 2^32 − 1 to 0 in its first chunk.
    #[test]
    fn long_keystreams_are_pinned() {
        let cases = [
            (
                1,
                65536,
                "193926306f785614f2a68da46b48d183439535f2ced91d164f7e8e9a541fd49c",
            ),
            (
                0xFFFF_FFFC,
                1000,
                "bcaee2e5ff2d6bcb48bb60a4b03c0e4d715d7243e5fb15db620c015654bd5628",
            ),
        ];
        for (counter, len, digest) in cases {
            let mut data = vec![0u8; len];
            xor_stream(&rfc_key(), counter, &RFC_NONCE, &mut data);
            assert_eq!(hex(&sha256(&data)), digest, "{len} B from {counter:#x}");
        }
    }

    /// The dispatched keystream against the scalar reference: every length
    /// from 0 to three blocks past two kernel chunks, each under a seeded
    /// key, nonce and counter, at a seeded start offset that leaves loads
    /// and stores unaligned. Every fourth counter starts at most 16 blocks
    /// below 2^32, so it wraps inside a chunk. On a CPU without AVX2, or
    /// off x86-64, both sides run the scalar code.
    #[test]
    fn dispatched_keystream_matches_scalar() {
        let mut rng = Drbg::from_seed(b"chacha20 keystream differential");
        let max_len = 2 * 512 + 3 * 64;
        let mut buf = vec![0u8; max_len + 32];
        for len in 0..=max_len {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            let mut nonce = [0u8; 12];
            rng.fill_bytes(&mut nonce);
            let counter = if len % 4 == 0 {
                u32::MAX - rng.gen_range(16) as u32
            } else {
                rng.next_u32()
            };
            let offset = rng.gen_range(32) as usize;
            let data = &mut buf[offset..offset + len];
            rng.fill_bytes(data);
            let mut reference = data.to_vec();
            xor_scalar(&key, counter, &nonce, &mut reference);
            xor_stream(&key, counter, &nonce, data);
            assert!(
                *data == reference,
                "len {len}, offset {offset}, counter {counter:#x}"
            );
        }
    }

    #[test]
    fn keystream_differs_by_nonce_and_counter() {
        let key = [9u8; 32];
        let n1 = [0u8; 12];
        let mut n2 = [0u8; 12];
        n2[0] = 1;
        assert_ne!(block(&key, 0, &n1), block(&key, 0, &n2));
        assert_ne!(block(&key, 0, &n1), block(&key, 1, &n1));
    }

    #[test]
    fn xor_stream_roundtrip_odd_lengths() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        for len in [0usize, 1, 63, 64, 65, 200] {
            let original: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut data = original.clone();
            xor_stream(&key, 7, &nonce, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len} should be scrambled");
            }
            xor_stream(&key, 7, &nonce, &mut data);
            assert_eq!(data, original, "len {len} roundtrip");
        }
    }

    #[test]
    fn counter_offset_is_blockwise_consistent() {
        // Encrypting [b0 | b1] at counter 0 equals encrypting b1 at counter 1.
        let key = [4u8; 32];
        let nonce = [6u8; 12];
        let mut both = [0u8; 128];
        xor_stream(&key, 0, &nonce, &mut both);
        let mut second = [0u8; 64];
        xor_stream(&key, 1, &nonce, &mut second);
        assert_eq!(&both[64..], &second[..]);
    }
}
