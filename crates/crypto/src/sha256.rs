//! SHA-256 message digest (FIPS 180-4).
//!
//! Implemented from the specification; validated against the standard test
//! vectors (`""`, `"abc"`, and the 448-bit two-block message) in the unit
//! tests below.
//!
//! Every compression goes through one multi-block function. On x86-64 CPUs
//! that report the SHA extensions (and SSSE3/SSE4.1) at run time it uses
//! the `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions; everywhere else
//! it runs the portable scalar compressor. Nothing but CPU detection picks
//! the path. Both give identical output, and the tests compare the
//! dispatched path against the scalar one.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use lateral_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest, lateral_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Pad in place: the 0x80 terminator, zeros, then the 64-bit bit
        // length in the last 8 bytes — spilling into a second block when
        // fewer than 8 bytes are left after the terminator.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Applies the compression function to `state` for each block in order.
///
/// The only place that chooses a compressor: the SHA extensions when the
/// CPU reports them, [`compress_scalar`] otherwise.
#[allow(unsafe_code)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `shani::compress_blocks` is compiled for sha, sse2, ssse3
        // and sse4.1. The check above found sha, ssse3 and sse4.1 on this
        // CPU, and sse2 is part of the x86-64 baseline. The function takes
        // no pointers, so the features are its only requirement.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable compression function, straight from FIPS 180-4 §6.2.2.
fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86-64 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Same contract as `super::compress_scalar`.
    ///
    /// The state lives in two vectors, `abef` and `cdgh` (named from the
    /// highest lane down), the layout `sha256rnds2` works on. The message
    /// schedule is a window of four vectors of four words; each step of
    /// the loop runs four rounds on the oldest vector and slides the
    /// window by one.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let s = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut m = [0i32; 16];
            for (word, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
                *word = u32::from_be_bytes(*bytes) as i32;
            }
            let mut w = [
                _mm_set_epi32(m[3], m[2], m[1], m[0]),
                _mm_set_epi32(m[7], m[6], m[5], m[4]),
                _mm_set_epi32(m[11], m[10], m[9], m[8]),
                _mm_set_epi32(m[15], m[14], m[13], m[12]),
            ];
            for (step, k) in K.chunks_exact(4).enumerate() {
                let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
                let wk = _mm_add_epi32(w[0], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                // Slide the window: the next four message words, computed
                // from the last sixteen while any rounds still need them.
                let next = if step < 12 {
                    _mm_sha256msg2_epu32(
                        _mm_add_epi32(
                            _mm_sha256msg1_epu32(w[0], w[1]),
                            _mm_alignr_epi8(w[3], w[2], 4),
                        ),
                        w[3],
                    )
                } else {
                    w[0]
                };
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|v| v as u32);
    }
}

/// One-shot SHA-256 of `data`.
///
/// ```
/// let d = lateral_crypto::sha256::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Drbg;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let splits = [0usize, 1, 55, 56, 63, 64, 65]
            .into_iter()
            .chain(119..=129)
            .chain([999, 1000]);
        for split in splits {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn length_boundary_inputs() {
        // Exercise padding around the 55/56/64 byte boundaries.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    /// The dispatched compressor against the scalar reference, from random
    /// states over random runs of 0–16 random blocks. On a CPU without the
    /// SHA extensions, or off x86-64, both sides run the scalar code.
    #[test]
    fn dispatched_compressor_matches_scalar() {
        let mut rng = Drbg::from_seed(b"sha256 compressor differential");
        for _ in 0..1000 {
            let mut state = [0u32; 8];
            state.fill_with(|| rng.next_u32());
            let mut blocks = vec![[0u8; 64]; rng.gen_range(17) as usize];
            for block in &mut blocks {
                rng.fill_bytes(block);
            }
            let mut reference = state;
            compress_scalar(&mut reference, &blocks);
            compress_blocks(&mut state, &blocks);
            assert_eq!(state, reference, "{} blocks", blocks.len());
        }
    }
}
