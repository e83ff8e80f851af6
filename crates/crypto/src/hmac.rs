//! HMAC-SHA256 (RFC 2104 / FIPS 198-1) and HKDF (RFC 5869).
//!
//! HMAC is the integrity workhorse of the simulation: VPFS uses it for file
//! authentication, the secure channel uses it for record tags, and the TPM /
//! SGX models use HKDF to derive sealing and report keys from hardware root
//! secrets.

use crate::sha256::Sha256;
use crate::{ct_eq, CryptoError};

const BLOCK: usize = 64;

/// Incremental HMAC-SHA256.
///
/// A keyed context holds both hash states with their key pads already
/// absorbed, so cloning one and MACing a short message costs no key
/// processing.
///
/// ```
/// use lateral_crypto::hmac::HmacSha256;
///
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag).is_ok());
/// assert!(HmacSha256::verify(b"key", b"tampered", &tag).is_err());
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    /// SHA-256 after absorbing `key ⊕ ipad`, then the message so far.
    inner: Sha256,
    /// SHA-256 after absorbing `key ⊕ opad`.
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both hash states are functions of the key alone: never print them.
        write!(f, "HmacSha256(..)")
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length).
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&crate::sha256::sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verifies that `tag` authenticates `data` under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the tag does not match.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> Result<(), CryptoError> {
        if ct_eq(&Self::mac(key, data), tag) {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }
}

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    HmacSha256::mac(salt, ikm)
}

/// HKDF-Expand: derives `out.len()` bytes from `prk` bound to `info`.
///
/// # Panics
///
/// Panics if more than `255 * 32` output bytes are requested, per RFC 5869.
pub fn hkdf_expand(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * 32, "HKDF output too long");
    let keyed = HmacSha256::new(prk);
    // T(0) is empty; T(i) = HMAC(PRK, T(i-1) || info || i).
    let mut t = [0u8; 32];
    let mut t_len = 0;
    for (chunk, counter) in out.chunks_mut(32).zip(1..=255u8) {
        let mut h = keyed.clone();
        h.update(&t[..t_len]);
        h.update(info);
        h.update(&[counter]);
        t = h.finalize();
        t_len = t.len();
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// Convenience: full HKDF (extract + expand) producing a 32-byte key.
///
/// ```
/// let k1 = lateral_crypto::hmac::hkdf(b"salt", b"secret", b"channel key");
/// let k2 = lateral_crypto::hmac::hkdf(b"salt", b"secret", b"record key");
/// assert_ne!(k1, k2);
/// ```
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let prk = hkdf_extract(salt, ikm);
    let mut out = [0u8; 32];
    hkdf_expand(&prk, info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        // RFC 4231 test case 1: key = 0x0b * 20, data = "Hi There".
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        // key = "Jefe", data = "what do ya want for nothing?".
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc4231_cases_3_to_7() {
        // (key, data, tag); case 5's tag is truncated to 128 bits, and
        // cases 6 and 7 take the hashed-key branch of `new`.
        let cases: [(Vec<u8>, &[u8], &str); 5] = [
            (
                vec![0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation",
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, data, tag)) in cases.iter().enumerate() {
            let got = HmacSha256::mac(key, data);
            assert_eq!(hex(&got[..tag.len() / 2]), *tag, "case {}", i + 3);
        }
    }

    #[test]
    fn rfc5869_cases_1_to_3() {
        // RFC 5869 appendix A.1–A.3: (ikm, salt, info, prk, okm).
        let a2_bytes = |from: u8| (0..80).map(|i| from + i).collect::<Vec<u8>>();
        let cases = [
            (
                vec![0x0b; 22],
                (0x00..=0x0c).collect::<Vec<u8>>(),
                (0xf0..=0xf9).collect::<Vec<u8>>(),
                "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
                "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
                 34007208d5b887185865",
            ),
            (
                a2_bytes(0x00),
                a2_bytes(0x60),
                a2_bytes(0xb0),
                "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244",
                "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
                 59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
                 cc30c58179ec3e87c14c01d5c1f3434f1d87",
            ),
            (
                vec![0x0b; 22],
                Vec::new(),
                Vec::new(),
                "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04",
                "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
                 9d201395faa4b61a96c8",
            ),
        ];
        for (i, (ikm, salt, info, prk, okm)) in cases.iter().enumerate() {
            let got_prk = hkdf_extract(salt, ikm);
            assert_eq!(hex(&got_prk), *prk, "A.{} PRK", i + 1);
            let mut got_okm = vec![0u8; okm.len() / 2];
            hkdf_expand(&got_prk, info, &mut got_okm);
            assert_eq!(got_okm, unhex(okm), "A.{} OKM", i + 1);
        }
    }

    #[test]
    fn debug_redacts_key_material() {
        let mut mac = HmacSha256::new(b"secret key");
        mac.update(b"message");
        assert_eq!(format!("{mac:?}"), "HmacSha256(..)");
    }

    #[test]
    fn long_key_is_hashed() {
        let key = vec![0xaau8; 100];
        // Must equal HMAC with the hashed key.
        let hashed = crate::sha256::sha256(&key);
        assert_eq!(
            HmacSha256::mac(&key, b"data"),
            HmacSha256::mac(&hashed, b"data")
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"k");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), HmacSha256::mac(b"k", b"part one part two"));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let tag = HmacSha256::mac(b"key a", b"msg");
        assert_eq!(
            HmacSha256::verify(b"key b", b"msg", &tag),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn hkdf_output_is_domain_separated() {
        let a = hkdf(b"s", b"ikm", b"a");
        let b = hkdf(b"s", b"ikm", b"b");
        assert_ne!(a, b);
    }

    #[test]
    fn hkdf_expand_long_output_is_prefix_consistent() {
        let prk = hkdf_extract(b"salt", b"ikm");
        let mut long = [0u8; 100];
        hkdf_expand(&prk, b"info", &mut long);
        let mut short = [0u8; 32];
        hkdf_expand(&prk, b"info", &mut short);
        assert_eq!(&long[..32], &short[..]);
        let mut max = [0u8; 255 * 32];
        hkdf_expand(&prk, b"info", &mut max);
        assert_eq!(&max[..100], &long[..]);
    }
}
