//! Authenticated encryption with associated data.
//!
//! Composed as encrypt-then-MAC from ChaCha20 and HMAC-SHA256. The
//! encryption and MAC keys are derived from the AEAD key by HKDF, so a
//! single 32-byte key drives the whole construction. Wire format:
//!
//! ```text
//! ciphertext || tag(32)
//! ```
//!
//! The nonce is provided by the caller (channel sequence numbers, block
//! numbers in VPFS, …) and must never repeat under the same key — the usual
//! stream-cipher contract.

use crate::chacha;
use crate::hmac::{hkdf_expand, HmacSha256};
use crate::{ct_eq, CryptoError};

/// Length in bytes of the authentication tag appended to every ciphertext.
pub const TAG_LEN: usize = 32;

/// An AEAD cipher instance bound to one 32-byte key.
///
/// ```
/// use lateral_crypto::aead::Aead;
///
/// # fn main() -> Result<(), lateral_crypto::CryptoError> {
/// let aead = Aead::new(&[0x42; 32]);
/// let boxed = aead.seal(1, b"header", b"secret reading");
/// let plain = aead.open(1, b"header", &boxed)?;
/// assert_eq!(plain, b"secret reading");
/// assert!(aead.open(2, b"header", &boxed).is_err()); // wrong nonce
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Aead {
    enc_key: [u8; 32],
    /// HMAC keyed once with the derived MAC key; each tag starts from a clone.
    mac: HmacSha256,
}

impl std::fmt::Debug for Aead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aead(..)")
    }
}

impl Aead {
    /// Creates an AEAD instance from a 32-byte master key.
    pub fn new(key: &[u8; 32]) -> Aead {
        let mut enc_key = [0u8; 32];
        let mut mac_key = [0u8; 32];
        hkdf_expand(key, b"lateral.aead.enc", &mut enc_key);
        hkdf_expand(key, b"lateral.aead.mac", &mut mac_key);
        Aead {
            enc_key,
            mac: HmacSha256::new(&mac_key),
        }
    }

    fn nonce_bytes(nonce: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&nonce.to_le_bytes());
        n
    }

    fn tag(&self, nonce: u64, aad: &[u8], ciphertext: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(&nonce.to_le_bytes());
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(aad);
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.update(ciphertext);
        mac.finalize()
    }

    /// Encrypts and authenticates `plaintext`, binding `aad` into the tag.
    ///
    /// The returned vector is `plaintext.len() + TAG_LEN` bytes.
    pub fn seal(&self, nonce: u64, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// [`Aead::seal`] appending the box to `out`, so a caller can frame
    /// the box behind a header in one buffer without copying it.
    pub fn seal_into(&self, nonce: u64, aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(plaintext);
        let ciphertext = &mut out[start..];
        chacha::xor_stream(&self.enc_key, 0, &Self::nonce_bytes(nonce), ciphertext);
        let tag = self.tag(nonce, aad, ciphertext);
        out.extend_from_slice(&tag);
    }

    /// Verifies and decrypts a sealed box produced by [`Aead::seal`].
    ///
    /// # Errors
    ///
    /// * [`CryptoError::TruncatedCiphertext`] if `boxed` is shorter than the
    ///   tag.
    /// * [`CryptoError::VerificationFailed`] if the tag does not match
    ///   (wrong key, wrong nonce, wrong AAD, or tampered ciphertext).
    pub fn open(&self, nonce: u64, aad: &[u8], boxed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if boxed.len() < TAG_LEN {
            return Err(CryptoError::TruncatedCiphertext);
        }
        let (ciphertext, tag) = boxed.split_at(boxed.len() - TAG_LEN);
        let expected = self.tag(nonce, aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::VerificationFailed);
        }
        let mut out = ciphertext.to_vec();
        chacha::xor_stream(&self.enc_key, 0, &Self::nonce_bytes(nonce), &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let aead = Aead::new(&[1u8; 32]);
        let boxed = aead.seal(7, b"aad", b"hello");
        assert_eq!(aead.open(7, b"aad", &boxed).unwrap(), b"hello");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = Aead::new(&[1u8; 32]);
        let boxed = aead.seal(0, b"", b"");
        assert_eq!(boxed.len(), TAG_LEN);
        assert_eq!(aead.open(0, b"", &boxed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tamper_detection() {
        let aead = Aead::new(&[1u8; 32]);
        let mut boxed = aead.seal(7, b"aad", b"hello world");
        boxed[0] ^= 0x01;
        assert_eq!(
            aead.open(7, b"aad", &boxed),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn tag_tamper_detection() {
        let aead = Aead::new(&[1u8; 32]);
        let mut boxed = aead.seal(7, b"aad", b"hello world");
        let last = boxed.len() - 1;
        boxed[last] ^= 0x80;
        assert!(aead.open(7, b"aad", &boxed).is_err());
    }

    #[test]
    fn aad_is_bound() {
        let aead = Aead::new(&[1u8; 32]);
        let boxed = aead.seal(7, b"context a", b"payload");
        assert!(aead.open(7, b"context b", &boxed).is_err());
    }

    #[test]
    fn nonce_is_bound() {
        let aead = Aead::new(&[1u8; 32]);
        let boxed = aead.seal(7, b"aad", b"payload");
        assert!(aead.open(8, b"aad", &boxed).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let a = Aead::new(&[1u8; 32]);
        let b = Aead::new(&[2u8; 32]);
        let boxed = a.seal(7, b"aad", b"payload");
        assert!(b.open(7, b"aad", &boxed).is_err());
    }

    #[test]
    fn truncated_ciphertext_is_reported() {
        let aead = Aead::new(&[1u8; 32]);
        assert_eq!(
            aead.open(0, b"", &[0u8; TAG_LEN - 1]),
            Err(CryptoError::TruncatedCiphertext)
        );
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let aead = Aead::new(&[1u8; 32]);
        let boxed = aead.seal(3, b"", b"aaaaaaaaaaaaaaaa");
        assert!(!boxed.windows(4).any(|w| w == b"aaaa"));
    }
}
