//! Deterministic, dependency-free cryptographic primitives for the `lateral`
//! trusted-component simulation.
//!
//! The paper ("Lateral Thinking for Trustworthy Apps", ICDCS 2017) leans on
//! cryptography everywhere: TPM quotes, SGX reports, TrustZone device keys,
//! VPFS encryption and integrity, TLS-style secure channels, and attestation
//! across untrusted networks. No external crypto crates are available in
//! this environment, so this crate implements the needed primitives from
//! scratch:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), the workhorse digest used for
//!   measurements (PCR extends, MRENCLAVE) and as an HMAC core.
//! * [`hmac`] — HMAC-SHA256 and HKDF (RFC 5869) for MACs and key derivation.
//! * [`chacha`] — the ChaCha20 stream cipher (RFC 8439).
//! * [`aead`] — authenticated encryption composed as encrypt-then-MAC
//!   (ChaCha20 + HMAC-SHA256).
//! * [`group`] — arithmetic in the multiplicative group modulo
//!   p = 2^255 − 19, used for Diffie–Hellman and Schnorr signatures.
//! * [`sign`] — Schnorr signatures ([`sign::SigningKey`],
//!   [`sign::VerifyingKey`]).
//! * [`dh`] — finite-field Diffie–Hellman key agreement.
//! * [`hex`] — the strict lowercase hex decoder every text codec shares.
//! * [`rng`] — a seedable, forkable ChaCha20-based deterministic random bit
//!   generator so that every simulation run is reproducible.
//!
//! # Security status
//!
//! These implementations are **simulation-grade**: the algorithms are real
//! (SHA-256 and HMAC match their test vectors; the Schnorr scheme is sound
//! over the chosen group), but none of the code is constant-time audited,
//! side-channel hardened, or reviewed for production use. Within the
//! simulation this is exactly what is needed — adversarial components run
//! inside the same process and are bound by the same rules — but **do not
//! reuse this crate as a real cryptographic library**.
//!
//! The Z_p exponentiations in [`group`] are an example: a variable base is
//! raised with 4-bit windows and the generator through a precomputed comb.
//! Both run a fixed sequence of multiplications, but they read their
//! tables at indices taken from the secret exponent's nibbles, so their
//! memory accesses, and through the cache their timing, depend on secret
//! keys and nonces. They are not constant-time, and stay simulation-grade.
//!
//! Two primitives have a second code path on x86-64. SHA-256 uses the SHA
//! extensions on CPUs that report them at run time, and ChaCha20's
//! [`chacha::xor_stream`] computes eight blocks at once with AVX2 for
//! messages longer than two blocks. Elsewhere each runs its portable
//! scalar code, which the tests also use as the reference. Only CPU
//! detection, and for ChaCha20 the message length, pick the path, and both
//! paths produce identical output, so every digest, tag, key and
//! ciphertext is the same on any host. The `unsafe` blocks are the calls
//! into those two paths and the AVX2 kernel's unaligned loads and stores;
//! each states why it is sound in a `// SAFETY:` comment, which clippy's
//! `undocumented_unsafe_blocks` lint requires here.
//!
//! # Example
//!
//! ```
//! use lateral_crypto::{rng::Drbg, sign::SigningKey};
//!
//! # fn main() -> Result<(), lateral_crypto::CryptoError> {
//! let mut rng = Drbg::from_seed(b"example seed");
//! let key = SigningKey::generate(&mut rng);
//! let sig = key.sign(b"attestation evidence");
//! key.verifying_key().verify(b"attestation evidence", &sig)?;
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha;
pub mod dh;
pub mod group;
pub mod hex;
pub mod hmac;
pub mod rng;
pub mod sha256;
pub mod sign;

use std::error::Error;
use std::fmt;

/// A 256-bit digest value.
///
/// Used pervasively as a *measurement*: PCR contents, enclave identities
/// (MRENCLAVE analogue), code identities in launch policies, and Merkle tree
/// nodes all carry this type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, the initial value of a TPM PCR.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the digest of `data` (convenience for [`sha256::sha256`]).
    ///
    /// ```
    /// use lateral_crypto::Digest;
    /// assert_ne!(Digest::of(b"a"), Digest::of(b"b"));
    /// ```
    pub fn of(data: &[u8]) -> Digest {
        Digest(sha256::sha256(data))
    }

    /// Returns the digest of the concatenation of all parts, with each part
    /// length-prefixed so distinct part boundaries yield distinct digests.
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = sha256::Sha256::new();
        for p in parts {
            h.update(&(p.len() as u64).to_le_bytes());
            h.update(p);
        }
        Digest(h.finalize())
    }

    /// TPM-style extend: `new = H(old || data)`.
    #[must_use]
    pub fn extend(&self, data: &[u8]) -> Digest {
        let mut h = sha256::Sha256::new();
        h.update(&self.0);
        h.update(data);
        Digest(h.finalize())
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns a short hex prefix, handy for log lines and display.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Returns the full lowercase hex encoding.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A MAC or signature failed verification.
    VerificationFailed,
    /// Ciphertext is too short to contain the required tag or nonce.
    TruncatedCiphertext,
    /// An encoded group element or scalar was out of range.
    InvalidEncoding,
    /// A key had the wrong length for the requested operation.
    InvalidKeyLength {
        /// Length the operation required.
        expected: usize,
        /// Length that was provided.
        actual: usize,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::TruncatedCiphertext => write!(f, "ciphertext too short"),
            CryptoError::InvalidEncoding => write!(f, "invalid encoding of group element"),
            CryptoError::InvalidKeyLength { expected, actual } => {
                write!(f, "invalid key length: expected {expected}, got {actual}")
            }
        }
    }
}

impl Error for CryptoError {}

/// Compares two byte slices without early exit on mismatch.
///
/// Returns `true` when the slices have equal length and contents. In a real
/// implementation this prevents remote timing attacks on MAC comparison; in
/// the simulation it documents the idiom.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_differs_by_input() {
        assert_ne!(Digest::of(b"x"), Digest::of(b"y"));
        assert_eq!(Digest::of(b"x"), Digest::of(b"x"));
    }

    #[test]
    fn digest_of_parts_respects_boundaries() {
        // ("ab","c") and ("a","bc") must hash differently.
        let d1 = Digest::of_parts(&[b"ab", b"c"]);
        let d2 = Digest::of_parts(&[b"a", b"bc"]);
        assert_ne!(d1, d2);
    }

    #[test]
    fn extend_is_order_sensitive() {
        let base = Digest::ZERO;
        let ab = base.extend(b"a").extend(b"b");
        let ba = base.extend(b"b").extend(b"a");
        assert_ne!(ab, ba);
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"diff"));
        assert!(!ct_eq(b"longer", b"long"));
    }

    #[test]
    fn digest_display_is_full_hex() {
        let d = Digest::of(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
