//! Schnorr signatures over the group of [`crate::group`].
//!
//! These back every attestation statement in the simulation: TPM quotes,
//! the SGX quoting enclave, TrustZone device identity, secure-boot image
//! signatures, and certificate chains in the secure-channel handshake.
//!
//! The scheme is textbook Schnorr with deterministic nonces (an RFC 6979
//! style derivation from the secret key and message, so signing never needs
//! an RNG and cannot be broken by nonce reuse):
//!
//! ```text
//! keygen:  x ← random scalar,  y = g^x
//! sign m:  k = H2S(x, m),  r = g^k,  e = H2S(r ‖ y ‖ m),  s = k + e·x
//! verify:  g^s == r · y^e   with e recomputed from (r, y, m)
//! ```

use crate::group::{GroupElement, Scalar};
use crate::rng::Drbg;
use crate::sha256::Sha256;
use crate::CryptoError;

/// Length in bytes of a serialized [`Signature`].
pub const SIGNATURE_LEN: usize = 64;
/// Length in bytes of a serialized [`VerifyingKey`].
pub const VERIFYING_KEY_LEN: usize = 32;

/// Derives a scalar from a domain-separated hash of the given parts.
fn hash_to_scalar(domain: &[u8], parts: &[&[u8]]) -> Scalar {
    let mut h1 = Sha256::new();
    h1.update(domain);
    h1.update(&[0x01]);
    let mut h2 = Sha256::new();
    h2.update(domain);
    h2.update(&[0x02]);
    for p in parts {
        let len = (p.len() as u64).to_le_bytes();
        h1.update(&len);
        h1.update(p);
        h2.update(&len);
        h2.update(p);
    }
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&h1.finalize());
    wide[32..].copy_from_slice(&h2.finalize());
    Scalar::from_hash_wide(&wide)
}

/// A Schnorr signature `(r, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    r: GroupElement,
    s: Scalar,
}

impl Signature {
    /// Serializes to 64 bytes (`r ‖ s`).
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(&self.r.to_bytes());
        out[32..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Deserializes a signature.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] when either component is
    /// out of range.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Result<Signature, CryptoError> {
        let r = GroupElement::from_bytes(bytes[..32].try_into().expect("32 bytes"))?;
        let s = Scalar::from_bytes(bytes[32..].try_into().expect("32 bytes"))?;
        Ok(Signature { r, s })
    }
}

/// A Schnorr verifying (public) key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(GroupElement);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0.to_bytes();
        write!(
            f,
            "VerifyingKey({:02x}{:02x}{:02x}{:02x}…)",
            b[0], b[1], b[2], b[3]
        )
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] when the signature is
    /// invalid for this key and message.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let e = hash_to_scalar(
            b"lateral.schnorr.challenge",
            &[&sig.r.to_bytes(), &self.0.to_bytes(), message],
        );
        let lhs = GroupElement::generator_exp(&sig.s);
        let rhs = sig.r.mul(&self.0.exp(&e));
        if lhs == rhs {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }

    /// Serializes to 32 bytes.
    pub fn to_bytes(&self) -> [u8; VERIFYING_KEY_LEN] {
        self.0.to_bytes()
    }

    /// Deserializes a verifying key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] for malformed encodings.
    pub fn from_bytes(bytes: &[u8; VERIFYING_KEY_LEN]) -> Result<VerifyingKey, CryptoError> {
        GroupElement::from_bytes(bytes).map(VerifyingKey)
    }
}

/// A Schnorr signing (secret) key.
#[derive(Clone)]
pub struct SigningKey {
    x: Scalar,
    y: GroupElement,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(pk={:?})", VerifyingKey(self.y))
    }
}

impl SigningKey {
    /// Generates a fresh signing key.
    pub fn generate(rng: &mut Drbg) -> SigningKey {
        loop {
            let x = Scalar::random(rng);
            if !x.is_zero() {
                let y = GroupElement::generator_exp(&x);
                return SigningKey { x, y };
            }
        }
    }

    /// Deterministically derives a signing key from seed bytes.
    ///
    /// Used to model keys *fused into hardware*: the same simulated device
    /// always has the same identity key.
    pub fn from_seed(seed: &[u8]) -> SigningKey {
        let x = hash_to_scalar(b"lateral.schnorr.keyseed", &[seed]);
        let x = if x.is_zero() { Scalar::ONE } else { x };
        let y = GroupElement::generator_exp(&x);
        SigningKey { x, y }
    }

    /// Returns the corresponding verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey(self.y)
    }

    /// Signs `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let k = hash_to_scalar(b"lateral.schnorr.nonce", &[&self.x.to_bytes(), message]);
        let k = if k.is_zero() { Scalar::ONE } else { k };
        let r = GroupElement::generator_exp(&k);
        let e = hash_to_scalar(
            b"lateral.schnorr.challenge",
            &[&r.to_bytes(), &self.y.to_bytes(), message],
        );
        let s = k.add(&e.mul(&self.x));
        Signature { r, s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SigningKey {
        let mut rng = Drbg::from_seed(b"sign tests");
        SigningKey::generate(&mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"measured boot log");
        assert!(sk
            .verifying_key()
            .verify(b"measured boot log", &sig)
            .is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let sk = key();
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"forged", &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let sk1 = key();
        let mut rng = Drbg::from_seed(b"other key");
        let sk2 = SigningKey::generate(&mut rng);
        let sig = sk1.sign(b"msg");
        assert!(sk2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"serialize me");
        let restored = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(restored, sig);
        assert!(sk
            .verifying_key()
            .verify(b"serialize me", &restored)
            .is_ok());
    }

    #[test]
    fn verifying_key_serialization_roundtrip() {
        let sk = key();
        let vk = sk.verifying_key();
        let restored = VerifyingKey::from_bytes(&vk.to_bytes()).unwrap();
        assert_eq!(restored, vk);
    }

    #[test]
    fn deterministic_signing() {
        let sk = key();
        assert_eq!(sk.sign(b"same"), sk.sign(b"same"));
        assert_ne!(sk.sign(b"same"), sk.sign(b"different"));
    }

    #[test]
    fn seeded_key_is_stable() {
        let a = SigningKey::from_seed(b"device fuse 001");
        let b = SigningKey::from_seed(b"device fuse 001");
        assert_eq!(a.verifying_key(), b.verifying_key());
        let c = SigningKey::from_seed(b"device fuse 002");
        assert_ne!(a.verifying_key(), c.verifying_key());
    }

    #[test]
    fn tampered_signature_bytes_rejected() {
        let sk = key();
        let sig = sk.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 0x01; // perturb s
                           // An out-of-range encoding is also a valid rejection.
        if let Ok(tampered) = Signature::from_bytes(&bytes) {
            assert!(sk.verifying_key().verify(b"msg", &tampered).is_err());
        }
    }

    /// `verify` against its own equation, g^s == r·y^e, on the group's
    /// square-and-multiply reference: a valid signature, a wrong message,
    /// a wrong key and a tampered `s` on seeded keys.
    #[test]
    fn verify_matches_reference_arithmetic() {
        let reference = |vk: &VerifyingKey, message: &[u8], sig: &Signature| {
            let e = hash_to_scalar(
                b"lateral.schnorr.challenge",
                &[&sig.r.to_bytes(), &vk.0.to_bytes(), message],
            );
            GroupElement::generator().reference_exp(&sig.s)
                == sig.r.reference_mul(&vk.0.reference_exp(&e))
        };
        let mut rng = Drbg::from_seed(b"verify differential");
        for round in 0..8 {
            let sk = SigningKey::generate(&mut rng);
            let vk = sk.verifying_key();
            let other = SigningKey::generate(&mut rng).verifying_key();
            let sig = sk.sign(b"evidence");
            let tampered = Signature {
                r: sig.r,
                s: sig.s.add(&Scalar::ONE),
            };
            for (case, vk, message, sig, valid) in [
                ("valid", vk, &b"evidence"[..], sig, true),
                ("wrong message", vk, b"forged", sig, false),
                ("wrong key", other, b"evidence", sig, false),
                ("tampered s", vk, b"evidence", tampered, false),
            ] {
                assert_eq!(
                    reference(&vk, message, &sig),
                    valid,
                    "{case}, round {round}"
                );
                assert_eq!(
                    vk.verify(message, &sig).is_ok(),
                    valid,
                    "{case}, round {round}"
                );
            }
        }
    }

    #[test]
    fn signature_not_valid_for_other_context() {
        // A signature over m1 must not verify as a signature over m2 even
        // when m2 contains m1 as a prefix (length-prefixed hashing).
        let sk = key();
        let sig = sk.sign(b"abc");
        assert!(sk.verifying_key().verify(b"abcdef", &sig).is_err());
    }
}
