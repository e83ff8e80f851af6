//! Finite-field Diffie–Hellman key agreement.
//!
//! The secure-channel handshake ([`lateral-net`]'s TLS-like protocol) uses
//! ephemeral DH to establish forward-secret session keys, authenticated by
//! Schnorr signatures over the handshake transcript.
//!
//! [`lateral-net`]: ../../lateral_net/index.html

use crate::group::{GroupElement, Scalar};
use crate::hmac::hkdf;
use crate::rng::Drbg;
use crate::CryptoError;

/// An ephemeral Diffie–Hellman secret.
pub struct EphemeralSecret {
    secret: Scalar,
    public: GroupElement,
}

impl std::fmt::Debug for EphemeralSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EphemeralSecret(..)")
    }
}

/// A serialized DH public share (32 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicShare(pub [u8; 32]);

impl EphemeralSecret {
    /// Generates a fresh ephemeral secret.
    pub fn generate(rng: &mut Drbg) -> EphemeralSecret {
        loop {
            let secret = Scalar::random(rng);
            if !secret.is_zero() {
                let public = GroupElement::generator_exp(&secret);
                return EphemeralSecret { secret, public };
            }
        }
    }

    /// Returns the public share to send to the peer.
    pub fn public_share(&self) -> PublicShare {
        PublicShare(self.public.to_bytes())
    }

    /// Consumes the secret and computes the shared key with the peer's
    /// share, then derives a 32-byte session key with HKDF bound to `info`.
    ///
    /// Both sides derive identical keys when they use the same `info`
    /// (typically a transcript hash, binding the key to the handshake).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] if the peer's share is
    /// malformed or degenerate (0, 1 or p − 1 — a small-subgroup-style
    /// check).
    pub fn agree(self, peer: &PublicShare, info: &[u8]) -> Result<[u8; 32], CryptoError> {
        let peer_elem = GroupElement::from_bytes(&peer.0)?;
        let shared = peer_elem.exp(&self.secret);
        Ok(hkdf(b"lateral.dh", &shared.to_bytes(), info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_agree() {
        let mut rng = Drbg::from_seed(b"dh agree");
        let alice = EphemeralSecret::generate(&mut rng);
        let bob = EphemeralSecret::generate(&mut rng);
        let a_pub = alice.public_share();
        let b_pub = bob.public_share();
        let k_a = alice.agree(&b_pub, b"transcript").unwrap();
        let k_b = bob.agree(&a_pub, b"transcript").unwrap();
        assert_eq!(k_a, k_b);
    }

    #[test]
    fn different_info_differs() {
        let mut rng = Drbg::from_seed(b"dh info");
        let alice = EphemeralSecret::generate(&mut rng);
        let bob = EphemeralSecret::generate(&mut rng);
        let b_pub = bob.public_share();
        let a_pub = alice.public_share();
        let k1 = alice.agree(&b_pub, b"t1").unwrap();
        let k2 = bob.agree(&a_pub, b"t2").unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn mitm_key_differs() {
        // An attacker substituting its own share gets a different key than
        // the honest peer would have derived.
        let mut rng = Drbg::from_seed(b"dh mitm");
        let alice = EphemeralSecret::generate(&mut rng);
        let bob = EphemeralSecret::generate(&mut rng);
        let mallory = EphemeralSecret::generate(&mut rng);
        let a_pub = alice.public_share();
        let m_pub = mallory.public_share();
        let k_alice_mallory = alice.agree(&m_pub, b"t").unwrap();
        let k_bob_alice = bob.agree(&a_pub, b"t").unwrap();
        assert_ne!(k_alice_mallory, k_bob_alice);
    }

    #[test]
    fn degenerate_share_rejected() {
        let mut rng = Drbg::from_seed(b"dh degenerate");
        let alice = EphemeralSecret::generate(&mut rng);
        let zero = PublicShare([0u8; 32]);
        assert_eq!(alice.agree(&zero, b"t"), Err(CryptoError::InvalidEncoding));
    }

    #[test]
    fn share_of_order_two_rejected() {
        // p − 1 = 2^255 − 20 has order 2: against it every secret would
        // agree on ±1.
        let mut rng = Drbg::from_seed(b"dh order two");
        let alice = EphemeralSecret::generate(&mut rng);
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        assert_eq!(
            alice.agree(&PublicShare(minus_one), b"t"),
            Err(CryptoError::InvalidEncoding)
        );
    }

    #[test]
    fn fresh_secrets_give_fresh_keys() {
        let mut rng = Drbg::from_seed(b"dh fresh");
        let bob = EphemeralSecret::generate(&mut rng);
        let b_pub = bob.public_share();
        let a1 = EphemeralSecret::generate(&mut rng);
        let a2 = EphemeralSecret::generate(&mut rng);
        let k1 = a1.agree(&b_pub, b"t").unwrap();
        let k2 = a2.agree(&b_pub, b"t").unwrap();
        assert_ne!(k1, k2);
    }
}
