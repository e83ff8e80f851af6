//! Signed web-of-trust proofs: the distribution format reviewers
//! exchange.
//!
//! Three proof kinds, in the cargo-crev mold:
//!
//! * [`ReviewProof`] — a reviewer key rates one component *digest*
//!   (the registry's content address), from `distrust` to `high`.
//! * [`TrustProof`] — a reviewer key rates another *reviewer key*,
//!   building the edge set the EigenTrust computation runs over.
//! * [`Revocation`] — the original issuer withdraws an earlier proof
//!   by its payload digest.
//!
//! The decoders hold the same bar as `SignedManifest::decode` in
//! `lateral-registry`: strict positional grammar, fixed-width hex
//! fields, no duplicate scalars, no trailing content, no partial
//! acceptance. Signatures are domain-separated per kind so a review
//! can never be replayed as a trust edge.

use lateral_crypto::sign::{Signature, SigningKey, VerifyingKey};
use lateral_crypto::Digest;

use crate::WotError;

/// Domain separator for review-proof signatures (also the id domain).
const REVIEW_SIG_DOMAIN: &[u8] = b"lateral.wot.review.v1";

/// Domain separator for trust-proof signatures (also the id domain).
const TRUST_SIG_DOMAIN: &[u8] = b"lateral.wot.trust.v1";

/// Domain separator for revocation signatures (also the id domain).
const REVOKE_SIG_DOMAIN: &[u8] = b"lateral.wot.revoke.v1";

/// A proof's rating level. The same four-level scale covers component
/// reviews and reviewer-to-reviewer trust, like crev's
/// distrust/none/low..high ladder collapsed to the levels the score
/// computation distinguishes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rating {
    /// Actively harmful; excluded from the trust matrix and scored
    /// negatively in review aggregation.
    Distrust,
    /// No opinion either way.
    Neutral,
    /// Ordinary positive trust.
    Trust,
    /// Strong positive trust.
    High,
}

impl Rating {
    /// Canonical lowercase token used in the text encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Rating::Distrust => "distrust",
            Rating::Neutral => "neutral",
            Rating::Trust => "trust",
            Rating::High => "high",
        }
    }

    /// Parses the canonical token (exact match, no aliases).
    pub fn parse(s: &str) -> Option<Rating> {
        match s {
            "distrust" => Some(Rating::Distrust),
            "neutral" => Some(Rating::Neutral),
            "trust" => Some(Rating::Trust),
            "high" => Some(Rating::High),
            _ => None,
        }
    }

    /// Positive edge weight in the trust matrix. `Distrust` is 0 —
    /// EigenTrust's eigenvector runs over non-negative trust only;
    /// distrust edges are simply absent from the matrix.
    pub fn edge_weight(self) -> u32 {
        match self {
            Rating::Distrust => 0,
            Rating::Neutral => 1,
            Rating::Trust => 2,
            Rating::High => 3,
        }
    }

    /// Signed multiplier applied to the reviewer's score when
    /// aggregating reviews of a subject digest.
    pub fn review_multiplier(self) -> i64 {
        match self {
            Rating::Distrust => -2,
            Rating::Neutral => 0,
            Rating::Trust => 1,
            Rating::High => 2,
        }
    }

    /// All ratings, in encoding order (handy for sweeps and fuzzers).
    pub const ALL: [Rating; 4] = [
        Rating::Distrust,
        Rating::Neutral,
        Rating::Trust,
        Rating::High,
    ];
}

/// A signed review of one component digest by one reviewer key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReviewProof {
    /// Reviewer verifying key.
    pub reviewer: [u8; 32],
    /// Measurement digest of the reviewed component image.
    pub subject: Digest,
    /// The verdict.
    pub rating: Rating,
    /// Issuer-chosen logical epoch; a later epoch supersedes an earlier
    /// proof in the same (reviewer, subject) slot.
    pub epoch: u64,
    /// Reviewer signature over the canonical payload.
    pub signature: [u8; 64],
}

/// A signed trust edge from one reviewer key to another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrustProof {
    /// The trusting reviewer's verifying key.
    pub truster: [u8; 32],
    /// The trusted reviewer's verifying key.
    pub trustee: [u8; 32],
    /// How much trust the edge carries.
    pub rating: Rating,
    /// Issuer-chosen logical epoch (supersede rule as for reviews).
    pub epoch: u64,
    /// Truster signature over the canonical payload.
    pub signature: [u8; 64],
}

/// A signed withdrawal of an earlier proof, addressed by proof id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Revocation {
    /// The withdrawing key — must equal the original proof's issuer.
    pub issuer: [u8; 32],
    /// [`proof id`](ReviewProof::id) of the proof being withdrawn.
    pub revokes: Digest,
    /// Issuer-chosen logical epoch.
    pub epoch: u64,
    /// Issuer signature over the canonical payload.
    pub signature: [u8; 64],
}

/// Any of the three proof kinds, as produced by [`Proof::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Proof {
    /// A component review.
    Review(ReviewProof),
    /// A reviewer-to-reviewer trust edge.
    Trust(TrustProof),
    /// A withdrawal of an earlier proof.
    Revocation(Revocation),
}

impl ReviewProof {
    /// Issues and signs a review of `subject` at `epoch`.
    pub fn issue(
        reviewer: &SigningKey,
        subject: Digest,
        rating: Rating,
        epoch: u64,
    ) -> ReviewProof {
        let mut p = ReviewProof {
            reviewer: reviewer.verifying_key().to_bytes(),
            subject,
            rating,
            epoch,
            signature: [0u8; 64],
        };
        p.signature = reviewer.sign(&p.signing_message()).to_bytes();
        p
    }

    /// The canonical text the reviewer signs (everything above the
    /// `signature` line).
    pub fn payload_text(&self) -> String {
        format!(
            "review-proof v1\nreviewer {}\nsubject {}\nrating {}\nepoch {}\n",
            encode_hex(&self.reviewer),
            encode_hex(self.subject.as_bytes()),
            self.rating.as_str(),
            self.epoch
        )
    }

    /// The proof's content address: the digest a [`Revocation`] names.
    pub fn id(&self) -> Digest {
        Digest::of_parts(&[REVIEW_SIG_DOMAIN, self.payload_text().as_bytes()])
    }

    /// The domain-separated message the signature covers.
    pub fn signing_message(&self) -> Vec<u8> {
        self.id().as_bytes().to_vec()
    }

    /// Serializes to the strict line format [`ReviewProof::decode`]
    /// accepts; `decode(p.to_text())` reproduces `p` exactly.
    pub fn to_text(&self) -> String {
        format!(
            "{}signature {}\n",
            self.payload_text(),
            encode_hex(&self.signature)
        )
    }

    /// Parses the strict positional grammar:
    ///
    /// ```text
    /// review-proof v1
    /// reviewer <64 hex>
    /// subject <64 hex>
    /// rating distrust|neutral|trust|high
    /// epoch <u64>
    /// signature <128 hex>
    /// ```
    ///
    /// # Errors
    ///
    /// [`WotError::Decode`] on any deviation.
    pub fn decode(text: &str) -> Result<ReviewProof, WotError> {
        let mut lines = text.lines();
        expect_header(&mut lines, "review-proof v1")?;
        let reviewer = expect_hex_line::<32>(&mut lines, "reviewer")?;
        let subject = Digest(expect_hex_line::<32>(&mut lines, "subject")?);
        let rating = expect_rating_line(&mut lines)?;
        let epoch = expect_u64_line(&mut lines, "epoch")?;
        let signature = expect_hex_line::<64>(&mut lines, "signature")?;
        expect_end(&mut lines)?;
        Ok(ReviewProof {
            reviewer,
            subject,
            rating,
            epoch,
            signature,
        })
    }

    /// Verifies the reviewer signature over the canonical payload.
    ///
    /// # Errors
    ///
    /// [`WotError::Signature`] when the key or signature is bad.
    pub fn verify_signature(&self) -> Result<(), WotError> {
        verify(
            &self.reviewer,
            &self.signing_message(),
            &self.signature,
            "review",
        )
    }
}

impl TrustProof {
    /// Issues and signs a trust edge to `trustee` at `epoch`.
    pub fn issue(
        truster: &SigningKey,
        trustee: &VerifyingKey,
        rating: Rating,
        epoch: u64,
    ) -> TrustProof {
        let mut p = TrustProof {
            truster: truster.verifying_key().to_bytes(),
            trustee: trustee.to_bytes(),
            rating,
            epoch,
            signature: [0u8; 64],
        };
        p.signature = truster.sign(&p.signing_message()).to_bytes();
        p
    }

    /// The canonical text the truster signs.
    pub fn payload_text(&self) -> String {
        format!(
            "trust-proof v1\ntruster {}\ntrustee {}\nrating {}\nepoch {}\n",
            encode_hex(&self.truster),
            encode_hex(&self.trustee),
            self.rating.as_str(),
            self.epoch
        )
    }

    /// The proof's content address: the digest a [`Revocation`] names.
    pub fn id(&self) -> Digest {
        Digest::of_parts(&[TRUST_SIG_DOMAIN, self.payload_text().as_bytes()])
    }

    /// The domain-separated message the signature covers.
    pub fn signing_message(&self) -> Vec<u8> {
        self.id().as_bytes().to_vec()
    }

    /// Serializes to the strict line format [`TrustProof::decode`]
    /// accepts.
    pub fn to_text(&self) -> String {
        format!(
            "{}signature {}\n",
            self.payload_text(),
            encode_hex(&self.signature)
        )
    }

    /// Parses the strict positional grammar:
    ///
    /// ```text
    /// trust-proof v1
    /// truster <64 hex>
    /// trustee <64 hex>
    /// rating distrust|neutral|trust|high
    /// epoch <u64>
    /// signature <128 hex>
    /// ```
    ///
    /// # Errors
    ///
    /// [`WotError::Decode`] on any deviation.
    pub fn decode(text: &str) -> Result<TrustProof, WotError> {
        let mut lines = text.lines();
        expect_header(&mut lines, "trust-proof v1")?;
        let truster = expect_hex_line::<32>(&mut lines, "truster")?;
        let trustee = expect_hex_line::<32>(&mut lines, "trustee")?;
        let rating = expect_rating_line(&mut lines)?;
        let epoch = expect_u64_line(&mut lines, "epoch")?;
        let signature = expect_hex_line::<64>(&mut lines, "signature")?;
        expect_end(&mut lines)?;
        Ok(TrustProof {
            truster,
            trustee,
            rating,
            epoch,
            signature,
        })
    }

    /// Verifies the truster signature over the canonical payload.
    ///
    /// # Errors
    ///
    /// [`WotError::Signature`] when the key or signature is bad.
    pub fn verify_signature(&self) -> Result<(), WotError> {
        verify(
            &self.truster,
            &self.signing_message(),
            &self.signature,
            "trust",
        )
    }
}

impl Revocation {
    /// Issues and signs a withdrawal of the proof with id `revokes`.
    pub fn issue(issuer: &SigningKey, revokes: Digest, epoch: u64) -> Revocation {
        let mut p = Revocation {
            issuer: issuer.verifying_key().to_bytes(),
            revokes,
            epoch,
            signature: [0u8; 64],
        };
        p.signature = issuer.sign(&p.signing_message()).to_bytes();
        p
    }

    /// The canonical text the issuer signs.
    pub fn payload_text(&self) -> String {
        format!(
            "revocation-proof v1\nissuer {}\nrevokes {}\nepoch {}\n",
            encode_hex(&self.issuer),
            encode_hex(self.revokes.as_bytes()),
            self.epoch
        )
    }

    /// The proof's content address.
    pub fn id(&self) -> Digest {
        Digest::of_parts(&[REVOKE_SIG_DOMAIN, self.payload_text().as_bytes()])
    }

    /// The domain-separated message the signature covers.
    pub fn signing_message(&self) -> Vec<u8> {
        self.id().as_bytes().to_vec()
    }

    /// Serializes to the strict line format [`Revocation::decode`]
    /// accepts.
    pub fn to_text(&self) -> String {
        format!(
            "{}signature {}\n",
            self.payload_text(),
            encode_hex(&self.signature)
        )
    }

    /// Parses the strict positional grammar:
    ///
    /// ```text
    /// revocation-proof v1
    /// issuer <64 hex>
    /// revokes <64 hex>
    /// epoch <u64>
    /// signature <128 hex>
    /// ```
    ///
    /// # Errors
    ///
    /// [`WotError::Decode`] on any deviation.
    pub fn decode(text: &str) -> Result<Revocation, WotError> {
        let mut lines = text.lines();
        expect_header(&mut lines, "revocation-proof v1")?;
        let issuer = expect_hex_line::<32>(&mut lines, "issuer")?;
        let revokes = Digest(expect_hex_line::<32>(&mut lines, "revokes")?);
        let epoch = expect_u64_line(&mut lines, "epoch")?;
        let signature = expect_hex_line::<64>(&mut lines, "signature")?;
        expect_end(&mut lines)?;
        Ok(Revocation {
            issuer,
            revokes,
            epoch,
            signature,
        })
    }

    /// Verifies the issuer signature over the canonical payload.
    ///
    /// # Errors
    ///
    /// [`WotError::Signature`] when the key or signature is bad.
    pub fn verify_signature(&self) -> Result<(), WotError> {
        verify(
            &self.issuer,
            &self.signing_message(),
            &self.signature,
            "revocation",
        )
    }
}

impl Proof {
    /// Parses any proof kind, dispatching on the header line. The
    /// per-kind grammar is exactly the per-kind `decode`.
    ///
    /// # Errors
    ///
    /// [`WotError::Decode`] on any deviation, including an unknown
    /// header.
    pub fn decode(text: &str) -> Result<Proof, WotError> {
        match text.lines().next() {
            Some("review-proof v1") => Ok(Proof::Review(ReviewProof::decode(text)?)),
            Some("trust-proof v1") => Ok(Proof::Trust(TrustProof::decode(text)?)),
            Some("revocation-proof v1") => Ok(Proof::Revocation(Revocation::decode(text)?)),
            _ => Err(WotError::Decode("unknown proof header".into())),
        }
    }

    /// Serializes whichever kind this is.
    pub fn to_text(&self) -> String {
        match self {
            Proof::Review(p) => p.to_text(),
            Proof::Trust(p) => p.to_text(),
            Proof::Revocation(p) => p.to_text(),
        }
    }

    /// The proof's content address.
    pub fn id(&self) -> Digest {
        match self {
            Proof::Review(p) => p.id(),
            Proof::Trust(p) => p.id(),
            Proof::Revocation(p) => p.id(),
        }
    }

    /// Verifies the issuer signature of whichever kind this is.
    ///
    /// # Errors
    ///
    /// [`WotError::Signature`] when the key or signature is bad.
    pub fn verify_signature(&self) -> Result<(), WotError> {
        match self {
            Proof::Review(p) => p.verify_signature(),
            Proof::Trust(p) => p.verify_signature(),
            Proof::Revocation(p) => p.verify_signature(),
        }
    }
}

// ------------------------------------------------------------- helpers

fn verify(key: &[u8; 32], msg: &[u8], sig: &[u8; 64], kind: &str) -> Result<(), WotError> {
    let vk = VerifyingKey::from_bytes(key)
        .map_err(|e| WotError::Signature(format!("bad {kind} issuer key: {e}")))?;
    let sig = Signature::from_bytes(sig)
        .map_err(|e| WotError::Signature(format!("bad {kind} signature: {e}")))?;
    vk.verify(msg, &sig)
        .map_err(|_| WotError::Signature(format!("{kind} signature invalid")))
}

fn expect_header<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    header: &str,
) -> Result<(), WotError> {
    if lines.next() == Some(header) {
        Ok(())
    } else {
        Err(WotError::Decode(format!("missing '{header}' header")))
    }
}

fn expect_end<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<(), WotError> {
    if lines.next().is_some() {
        return Err(WotError::Decode(
            "trailing content after 'signature' line".into(),
        ));
    }
    Ok(())
}

fn expect_token<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    directive: &str,
) -> Result<&'a str, WotError> {
    let line = lines
        .next()
        .ok_or_else(|| WotError::Decode(format!("missing '{directive}' line")))?;
    let toks: Vec<&str> = line.split(' ').filter(|t| !t.is_empty()).collect();
    match toks.as_slice() {
        [d, value] if *d == directive => Ok(value),
        _ => Err(WotError::Decode(format!(
            "expected '{directive} <value>' line"
        ))),
    }
}

fn expect_u64_line<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    directive: &str,
) -> Result<u64, WotError> {
    expect_token(lines, directive)?
        .parse()
        .map_err(|_| WotError::Decode(format!("malformed {directive}")))
}

fn expect_rating_line<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<Rating, WotError> {
    let tok = expect_token(lines, "rating")?;
    Rating::parse(tok).ok_or_else(|| WotError::Decode(format!("unknown rating '{tok}'")))
}

fn expect_hex_line<'a, const N: usize>(
    lines: &mut impl Iterator<Item = &'a str>,
    directive: &str,
) -> Result<[u8; N], WotError> {
    let tok = expect_token(lines, directive)?;
    lateral_crypto::hex::decode_array::<N>(tok)
        .ok_or_else(|| WotError::Decode(format!("malformed {directive} hex")))
}

pub(crate) fn encode_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reviewer() -> SigningKey {
        SigningKey::from_seed(b"wot reviewer")
    }

    #[test]
    fn review_round_trips_and_verifies() {
        let p = ReviewProof::issue(&reviewer(), Digest::of(b"image"), Rating::High, 3);
        p.verify_signature().unwrap();
        let decoded = ReviewProof::decode(&p.to_text()).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.id(), p.id());
        decoded.verify_signature().unwrap();
    }

    #[test]
    fn trust_round_trips_and_verifies() {
        let peer = SigningKey::from_seed(b"peer");
        let p = TrustProof::issue(&reviewer(), &peer.verifying_key(), Rating::Trust, 1);
        p.verify_signature().unwrap();
        let decoded = TrustProof::decode(&p.to_text()).unwrap();
        assert_eq!(decoded, p);
        decoded.verify_signature().unwrap();
    }

    #[test]
    fn revocation_round_trips_and_verifies() {
        let target = ReviewProof::issue(&reviewer(), Digest::of(b"image"), Rating::High, 3);
        let p = Revocation::issue(&reviewer(), target.id(), 4);
        p.verify_signature().unwrap();
        let decoded = Revocation::decode(&p.to_text()).unwrap();
        assert_eq!(decoded, p);
        decoded.verify_signature().unwrap();
    }

    #[test]
    fn unified_decode_dispatches_on_header() {
        let review = ReviewProof::issue(&reviewer(), Digest::of(b"i"), Rating::Trust, 1);
        let peer = SigningKey::from_seed(b"peer");
        let trust = TrustProof::issue(&reviewer(), &peer.verifying_key(), Rating::High, 1);
        let revoke = Revocation::issue(&reviewer(), review.id(), 2);
        assert_eq!(
            Proof::decode(&review.to_text()).unwrap(),
            Proof::Review(review)
        );
        assert_eq!(
            Proof::decode(&trust.to_text()).unwrap(),
            Proof::Trust(trust)
        );
        assert_eq!(
            Proof::decode(&revoke.to_text()).unwrap(),
            Proof::Revocation(revoke)
        );
        assert!(Proof::decode("something-else v1\n").is_err());
    }

    #[test]
    fn cross_kind_replay_fails_signature() {
        // A trust proof's fields rehomed into a review proof must not
        // verify: the signature domains differ even where the payload
        // shapes coincide.
        let peer = SigningKey::from_seed(b"peer");
        let t = TrustProof::issue(&reviewer(), &peer.verifying_key(), Rating::Trust, 7);
        let forged = ReviewProof {
            reviewer: t.truster,
            subject: Digest(t.trustee),
            rating: t.rating,
            epoch: t.epoch,
            signature: t.signature,
        };
        assert!(forged.verify_signature().is_err());
    }

    #[test]
    fn tampered_fields_fail_signature() {
        let mut p = ReviewProof::issue(&reviewer(), Digest::of(b"image"), Rating::High, 3);
        p.rating = Rating::Distrust;
        assert!(p.verify_signature().is_err());
    }

    #[test]
    fn decoder_rejects_structural_deviations() {
        let p = ReviewProof::issue(&reviewer(), Digest::of(b"image"), Rating::Trust, 9);
        let good = p.to_text();
        let lines: Vec<&str> = good.lines().collect();
        // Dropping any line breaks the positional grammar.
        for skip in 0..lines.len() {
            let mutated: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            assert!(
                ReviewProof::decode(&mutated).is_err(),
                "accepted proof missing line {skip}"
            );
        }
        // Duplicating any line is rejected: every directive is scalar.
        for dup in 0..lines.len() {
            let mut mutated = String::new();
            for (i, l) in lines.iter().enumerate() {
                mutated.push_str(&format!("{l}\n"));
                if i == dup {
                    mutated.push_str(&format!("{l}\n"));
                }
            }
            assert!(
                ReviewProof::decode(&mutated).is_err(),
                "accepted duplicated line {dup}"
            );
        }
    }

    #[test]
    fn decoder_rejects_garbage() {
        for bad in [
            "",
            "review-proof v1",
            "review-proof v2\nreviewer aa\n",
            "review-proof v1\nreviewer zz\n",
            "review-proof v1\nreviewer \n",
            "review-proof v1\nsubject aa\n",
        ] {
            assert!(ReviewProof::decode(bad).is_err(), "accepted {bad:?}");
            assert!(Proof::decode(bad).is_err(), "unified accepted {bad:?}");
        }
    }

    #[test]
    fn decoder_refuses_uppercase_and_signed_hex() {
        // Both variants decode to the same signature bytes under a
        // `from_str_radix` decoder, so the proof verifies yet re-encodes
        // to other text. Pick an epoch whose signature has a byte below
        // 0x10 for the `+` variant.
        let p = (0..)
            .map(|epoch| ReviewProof::issue(&reviewer(), Digest::of(b"image"), Rating::High, epoch))
            .find(|p| p.signature.iter().any(|&b| b < 0x10))
            .expect("some signature has a byte below 0x10");
        let text = p.to_text();
        let sig = encode_hex(&p.signature);
        assert!(sig.bytes().any(|c| c.is_ascii_lowercase()));
        let upper = text.replace(&sig, &sig.to_uppercase());
        let zero = (0..p.signature.len())
            .find(|&i| p.signature[i] < 0x10)
            .expect("chosen above");
        let mut plus = sig.clone();
        plus.replace_range(2 * zero..2 * zero + 1, "+");
        let plus = text.replace(&sig, &plus);
        for variant in [upper, plus] {
            assert_ne!(variant, text);
            assert!(
                ReviewProof::decode(&variant).is_err(),
                "accepted {variant:?}"
            );
            assert!(
                Proof::decode(&variant).is_err(),
                "unified accepted {variant:?}"
            );
        }
    }

    #[test]
    fn truncated_signature_rejected() {
        let p = ReviewProof::issue(&reviewer(), Digest::of(b"image"), Rating::Trust, 1);
        let text = p.to_text();
        // Drop the last 4 hex chars of the signature line (keep the \n).
        let shortened = format!("{}\n", &text.trim_end()[..text.trim_end().len() - 4]);
        assert!(ReviewProof::decode(&shortened).is_err());
    }
}
