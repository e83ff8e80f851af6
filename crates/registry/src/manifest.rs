//! Signed publisher manifests: the registry's submission format.
//!
//! A publisher describes one component image — its measurement digest,
//! declared size, TCB budget, and the *closed* channel graph the
//! component is allowed — and signs the canonical serialization. The
//! decoder holds the same bar as `AttackReport::decode` in
//! `lateral-components`: every directive appears exactly where the
//! grammar says, exactly the right number of times, and anything else
//! is rejected outright. There is no partial acceptance — adversarial
//! bytes either parse into a complete, internally consistent manifest
//! or fail loudly.

use lateral_crypto::sign::{Signature, SigningKey, VerifyingKey};
use lateral_crypto::Digest;

use crate::{measurement_of, RegistryError};

/// Domain separator for the publisher's manifest signature.
const MANIFEST_SIG_DOMAIN: &[u8] = b"lateral.registry.manifest.v1";

/// Domain separator for a root's endorsement of a publisher key.
const ENDORSE_SIG_DOMAIN: &[u8] = b"lateral.registry.endorse.v1";

/// One channel the component is allowed to use (POLA: nothing else).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Label the component uses to refer to the channel.
    pub label: String,
    /// Target component name (must be a declared endpoint).
    pub to: String,
    /// Badge delivered to the target.
    pub badge: u64,
}

/// A root key's endorsement of a publisher key (one-level chain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing root's verifying key.
    pub root: [u8; 32],
    /// Root signature over the endorsed publisher key.
    pub signature: [u8; 64],
}

impl Endorsement {
    /// Issues an endorsement of `publisher` by `root`.
    pub fn issue(root: &SigningKey, publisher: &VerifyingKey) -> Endorsement {
        let msg = endorse_message(&publisher.to_bytes());
        Endorsement {
            root: root.verifying_key().to_bytes(),
            signature: root.sign(&msg).to_bytes(),
        }
    }

    /// Verifies this endorsement covers `publisher`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Signature`] when the chain does not check out.
    pub fn verify(&self, publisher: &[u8; 32]) -> Result<(), RegistryError> {
        let vk = VerifyingKey::from_bytes(&self.root)
            .map_err(|e| RegistryError::Signature(format!("bad endorsement root key: {e}")))?;
        let sig = Signature::from_bytes(&self.signature)
            .map_err(|e| RegistryError::Signature(format!("bad endorsement signature: {e}")))?;
        vk.verify(&endorse_message(publisher), &sig)
            .map_err(|_| RegistryError::Signature("endorsement signature invalid".into()))
    }
}

fn endorse_message(publisher: &[u8; 32]) -> Vec<u8> {
    Digest::of_parts(&[ENDORSE_SIG_DOMAIN, publisher])
        .as_bytes()
        .to_vec()
}

/// A signed publisher manifest describing one component image.
///
/// Construct via [`ManifestDraft`] (which computes the digest and
/// signature) or [`SignedManifest::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedManifest {
    /// Component name the image serves.
    pub component: String,
    /// Measurement digest of the image (what a substrate would report).
    pub digest: Digest,
    /// Declared implementation size in lines of code.
    pub loc: u64,
    /// Maximum total TCB (component + substrate) the publisher accepts.
    pub tcb_budget: u64,
    /// Every peer component this one may ever talk to.
    pub endpoints: Vec<String>,
    /// The declared channel graph (must stay inside `endpoints`).
    pub channels: Vec<ChannelSpec>,
    /// Publisher verifying key.
    pub publisher: [u8; 32],
    /// Optional root endorsement of the publisher key.
    pub endorsement: Option<Endorsement>,
    /// Publisher signature over the canonical payload.
    pub signature: [u8; 64],
}

impl SignedManifest {
    /// The canonical text the publisher signs: everything up to (and
    /// excluding) the `signature` line, in grammar order.
    pub fn payload_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "publisher-manifest v1");
        let _ = writeln!(out, "component {}", self.component);
        let _ = writeln!(out, "digest {}", encode_hex(self.digest.as_bytes()));
        let _ = writeln!(out, "loc {}", self.loc);
        let _ = writeln!(out, "budget {}", self.tcb_budget);
        for e in &self.endpoints {
            let _ = writeln!(out, "endpoint {e}");
        }
        for ch in &self.channels {
            let _ = writeln!(out, "channel {} {} {}", ch.label, ch.to, ch.badge);
        }
        let _ = writeln!(out, "publisher {}", encode_hex(&self.publisher));
        if let Some(end) = &self.endorsement {
            let _ = writeln!(
                out,
                "endorsement {} {}",
                encode_hex(&end.root),
                encode_hex(&end.signature)
            );
        }
        out
    }

    /// The domain-separated message the publisher signature covers.
    pub fn signing_message(&self) -> Vec<u8> {
        Digest::of_parts(&[MANIFEST_SIG_DOMAIN, self.payload_text().as_bytes()])
            .as_bytes()
            .to_vec()
    }

    /// Serializes to the strict line format [`SignedManifest::decode`]
    /// accepts. `decode(m.to_text())` reproduces `m` exactly.
    pub fn to_text(&self) -> String {
        let mut out = self.payload_text();
        out.push_str(&format!("signature {}\n", encode_hex(&self.signature)));
        out
    }

    /// Parses the strict line format. The grammar is *positional*:
    ///
    /// ```text
    /// publisher-manifest v1
    /// component <name>
    /// digest <64 hex>
    /// loc <u64>
    /// budget <u64>
    /// endpoint <name>              (zero or more)
    /// channel <label> <to> <badge> (zero or more)
    /// publisher <64 hex>
    /// endorsement <64 hex> <128 hex>  (optional)
    /// signature <128 hex>
    /// ```
    ///
    /// No blank lines, no comments, no reordering, no repetition of
    /// scalar directives, no trailing content. Names are single tokens
    /// of `[A-Za-z0-9._-]`. Channel-graph *semantics* (closure, badge
    /// hygiene) are the certification pipeline's job, not the decoder's.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Decode`] on any deviation.
    pub fn decode(text: &str) -> Result<SignedManifest, RegistryError> {
        let bad = |why: &str| RegistryError::Decode(why.to_string());
        let mut lines = text.lines().peekable();

        if lines.next() != Some("publisher-manifest v1") {
            return Err(bad("missing 'publisher-manifest v1' header"));
        }
        let component = expect_name_line(&mut lines, "component")?;
        let digest = Digest(expect_hex_line::<32>(&mut lines, "digest")?);
        let loc = expect_u64_line(&mut lines, "loc")?;
        let tcb_budget = expect_u64_line(&mut lines, "budget")?;

        let mut endpoints = Vec::new();
        while next_directive(&mut lines) == Some("endpoint") {
            let line = lines.next().expect("peeked");
            let toks: Vec<&str> = line.split(' ').filter(|t| !t.is_empty()).collect();
            let ["endpoint", name] = toks.as_slice() else {
                return Err(bad("expected 'endpoint <name>'"));
            };
            endpoints.push(parse_name(name)?);
        }

        let mut channels = Vec::new();
        while next_directive(&mut lines) == Some("channel") {
            let line = lines.next().expect("peeked");
            let toks: Vec<&str> = line.split(' ').filter(|t| !t.is_empty()).collect();
            let ["channel", label, to, badge] = toks.as_slice() else {
                return Err(bad("expected 'channel <label> <to> <badge>'"));
            };
            channels.push(ChannelSpec {
                label: parse_name(label)?,
                to: parse_name(to)?,
                badge: badge.parse().map_err(|_| bad("malformed channel badge"))?,
            });
        }

        let publisher = expect_hex_line::<32>(&mut lines, "publisher")?;

        let endorsement = if next_directive(&mut lines) == Some("endorsement") {
            let line = lines.next().expect("peeked");
            let toks: Vec<&str> = line.split(' ').filter(|t| !t.is_empty()).collect();
            let ["endorsement", root_hex, sig_hex] = toks.as_slice() else {
                return Err(bad("expected 'endorsement <root> <signature>'"));
            };
            Some(Endorsement {
                root: lateral_crypto::hex::decode_array::<32>(root_hex)
                    .ok_or_else(|| bad("malformed endorsement root hex"))?,
                signature: lateral_crypto::hex::decode_array::<64>(sig_hex)
                    .ok_or_else(|| bad("malformed endorsement signature hex"))?,
            })
        } else {
            None
        };

        let signature = expect_hex_line::<64>(&mut lines, "signature")?;
        if lines.next().is_some() {
            return Err(bad("trailing content after 'signature' line"));
        }
        Ok(SignedManifest {
            component,
            digest,
            loc,
            tcb_budget,
            endpoints,
            channels,
            publisher,
            endorsement,
            signature,
        })
    }

    /// Verifies the publisher signature over the canonical payload.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Signature`] when the key or signature is bad.
    pub fn verify_signature(&self) -> Result<(), RegistryError> {
        let vk = VerifyingKey::from_bytes(&self.publisher)
            .map_err(|e| RegistryError::Signature(format!("bad publisher key: {e}")))?;
        let sig = Signature::from_bytes(&self.signature)
            .map_err(|e| RegistryError::Signature(format!("bad manifest signature: {e}")))?;
        vk.verify(&self.signing_message(), &sig)
            .map_err(|_| RegistryError::Signature("publisher signature invalid".into()))
    }
}

/// Builder for a [`SignedManifest`]: computes the image's measurement
/// digest and the publisher signature at [`ManifestDraft::sign`] time.
#[derive(Clone, Debug)]
pub struct ManifestDraft {
    component: String,
    digest: Digest,
    loc: u64,
    tcb_budget: u64,
    endpoints: Vec<String>,
    channels: Vec<ChannelSpec>,
}

impl ManifestDraft {
    /// Starts a draft for `component` backed by `image` (defaults:
    /// 1000 LoC, effectively unbounded TCB budget, no channels).
    pub fn new(component: &str, image: &[u8]) -> ManifestDraft {
        ManifestDraft {
            component: component.to_string(),
            digest: measurement_of(image),
            loc: 1_000,
            tcb_budget: u64::MAX,
            endpoints: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Sets the declared line count.
    #[must_use]
    pub fn loc(mut self, loc: u64) -> ManifestDraft {
        self.loc = loc;
        self
    }

    /// Sets the TCB budget (component + substrate lines).
    #[must_use]
    pub fn budget(mut self, budget: u64) -> ManifestDraft {
        self.tcb_budget = budget;
        self
    }

    /// Declares a peer endpoint.
    #[must_use]
    pub fn endpoint(mut self, name: &str) -> ManifestDraft {
        self.endpoints.push(name.to_string());
        self
    }

    /// Declares a channel `label → to` with `badge`.
    #[must_use]
    pub fn channel(mut self, label: &str, to: &str, badge: u64) -> ManifestDraft {
        self.channels.push(ChannelSpec {
            label: label.to_string(),
            to: to.to_string(),
            badge,
        });
        self
    }

    /// Signs the draft with `publisher`, optionally carrying a root
    /// endorsement of the publisher key.
    pub fn sign(self, publisher: &SigningKey, endorsement: Option<Endorsement>) -> SignedManifest {
        let mut m = SignedManifest {
            component: self.component,
            digest: self.digest,
            loc: self.loc,
            tcb_budget: self.tcb_budget,
            endpoints: self.endpoints,
            channels: self.channels,
            publisher: publisher.verifying_key().to_bytes(),
            endorsement,
            signature: [0u8; 64],
        };
        m.signature = publisher.sign(&m.signing_message()).to_bytes();
        m
    }
}

// ------------------------------------------------------------- helpers

fn next_directive<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
) -> Option<&'a str> {
    lines
        .peek()
        .and_then(|l| l.split(' ').find(|t| !t.is_empty()))
}

fn expect_tokens<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
    directive: &str,
) -> Result<Vec<&'a str>, RegistryError> {
    let line = lines
        .next()
        .ok_or_else(|| RegistryError::Decode(format!("missing '{directive}' line")))?;
    let toks: Vec<&str> = line.split(' ').filter(|t| !t.is_empty()).collect();
    match toks.first() {
        Some(d) if *d == directive => Ok(toks[1..].to_vec()),
        _ => Err(RegistryError::Decode(format!(
            "expected '{directive}' line"
        ))),
    }
}

fn expect_name_line<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
    directive: &str,
) -> Result<String, RegistryError> {
    let toks = expect_tokens(lines, directive)?;
    let [name] = toks.as_slice() else {
        return Err(RegistryError::Decode(format!(
            "expected '{directive} <name>'"
        )));
    };
    parse_name(name)
}

fn expect_u64_line<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
    directive: &str,
) -> Result<u64, RegistryError> {
    let toks = expect_tokens(lines, directive)?;
    let [n] = toks.as_slice() else {
        return Err(RegistryError::Decode(format!(
            "expected '{directive} <number>'"
        )));
    };
    n.parse()
        .map_err(|_| RegistryError::Decode(format!("malformed {directive}")))
}

fn expect_hex_line<'a, const N: usize>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
    directive: &str,
) -> Result<[u8; N], RegistryError> {
    let toks = expect_tokens(lines, directive)?;
    let [hex] = toks.as_slice() else {
        return Err(RegistryError::Decode(format!(
            "expected '{directive} <hex>'"
        )));
    };
    lateral_crypto::hex::decode_array::<N>(hex)
        .ok_or_else(|| RegistryError::Decode(format!("malformed {directive} hex")))
}

fn parse_name(s: &str) -> Result<String, RegistryError> {
    let ok = !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(s.to_string())
    } else {
        Err(RegistryError::Decode(format!("malformed name '{s}'")))
    }
}

pub(crate) fn encode_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft() -> ManifestDraft {
        ManifestDraft::new("meter-agent", b"meter image v1")
            .loc(1_200)
            .budget(25_000)
            .endpoint("utility")
            .channel("report", "utility", 7)
    }

    #[test]
    fn round_trips_and_verifies() {
        let key = SigningKey::from_seed(b"publisher");
        let m = draft().sign(&key, None);
        m.verify_signature().unwrap();
        let decoded = SignedManifest::decode(&m.to_text()).unwrap();
        assert_eq!(decoded, m);
        decoded.verify_signature().unwrap();
        assert_eq!(decoded.digest, measurement_of(b"meter image v1"));
    }

    #[test]
    fn endorsed_round_trip() {
        let root = SigningKey::from_seed(b"root");
        let publisher = SigningKey::from_seed(b"pub2");
        let end = Endorsement::issue(&root, &publisher.verifying_key());
        let m = draft().sign(&publisher, Some(end));
        let decoded = SignedManifest::decode(&m.to_text()).unwrap();
        assert_eq!(decoded, m);
        decoded
            .endorsement
            .unwrap()
            .verify(&decoded.publisher)
            .unwrap();
    }

    #[test]
    fn endorsement_of_other_key_rejected() {
        let root = SigningKey::from_seed(b"root");
        let victim = SigningKey::from_seed(b"victim");
        let mallory = SigningKey::from_seed(b"mallory");
        let end = Endorsement::issue(&root, &victim.verifying_key());
        assert!(end.verify(&mallory.verifying_key().to_bytes()).is_err());
    }

    #[test]
    fn tampered_payload_fails_signature() {
        let key = SigningKey::from_seed(b"publisher");
        let mut m = draft().sign(&key, None);
        m.loc += 1;
        assert!(m.verify_signature().is_err());
    }

    #[test]
    fn decoder_rejects_structural_deviations() {
        let key = SigningKey::from_seed(b"publisher");
        let good = draft().sign(&key, None).to_text();
        // Dropping any mandatory line breaks the positional grammar
        // (endpoint/channel lines are legitimately repeatable-or-absent,
        // so removing them is a *semantic* matter for the pipeline).
        let lines: Vec<&str> = good.lines().collect();
        for skip in 0..lines.len() {
            if lines[skip].starts_with("endpoint") || lines[skip].starts_with("channel") {
                continue;
            }
            let mutated: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            assert!(
                SignedManifest::decode(&mutated).is_err(),
                "accepted manifest missing line {skip}: {:?}",
                lines[skip]
            );
        }
        // Duplicating a scalar line is rejected too.
        for dup in 0..lines.len() {
            let mut mutated = String::new();
            for (i, l) in lines.iter().enumerate() {
                mutated.push_str(&format!("{l}\n"));
                if i == dup && !l.starts_with("endpoint") && !l.starts_with("channel") {
                    mutated.push_str(&format!("{l}\n"));
                }
            }
            if mutated.lines().count() == lines.len() {
                continue;
            }
            assert!(
                SignedManifest::decode(&mutated).is_err(),
                "accepted duplicated line {dup}: {:?}",
                lines[dup]
            );
        }
    }

    #[test]
    fn decoder_rejects_garbage() {
        for bad in [
            "",
            "publisher-manifest v1",
            "publisher-manifest v2\ncomponent a",
            "component a\npublisher-manifest v1",
            "publisher-manifest v1\ncomponent two words\n",
            "publisher-manifest v1\ncomponent a\ndigest zz\n",
        ] {
            assert!(SignedManifest::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn decoder_refuses_uppercase_hex() {
        let key = SigningKey::from_seed(b"publisher");
        let text = draft().sign(&key, None).to_text();
        let sig = text
            .lines()
            .find_map(|l| l.strip_prefix("signature "))
            .expect("signature line");
        let upper = text.replace(sig, &sig.to_uppercase());
        assert_ne!(upper, text);
        assert!(
            SignedManifest::decode(&upper).is_err(),
            "accepted {upper:?}"
        );
    }

    #[test]
    fn trailing_content_rejected() {
        let key = SigningKey::from_seed(b"publisher");
        let mut text = draft().sign(&key, None).to_text();
        text.push_str("extra junk\n");
        assert!(SignedManifest::decode(&text).is_err());
    }
}
