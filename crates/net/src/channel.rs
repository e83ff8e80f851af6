//! The secure channel: a TLS-like handshake plus an AEAD record layer,
//! with optional attestation binding (RA-TLS style).
//!
//! §III-C's email client isolates "a component for transport-layer
//! security (TLS) and login"; §III-C's smart meter goes further and
//! *attests* the peer before trusting it: "the smart meter would verify
//! the code identity of the data anonymizer component before sending it
//! any readings." Both are built here:
//!
//! * **Handshake** — ephemeral Diffie–Hellman shares and nonces from both
//!   sides; each authenticating party signs the transcript hash, so a
//!   man-in-the-middle cannot splice itself in without failing the
//!   signature or the key-pinning check.
//! * **Attestation binding** — a party may attach
//!   [`AttestationEvidence`] whose `report_data` *is* the transcript
//!   hash: the evidence cannot be relayed onto a different channel
//!   (§II-D's emulation/proxy argument).
//! * **Records** — one format: an explicit sequence number, then one
//!   AEAD box under one label. A replayed record opens as a typed
//!   duplicate; reordered, corrupted, or forged records are rejected.

use std::cmp::Ordering;

use lateral_crypto::aead::{Aead, TAG_LEN};
use lateral_crypto::dh::{EphemeralSecret, PublicShare};
use lateral_crypto::hmac::hkdf;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::{Signature, SigningKey, VerifyingKey};
use lateral_crypto::Digest;
use lateral_substrate::attest::{AttestationEvidence, TrustPolicy, VerifiedIdentity};
use lateral_substrate::substrate::Substrate;
use lateral_substrate::DomainId;

use crate::wire::{put_field, Reader};
use crate::NetError;

/// Produces channel-bound attestation evidence for `domain` by asking
/// its substrate to attest with the handshake transcript as report data
/// — the glue between the fabric engine's evidence assembly and the
/// RA-TLS-style binding below. Pass the result to
/// [`ServerHandshake::respond`] or the `client_evidence` closure of
/// [`ClientHandshake::finish`].
///
/// # Errors
///
/// [`NetError::AttestationRejected`] when the substrate cannot attest
/// the domain (pure software isolation, host-side domains, …).
pub fn substrate_evidence(
    sub: &mut dyn Substrate,
    domain: DomainId,
    transcript: &Digest,
) -> Result<AttestationEvidence, NetError> {
    sub.attest(domain, transcript.as_bytes())
        .map_err(|e| NetError::AttestationRejected(format!("substrate refused to attest: {e}")))
}

/// Serializes attestation evidence for the wire.
pub fn encode_evidence(ev: &AttestationEvidence) -> Vec<u8> {
    let mut out = Vec::new();
    put_field(&mut out, ev.substrate.as_bytes());
    put_field(&mut out, &ev.platform_key);
    put_field(&mut out, ev.measurement.as_bytes());
    put_field(&mut out, ev.platform_state.as_bytes());
    put_field(&mut out, &ev.report_data);
    put_field(&mut out, &ev.signature);
    out
}

/// Parses attestation evidence from the wire.
///
/// # Errors
///
/// [`NetError::Decode`] on malformed input.
pub fn decode_evidence(bytes: &[u8]) -> Result<AttestationEvidence, NetError> {
    let mut r = Reader::new(bytes);
    let substrate = String::from_utf8(r.field()?.to_vec())
        .map_err(|_| NetError::Decode("substrate not UTF-8".into()))?;
    let platform_key: [u8; 32] = r.array()?;
    let measurement = Digest(r.array()?);
    let platform_state = Digest(r.array()?);
    let report_data = r.field()?.to_vec();
    let signature: [u8; 64] = r.array()?;
    r.finish()?;
    Ok(AttestationEvidence {
        substrate,
        platform_key,
        measurement,
        platform_state,
        report_data,
        signature,
    })
}

/// What a party requires of its peer.
#[derive(Clone, Default)]
pub struct ChannelPolicy {
    /// Pinned peer signing keys; when set, the peer's identity key must
    /// be in this set.
    pub pinned_keys: Option<Vec<[u8; 32]>>,
    /// Attestation requirements; when set, the peer MUST present valid
    /// evidence bound to this channel.
    pub attestation: Option<TrustPolicy>,
    /// Revoked measurement digests (a registry's revocation list): any
    /// presented evidence whose measurement is on this list is
    /// rejected, even before the trust policy runs.
    pub revoked_measurements: Option<Vec<[u8; 32]>>,
}

impl std::fmt::Debug for ChannelPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChannelPolicy(pinned={}, attestation={}, revocations={})",
            self.pinned_keys.is_some(),
            self.attestation.is_some(),
            self.revoked_measurements.as_ref().map_or(0, Vec::len)
        )
    }
}

impl ChannelPolicy {
    /// Accepts any authenticated peer (no pinning, no attestation).
    pub fn open() -> ChannelPolicy {
        ChannelPolicy::default()
    }

    /// Pins the peer to one exact identity key.
    pub fn pin(key: VerifyingKey) -> ChannelPolicy {
        ChannelPolicy {
            pinned_keys: Some(vec![key.to_bytes()]),
            attestation: None,
            revoked_measurements: None,
        }
    }

    /// Additionally requires channel-bound attestation.
    #[must_use]
    pub fn with_attestation(mut self, policy: TrustPolicy) -> ChannelPolicy {
        self.attestation = Some(policy);
        self
    }

    /// Attaches a revocation list (e.g. `Registry::revoked_digests`
    /// from `lateral-registry`): evidence carrying any of these
    /// measurements is rejected regardless of what the trust policy
    /// would say.
    #[must_use]
    pub fn with_revocations(mut self, revoked: Vec<[u8; 32]>) -> ChannelPolicy {
        self.revoked_measurements = Some(revoked);
        self
    }

    fn check_peer(
        &self,
        peer_key: &[u8; 32],
        evidence: Option<&AttestationEvidence>,
        transcript: &Digest,
    ) -> Result<Option<VerifiedIdentity>, NetError> {
        if let Some(pinned) = &self.pinned_keys {
            if !pinned.contains(peer_key) {
                return Err(NetError::HandshakeFailed(
                    "peer identity key is not pinned".into(),
                ));
            }
        }
        if let (Some(revoked), Some(ev)) = (&self.revoked_measurements, evidence) {
            if revoked.contains(&ev.measurement.0) {
                return Err(NetError::AttestationRejected(format!(
                    "peer measurement {} is revoked",
                    ev.measurement.short_hex()
                )));
            }
        }
        match (&self.attestation, evidence) {
            (None, _) => Ok(None),
            (Some(_), None) => Err(NetError::AttestationRejected(
                "peer presented no attestation evidence".into(),
            )),
            (Some(policy), Some(ev)) => {
                let id = policy
                    .verify(ev)
                    .map_err(|e| NetError::AttestationRejected(e.to_string()))?;
                if id.report_data != transcript.as_bytes() {
                    return Err(NetError::AttestationRejected(
                        "evidence not bound to this channel (relay attack?)".into(),
                    ));
                }
                Ok(Some(id))
            }
        }
    }
}

/// What a party learns about its peer after the handshake.
#[derive(Clone, Debug)]
pub struct PeerInfo {
    /// The peer's authenticated identity key.
    pub key: [u8; 32],
    /// Verified attestation identity, when the policy demanded one.
    pub attested: Option<VerifiedIdentity>,
}

/// The AEAD label every record is sealed under.
const RECORD_LABEL: &[u8] = b"channel.record";
/// Length of the explicit sequence number that prefixes every record.
const SEQ_LEN: usize = 8;

/// An established channel: one record format, with replay protection.
///
/// Every record is `seq ‖ AEAD(seq, "channel.record", body)`: an 8-byte
/// little-endian sequence number in the clear, then one AEAD box keyed
/// by that same number. The sequence rides outside the box so a
/// receiver on a lossy link can tell a retransmitted copy from a lost
/// record; the AEAD binds it, so a spliced prefix fails authentication.
/// Whatever structure a body has (request ids, trace contexts, fleet
/// batches) lives inside the box.
pub struct SecureChannel {
    send: Aead,
    recv: Aead,
    send_seq: u64,
    recv_seq: u64,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SecureChannel(sent={}, received={})",
            self.send_seq, self.recv_seq
        )
    }
}

impl SecureChannel {
    /// Derives a channel pair directly from a 32-byte shared secret —
    /// the session-resumption entry point. Both sides must agree on the
    /// secret (e.g. the resumption master secret from
    /// [`crate::session`]); `client_side` selects the key orientation
    /// exactly as the full handshake does.
    pub fn from_shared(shared: &[u8; 32], client_side: bool) -> SecureChannel {
        derive_channel(shared, client_side)
    }

    /// Seals `body` as the next outgoing record. The AEAD is
    /// deterministic and keyed by the sequence number, so a sender that
    /// must retransmit resends the same bytes.
    pub fn seal(&mut self, body: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        let mut record = Vec::with_capacity(SEQ_LEN + body.len() + TAG_LEN);
        record.extend_from_slice(&seq.to_le_bytes());
        self.send.seal_into(seq, RECORD_LABEL, body, &mut record);
        record
    }

    /// Opens the next incoming record. The record is authenticated
    /// first and only then classified by its sequence number, so a
    /// forged prefix can never pass for a duplicate or a loss signal:
    ///
    /// * the expected sequence returns the body and moves the window;
    /// * an earlier one is [`NetError::Duplicate`] (a replay, or a
    ///   retransmitted copy of a record already delivered);
    /// * a later one means an earlier record was lost for good.
    ///
    /// Nothing but the expected sequence moves the window.
    ///
    /// # Errors
    ///
    /// [`NetError::Duplicate`] for an authentic earlier record;
    /// [`NetError::RecordRejected`] for a later record, a truncated,
    /// corrupted or foreign one, or a forged sequence prefix.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, NetError> {
        let Some((prefix, boxed)) = record.split_first_chunk::<SEQ_LEN>() else {
            return Err(NetError::RecordRejected("record too short".into()));
        };
        let seq = u64::from_le_bytes(*prefix);
        let body = self
            .recv
            .open(seq, RECORD_LABEL, boxed)
            .map_err(|_| NetError::RecordRejected("record failed to authenticate".into()))?;
        match seq.cmp(&self.recv_seq) {
            Ordering::Equal => {
                self.recv_seq += 1;
                Ok(body)
            }
            Ordering::Less => Err(NetError::Duplicate(seq)),
            Ordering::Greater => Err(NetError::RecordRejected(format!(
                "sequence gap: expected {}, got {seq} (record lost)",
                self.recv_seq
            ))),
        }
    }

    /// [`SecureChannel::seal`] under its former name, with no logic of
    /// its own. perfbench's fleet probe still calls it; the next change
    /// to the benchmark moves that probe onto `seal` and deletes it.
    pub fn seal_numbered(&mut self, body: &[u8]) -> Vec<u8> {
        self.seal(body)
    }

    /// [`SecureChannel::open`] under its former name, with no logic of
    /// its own. perfbench's fleet probe still calls it; the next change
    /// to the benchmark moves that probe onto `open` and deletes it.
    ///
    /// # Errors
    ///
    /// As [`SecureChannel::open`].
    pub fn open_numbered(&mut self, record: &[u8]) -> Result<Vec<u8>, NetError> {
        self.open(record)
    }
}

/// A deterministic capped-doubling retransmission schedule on the
/// logical clock: attempt 0 fires immediately, attempt `i` fires
/// `min(base << (i-1), cap)` ticks after attempt `i-1`, for at most
/// `attempts` transmissions — optionally bounded by an absolute
/// logical-clock `deadline` (deadline-aware retry).
///
/// Delivery is link-acknowledged: the transport reports whether a copy
/// was handed to the destination inbox (not whether the application
/// accepted it), so [`send_with_backoff`] stops at the first delivered
/// copy and classifies full-schedule silence as a typed
/// [`NetError::Timeout`]. Surplus copies (a duplicating adversary) are
/// the receiver's [`NetError::Duplicate`] outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BackoffSchedule {
    /// Delay (logical ticks) between the first and second attempt.
    pub base: u64,
    /// Upper bound on the doubling delay.
    pub cap: u64,
    /// Maximum transmissions (≥ 1).
    pub attempts: u32,
    /// Absolute logical-clock deadline: an attempt whose fire time is
    /// past this point is not transmitted ([`NetError::Timeout`]).
    pub deadline: Option<u64>,
}

impl BackoffSchedule {
    /// A link-acknowledged capped-doubling schedule.
    #[must_use]
    pub fn capped(base: u64, cap: u64, attempts: u32) -> BackoffSchedule {
        BackoffSchedule {
            base,
            cap,
            attempts: attempts.max(1),
            deadline: None,
        }
    }

    /// Bounds the schedule by an absolute logical-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, at: u64) -> BackoffSchedule {
        self.deadline = Some(at);
        self
    }

    /// Delay before transmission `attempt` (0-based): 0 for the first,
    /// then `min(base << (attempt-1), cap)`.
    #[must_use]
    pub fn delay_before(&self, attempt: u32) -> u64 {
        if attempt == 0 || self.base == 0 {
            return 0;
        }
        let doubled = self
            .base
            .checked_shl(attempt - 1)
            .unwrap_or(self.cap.max(self.base));
        doubled.min(self.cap.max(self.base))
    }
}

/// Sends `record` on a deterministic [`BackoffSchedule`], advancing
/// `clock` by each inter-attempt delay, and stops at the first copy the
/// link delivers. Returns the number of transmissions performed.
///
/// The schedule — not wall-clock — decides every retransmission point,
/// so two identical runs retry at identical logical times.
///
/// # Errors
///
/// [`NetError::RetryExhausted`] carrying the attempt count and the
/// final classified cause: a [`NetError::Timeout`] when every scheduled
/// copy went undelivered or the deadline passed, or a hard send error
/// (e.g. [`NetError::UnknownAddr`]) which aborts the schedule at once.
pub fn send_with_backoff(
    net: &mut crate::sim::Network,
    from: &crate::Addr,
    to: &crate::Addr,
    record: &[u8],
    schedule: &BackoffSchedule,
    clock: &mut u64,
) -> Result<u32, NetError> {
    let mut attempts = 0u32;
    for attempt in 0..schedule.attempts.max(1) {
        let fire_at = clock.saturating_add(schedule.delay_before(attempt));
        if let Some(deadline) = schedule.deadline {
            if fire_at > deadline {
                return Err(NetError::RetryExhausted {
                    attempts,
                    last_err: Box::new(NetError::Timeout(format!(
                        "logical deadline {deadline} reached at tick {fire_at} \
                         after {attempts} transmission(s)"
                    ))),
                });
            }
        }
        *clock = fire_at;
        // The ack is the link layer's per-destination receipt: copies
        // that actually reached `to`'s inbox. A global delivered-count
        // delta would also move for redirected traffic (stolen by the
        // adversary) or unrelated deliveries — a false ack that makes
        // the sender stop retrying a record the destination never saw.
        let delivered = match net.send(from, to, record) {
            Ok(copies) => copies,
            Err(e) => {
                return Err(NetError::RetryExhausted {
                    attempts: attempts + 1,
                    last_err: Box::new(e),
                });
            }
        };
        attempts += 1;
        if delivered > 0 {
            return Ok(attempts);
        }
    }
    Err(NetError::RetryExhausted {
        attempts,
        last_err: Box::new(NetError::Timeout(format!(
            "no copy delivered within {attempts} transmission(s)"
        ))),
    })
}

fn transcript_digest(client_hello: &[u8], server_core: &[u8]) -> Digest {
    Digest::of_parts(&[b"lateral.channel.transcript", client_hello, server_core])
}

fn derive_channel(shared: &[u8; 32], client_side: bool) -> SecureChannel {
    let c2s = hkdf(b"lateral.channel", shared, b"c2s");
    let s2c = hkdf(b"lateral.channel", shared, b"s2c");
    if client_side {
        SecureChannel {
            send: Aead::new(&c2s),
            recv: Aead::new(&s2c),
            send_seq: 0,
            recv_seq: 0,
        }
    } else {
        SecureChannel {
            send: Aead::new(&s2c),
            recv: Aead::new(&c2s),
            send_seq: 0,
            recv_seq: 0,
        }
    }
}

// ---------------------------------------------------------------- client

/// Client-side handshake state after sending the hello.
///
/// ```
/// use lateral_crypto::{rng::Drbg, sign::SigningKey};
/// use lateral_net::channel::{ChannelPolicy, ClientHandshake, ServerHandshake};
///
/// # fn main() -> Result<(), lateral_net::NetError> {
/// let (mut crng, mut srng) = (Drbg::from_seed(b"c"), Drbg::from_seed(b"s"));
/// let (client, hello) = ClientHandshake::start(SigningKey::from_seed(b"client"), &mut crng);
/// let pending = ServerHandshake::accept(&SigningKey::from_seed(b"server"), &mut srng, &hello)?;
/// let (awaiting, server_hello) = pending.respond(None, &hello);
/// let (mut c, finish, _peer) = client.finish(&server_hello, &ChannelPolicy::open(), |_| None)?;
/// let (mut s, _info) = awaiting.complete(&finish, &ChannelPolicy::open())?;
/// let record = c.seal(b"hello over hostile wires");
/// assert_eq!(s.open(&record)?, b"hello over hostile wires");
/// # Ok(())
/// # }
/// ```
pub struct ClientHandshake {
    eph: EphemeralSecret,
    hello_bytes: Vec<u8>,
    identity: SigningKey,
}

impl std::fmt::Debug for ClientHandshake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ClientHandshake(..)")
    }
}

impl ClientHandshake {
    /// Starts a handshake; returns the state and the ClientHello bytes to
    /// send.
    pub fn start(identity: SigningKey, rng: &mut Drbg) -> (ClientHandshake, Vec<u8>) {
        let eph = EphemeralSecret::generate(rng);
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        let mut hello = Vec::new();
        put_field(&mut hello, &eph.public_share().0);
        put_field(&mut hello, &nonce);
        (
            ClientHandshake {
                eph,
                hello_bytes: hello.clone(),
                identity,
            },
            hello,
        )
    }

    /// Processes the ServerHello; on success returns the channel, the
    /// ClientFinish bytes to send, and the server's verified info.
    ///
    /// `client_evidence` is attached when the *client* must attest (the
    /// smart meter proving itself to the utility); it must be produced by
    /// calling the substrate with `report_data = transcript` — pass a
    /// producer closure so the binding is exact.
    ///
    /// # Errors
    ///
    /// [`NetError::HandshakeFailed`] / [`NetError::AttestationRejected`]
    /// on any verification failure.
    pub fn finish(
        self,
        server_hello: &[u8],
        policy: &ChannelPolicy,
        client_evidence: impl FnOnce(&Digest) -> Option<AttestationEvidence>,
    ) -> Result<(SecureChannel, Vec<u8>, PeerInfo), NetError> {
        let mut r = Reader::new(server_hello);
        let server_share: [u8; 32] = r.array()?;
        let server_nonce: [u8; 32] = r.array()?;
        let server_key: [u8; 32] = r.array()?;
        let signature: [u8; 64] = r.array()?;
        let evidence_bytes = r.field()?.to_vec();
        r.finish()?;

        let mut server_core = Vec::new();
        put_field(&mut server_core, &server_share);
        put_field(&mut server_core, &server_nonce);
        put_field(&mut server_core, &server_key);
        let transcript = transcript_digest(&self.hello_bytes, &server_core);

        // Verify the server's transcript signature.
        let vk = VerifyingKey::from_bytes(&server_key)
            .map_err(|e| NetError::HandshakeFailed(format!("bad server key: {e}")))?;
        let sig = Signature::from_bytes(&signature)
            .map_err(|e| NetError::HandshakeFailed(format!("bad signature: {e}")))?;
        vk.verify(transcript.as_bytes(), &sig)
            .map_err(|_| NetError::HandshakeFailed("server signature invalid".into()))?;

        // Policy checks: pinning + attestation.
        let evidence = if evidence_bytes.is_empty() {
            None
        } else {
            Some(decode_evidence(&evidence_bytes)?)
        };
        let attested = policy.check_peer(&server_key, evidence.as_ref(), &transcript)?;

        // Key agreement bound to the transcript.
        let shared = self
            .eph
            .agree(&PublicShare(server_share), transcript.as_bytes())
            .map_err(|e| NetError::HandshakeFailed(format!("bad server share: {e}")))?;
        let channel = derive_channel(&shared, true);

        // ClientFinish: our identity, transcript signature, and optional
        // channel-bound evidence.
        let finish_transcript =
            Digest::of_parts(&[b"lateral.channel.client-finish", transcript.as_bytes()]);
        let my_key = self.identity.verifying_key().to_bytes();
        let my_sig = self.identity.sign(finish_transcript.as_bytes()).to_bytes();
        let my_evidence = client_evidence(&transcript);
        let mut finish = Vec::new();
        put_field(&mut finish, &my_key);
        put_field(&mut finish, &my_sig);
        put_field(
            &mut finish,
            &my_evidence
                .as_ref()
                .map(encode_evidence)
                .unwrap_or_default(),
        );

        Ok((
            channel,
            finish,
            PeerInfo {
                key: server_key,
                attested,
            },
        ))
    }
}

// ---------------------------------------------------------------- server

/// Server-side state after reading the ClientHello; exposes the
/// transcript so the caller can produce channel-bound evidence.
pub struct ServerHandshake {
    eph: EphemeralSecret,
    transcript: Digest,
    server_core: Vec<u8>,
    signature: [u8; 64],
}

impl std::fmt::Debug for ServerHandshake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerHandshake({})", self.transcript.short_hex())
    }
}

impl ServerHandshake {
    /// Processes a ClientHello. Returns the pending state; call
    /// [`ServerHandshake::transcript`] to bind evidence, then
    /// [`ServerHandshake::respond`].
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on malformed hello.
    pub fn accept(
        identity: &SigningKey,
        rng: &mut Drbg,
        client_hello: &[u8],
    ) -> Result<ServerHandshake, NetError> {
        let mut r = Reader::new(client_hello);
        let _client_share: [u8; 32] = r.array()?;
        let _client_nonce: [u8; 32] = r.array()?;
        r.finish()?;

        let eph = EphemeralSecret::generate(rng);
        let mut server_nonce = [0u8; 32];
        rng.fill_bytes(&mut server_nonce);
        let mut server_core = Vec::new();
        put_field(&mut server_core, &eph.public_share().0);
        put_field(&mut server_core, &server_nonce);
        put_field(&mut server_core, &identity.verifying_key().to_bytes());
        let transcript = transcript_digest(client_hello, &server_core);
        let signature = identity.sign(transcript.as_bytes()).to_bytes();
        Ok(ServerHandshake {
            eph,
            transcript,
            server_core,
            signature,
        })
    }

    /// The transcript digest — produce attestation evidence with this as
    /// `report_data` to bind it to the channel.
    pub fn transcript(&self) -> Digest {
        self.transcript
    }

    /// Emits the ServerHello (optionally carrying evidence) and the state
    /// awaiting the ClientFinish.
    pub fn respond(
        self,
        evidence: Option<AttestationEvidence>,
        client_hello: &[u8],
    ) -> (ServerAwaitFinish, Vec<u8>) {
        let mut hello = self.server_core.clone();
        put_field(&mut hello, &self.signature);
        put_field(
            &mut hello,
            &evidence.as_ref().map(encode_evidence).unwrap_or_default(),
        );
        let client_share = {
            // Already validated in accept().
            let mut r = Reader::new(client_hello);
            let share: [u8; 32] = r.array().expect("validated in accept");
            share
        };
        (
            ServerAwaitFinish {
                eph: self.eph,
                transcript: self.transcript,
                client_share,
            },
            hello,
        )
    }
}

/// Server state awaiting the ClientFinish.
pub struct ServerAwaitFinish {
    eph: EphemeralSecret,
    transcript: Digest,
    client_share: [u8; 32],
}

impl std::fmt::Debug for ServerAwaitFinish {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerAwaitFinish({})", self.transcript.short_hex())
    }
}

impl ServerAwaitFinish {
    /// Verifies the ClientFinish and completes the channel.
    ///
    /// # Errors
    ///
    /// [`NetError::HandshakeFailed`] / [`NetError::AttestationRejected`].
    pub fn complete(
        self,
        finish: &[u8],
        policy: &ChannelPolicy,
    ) -> Result<(SecureChannel, PeerInfo), NetError> {
        let mut r = Reader::new(finish);
        let client_key: [u8; 32] = r.array()?;
        let client_sig: [u8; 64] = r.array()?;
        let evidence_bytes = r.field()?.to_vec();
        r.finish()?;

        let finish_transcript =
            Digest::of_parts(&[b"lateral.channel.client-finish", self.transcript.as_bytes()]);
        let vk = VerifyingKey::from_bytes(&client_key)
            .map_err(|e| NetError::HandshakeFailed(format!("bad client key: {e}")))?;
        let sig = Signature::from_bytes(&client_sig)
            .map_err(|e| NetError::HandshakeFailed(format!("bad signature: {e}")))?;
        vk.verify(finish_transcript.as_bytes(), &sig)
            .map_err(|_| NetError::HandshakeFailed("client signature invalid".into()))?;

        let evidence = if evidence_bytes.is_empty() {
            None
        } else {
            Some(decode_evidence(&evidence_bytes)?)
        };
        let attested = policy.check_peer(&client_key, evidence.as_ref(), &self.transcript)?;

        let shared = self
            .eph
            .agree(&PublicShare(self.client_share), self.transcript.as_bytes())
            .map_err(|e| NetError::HandshakeFailed(format!("bad client share: {e}")))?;
        Ok((
            derive_channel(&shared, false),
            PeerInfo {
                key: client_key,
                attested,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(label: &str) -> Drbg {
        Drbg::from_seed(label.as_bytes())
    }

    fn handshake(
        client_policy: &ChannelPolicy,
        server_policy: &ChannelPolicy,
        server_evidence: impl FnOnce(&Digest) -> Option<AttestationEvidence>,
    ) -> Result<(SecureChannel, SecureChannel, PeerInfo, PeerInfo), NetError> {
        let client_id = SigningKey::from_seed(b"client");
        let server_id = SigningKey::from_seed(b"server");
        let mut crng = rng("client rng");
        let mut srng = rng("server rng");
        let (cstate, hello) = ClientHandshake::start(client_id, &mut crng);
        let pending = ServerHandshake::accept(&server_id, &mut srng, &hello)?;
        let ev = server_evidence(&pending.transcript());
        let (awaiting, server_hello) = pending.respond(ev, &hello);
        let (cchan, finish, server_info) = cstate.finish(&server_hello, client_policy, |_| None)?;
        let (schan, client_info) = awaiting.complete(&finish, server_policy)?;
        Ok((cchan, schan, server_info, client_info))
    }

    #[test]
    fn full_handshake_and_records() {
        let (mut c, mut s, server_info, client_info) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        assert_eq!(
            server_info.key,
            SigningKey::from_seed(b"server").verifying_key().to_bytes()
        );
        assert_eq!(
            client_info.key,
            SigningKey::from_seed(b"client").verifying_key().to_bytes()
        );
        let rec = c.seal(b"GET INBOX");
        assert_eq!(s.open(&rec).unwrap(), b"GET INBOX");
        let reply = s.seal(b"42 messages");
        assert_eq!(c.open(&reply).unwrap(), b"42 messages");
    }

    #[test]
    fn replayed_record_rejected() {
        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let rec = c.seal(b"only once");
        s.open(&rec).unwrap();
        assert_eq!(s.open(&rec), Err(NetError::Duplicate(0)));
    }

    #[test]
    fn corrupted_record_rejected() {
        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let mut rec = c.seal(b"payload");
        rec[3] ^= 1;
        assert!(s.open(&rec).is_err());
    }

    #[test]
    fn reordered_records_rejected() {
        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let r1 = c.seal(b"first");
        let r2 = c.seal(b"second");
        assert!(s.open(&r2).is_err());
        let _ = r1;
    }

    #[test]
    fn key_pinning_detects_mitm() {
        // Mallory answers in the server's place with her own key.
        let client_id = SigningKey::from_seed(b"client");
        let mallory = SigningKey::from_seed(b"mallory");
        let real_server = SigningKey::from_seed(b"server");
        let mut crng = rng("c");
        let mut mrng = rng("m");
        let (cstate, hello) = ClientHandshake::start(client_id, &mut crng);
        let pending = ServerHandshake::accept(&mallory, &mut mrng, &hello).unwrap();
        let (_await, server_hello) = pending.respond(None, &hello);
        let policy = ChannelPolicy::pin(real_server.verifying_key());
        assert!(matches!(
            cstate.finish(&server_hello, &policy, |_| None),
            Err(NetError::HandshakeFailed(_))
        ));
    }

    #[test]
    fn tampered_server_hello_fails_signature() {
        let client_id = SigningKey::from_seed(b"client");
        let server_id = SigningKey::from_seed(b"server");
        let mut crng = rng("c");
        let mut srng = rng("s");
        let (cstate, hello) = ClientHandshake::start(client_id, &mut crng);
        let pending = ServerHandshake::accept(&server_id, &mut srng, &hello).unwrap();
        let (_await, mut server_hello) = pending.respond(None, &hello);
        server_hello[5] ^= 0x40; // tamper with the DH share
        assert!(cstate
            .finish(&server_hello, &ChannelPolicy::open(), |_| None)
            .is_err());
    }

    #[test]
    fn attested_channel_accepts_good_evidence() {
        let platform = SigningKey::from_seed(b"sgx platform");
        let good = Digest::of(b"anonymizer v1");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(good);
        let client_policy = ChannelPolicy::open().with_attestation(trust);
        let (mut c, mut s, server_info, _) =
            handshake(&client_policy, &ChannelPolicy::open(), |transcript| {
                Some(AttestationEvidence::sign(
                    "sgx",
                    &platform,
                    good,
                    Digest::ZERO,
                    transcript.as_bytes(),
                ))
            })
            .unwrap();
        let attested = server_info.attested.unwrap();
        assert_eq!(attested.measurement, good);
        let rec = c.seal(b"reading: 42 kWh");
        assert_eq!(s.open(&rec).unwrap(), b"reading: 42 kWh");
    }

    #[test]
    fn attested_channel_rejects_wrong_measurement() {
        let platform = SigningKey::from_seed(b"sgx platform");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(Digest::of(b"anonymizer v1"));
        let client_policy = ChannelPolicy::open().with_attestation(trust);
        let result = handshake(&client_policy, &ChannelPolicy::open(), |transcript| {
            Some(AttestationEvidence::sign(
                "sgx",
                &platform,
                Digest::of(b"manipulated anonymizer"),
                Digest::ZERO,
                transcript.as_bytes(),
            ))
        });
        assert!(matches!(result, Err(NetError::AttestationRejected(_))));
    }

    #[test]
    fn attested_channel_rejects_missing_evidence() {
        let platform = SigningKey::from_seed(b"sgx platform");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(Digest::of(b"anonymizer v1"));
        let client_policy = ChannelPolicy::open().with_attestation(trust);
        assert!(matches!(
            handshake(&client_policy, &ChannelPolicy::open(), |_| None),
            Err(NetError::AttestationRejected(_))
        ));
    }

    #[test]
    fn revoked_measurement_rejected_despite_valid_attestation() {
        // The trust policy *would* accept this evidence — platform
        // trusted, measurement expected — but the measurement is on the
        // revocation list, so the channel refuses it.
        let platform = SigningKey::from_seed(b"sgx platform");
        let good = Digest::of(b"anonymizer v1");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(good);
        let client_policy = ChannelPolicy::open()
            .with_attestation(trust)
            .with_revocations(vec![good.0]);
        let result = handshake(&client_policy, &ChannelPolicy::open(), |transcript| {
            Some(AttestationEvidence::sign(
                "sgx",
                &platform,
                good,
                Digest::ZERO,
                transcript.as_bytes(),
            ))
        });
        match result {
            Err(NetError::AttestationRejected(r)) => assert!(r.contains("revoked"), "{r}"),
            other => panic!("expected rejection, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn unrevoked_measurement_passes_revocation_check() {
        let platform = SigningKey::from_seed(b"sgx platform");
        let good = Digest::of(b"anonymizer v1");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(good);
        let client_policy = ChannelPolicy::open()
            .with_attestation(trust)
            .with_revocations(vec![Digest::of(b"some other build").0]);
        assert!(
            handshake(&client_policy, &ChannelPolicy::open(), |transcript| {
                Some(AttestationEvidence::sign(
                    "sgx",
                    &platform,
                    good,
                    Digest::ZERO,
                    transcript.as_bytes(),
                ))
            })
            .is_ok()
        );
    }

    #[test]
    fn relayed_evidence_from_other_channel_rejected() {
        // Evidence bound to a *different* transcript must not be accepted
        // — the emulation/proxy defense of §II-D.
        let platform = SigningKey::from_seed(b"sgx platform");
        let good = Digest::of(b"anonymizer v1");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(good);
        let client_policy = ChannelPolicy::open().with_attestation(trust);
        let stale = AttestationEvidence::sign(
            "sgx",
            &platform,
            good,
            Digest::ZERO,
            Digest::of(b"some other channel").as_bytes(),
        );
        let result = handshake(&client_policy, &ChannelPolicy::open(), move |_| {
            Some(stale.clone())
        });
        assert!(matches!(result, Err(NetError::AttestationRejected(_))));
    }

    #[test]
    fn evidence_encoding_roundtrip() {
        let platform = SigningKey::from_seed(b"p");
        let ev = AttestationEvidence::sign(
            "trustzone",
            &platform,
            Digest::of(b"m"),
            Digest::of(b"s"),
            b"bind",
        );
        let decoded = decode_evidence(&encode_evidence(&ev)).unwrap();
        assert_eq!(decoded, ev);
        assert!(decoded.verify_signature().is_ok());
    }

    #[test]
    fn substrate_evidence_propagates_unsupported_as_rejection() {
        use lateral_substrate::software::SoftwareSubstrate;
        use lateral_substrate::substrate::DomainSpec;
        use lateral_substrate::testkit::Echo;

        let mut sub = SoftwareSubstrate::new("net-evidence");
        let d = sub.spawn(DomainSpec::named("svc"), Box::new(Echo)).unwrap();
        // Pure software isolation has no trust anchor — the bridge must
        // surface that as an attestation rejection, not a panic.
        assert!(matches!(
            substrate_evidence(&mut sub, d, &Digest::of(b"transcript")),
            Err(NetError::AttestationRejected(_))
        ));
    }

    #[test]
    fn backoff_schedule_is_capped_doubling() {
        let s = BackoffSchedule::capped(2, 16, 8);
        let delays: Vec<u64> = (0..8).map(|i| s.delay_before(i)).collect();
        assert_eq!(delays, [0, 2, 4, 8, 16, 16, 16, 16]);
        // Attempt counts far past the doubling range stay capped
        // instead of overflowing the shift.
        assert_eq!(s.delay_before(200), 16);
    }

    #[test]
    fn backoff_stops_at_first_delivered_copy() {
        use crate::sim::{AttackMode, Network};
        use crate::Addr;

        let mut net = Network::new("backoff");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        net.register(a.clone());
        net.register(b.clone());
        net.set_attack(AttackMode::DropFirst(2));

        let mut clock = 100;
        let attempts = send_with_backoff(
            &mut net,
            &a,
            &b,
            b"r",
            &BackoffSchedule::capped(2, 16, 6),
            &mut clock,
        )
        .unwrap();
        // Two drops, then the third attempt lands and the sender stops:
        // exactly one copy reaches the inbox.
        assert_eq!(attempts, 3);
        assert_eq!(net.pending(&b), 1);
        assert_eq!(net.dropped(), 2);
        // The logical clock advanced by the deterministic schedule
        // (0 + 2 + 4 ticks of delay).
        assert_eq!(clock, 106);
    }

    #[test]
    fn backoff_classifies_silent_loss_as_timeout() {
        use crate::sim::{AttackMode, Network};
        use crate::Addr;

        let mut net = Network::new("backoff-loss");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        net.register(a.clone());
        net.register(b.clone());
        net.set_attack(AttackMode::DropAll);

        let mut clock = 0;
        let err = send_with_backoff(
            &mut net,
            &a,
            &b,
            b"r",
            &BackoffSchedule::capped(1, 8, 4),
            &mut clock,
        )
        .unwrap_err();
        match err {
            NetError::RetryExhausted { attempts, last_err } => {
                assert_eq!(attempts, 4);
                assert!(matches!(*last_err, NetError::Timeout(_)), "{last_err}");
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
        // All four transmissions were made and dropped.
        assert_eq!(net.dropped(), 4);
    }

    #[test]
    fn backoff_respects_the_logical_deadline() {
        use crate::sim::{AttackMode, Network};
        use crate::Addr;

        let mut net = Network::new("backoff-deadline");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        net.register(a.clone());
        net.register(b.clone());
        net.set_attack(AttackMode::DropAll);

        // Deadline admits attempts at ticks 0, 4, 12 but not 28.
        let mut clock = 0;
        let err = send_with_backoff(
            &mut net,
            &a,
            &b,
            b"r",
            &BackoffSchedule::capped(4, 64, 10).with_deadline(20),
            &mut clock,
        )
        .unwrap_err();
        match err {
            NetError::RetryExhausted { attempts, last_err } => {
                assert_eq!(attempts, 3, "only the pre-deadline attempts fire");
                assert!(
                    matches!(&*last_err, NetError::Timeout(r) if r.contains("deadline")),
                    "{last_err}"
                );
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
        assert_eq!(clock, 12, "the clock stops at the last transmitted attempt");
    }

    #[test]
    fn backoff_deadline_at_the_current_tick_admits_the_immediate_attempt() {
        // Off-by-one pin: attempt 0 has zero delay, so with a deadline
        // set at the *current* logical tick the immediate attempt fires
        // exactly at the deadline — that is legal and must not be
        // refused as a timeout.
        use crate::sim::Network;
        use crate::Addr;

        let mut net = Network::new("deadline-now");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        net.register(a.clone());
        net.register(b.clone());

        let mut clock = 42;
        let attempts = send_with_backoff(
            &mut net,
            &a,
            &b,
            b"r",
            &BackoffSchedule::capped(4, 16, 3).with_deadline(42),
            &mut clock,
        )
        .expect("an immediate attempt at the deadline tick is legal");
        assert_eq!(attempts, 1);
        assert_eq!(clock, 42, "the immediate attempt does not advance time");
        assert_eq!(net.pending(&b), 1);

        // One tick past, the same schedule refuses before transmitting.
        let mut late = 43;
        let err = send_with_backoff(
            &mut net,
            &a,
            &b,
            b"r",
            &BackoffSchedule::capped(4, 16, 3).with_deadline(42),
            &mut late,
        )
        .unwrap_err();
        match err {
            NetError::RetryExhausted { attempts, last_err } => {
                assert_eq!(attempts, 0, "nothing is transmitted past the deadline");
                assert!(matches!(*last_err, NetError::Timeout(_)));
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
    }

    #[test]
    fn backoff_ack_ignores_redirected_deliveries() {
        // Regression: the ack used to be a *global* delivered-count
        // delta, so a packet stolen by a Redirect adversary (delivered
        // to the attacker's inbox) read as a fresh ack and the sender
        // stopped retrying a record the victim never received. The
        // per-destination receipt classifies it as silence.
        use crate::sim::{AttackMode, Network};
        use crate::Addr;

        let mut net = Network::new("redirect-ack");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        let mallory = Addr::new("mallory");
        net.register(a.clone());
        net.register(b.clone());
        net.register(mallory.clone());
        net.set_attack(AttackMode::Redirect {
            victim: b.clone(),
            attacker: mallory.clone(),
        });

        let mut clock = 0;
        let err = send_with_backoff(
            &mut net,
            &a,
            &b,
            b"r",
            &BackoffSchedule::capped(1, 4, 3),
            &mut clock,
        )
        .unwrap_err();
        match err {
            NetError::RetryExhausted { attempts, last_err } => {
                assert_eq!(attempts, 3, "every scheduled attempt is spent");
                assert!(matches!(*last_err, NetError::Timeout(_)), "{last_err}");
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
        assert_eq!(net.pending(&b), 0, "the victim saw nothing");
        assert_eq!(net.pending(&mallory), 3, "the attacker hoarded every copy");
    }

    #[test]
    fn backoff_ack_counts_a_duplicate_burst_once() {
        // A DuplicateBurst adversary delivers 1 + n copies of the first
        // transmission. That is ONE fresh ack — the sender must stop
        // after a single attempt (not misread surplus copies as acks
        // for retransmissions it never made), and the receiver dedup
        // absorbs the burst.
        use crate::sim::{AttackMode, Network};
        use crate::Addr;

        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let mut net = Network::new("dup-ack");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        net.register(a.clone());
        net.register(b.clone());
        net.set_attack(AttackMode::DuplicateBurst(3));

        let mut clock = 0;
        let record = c.seal(b"reading: 42 kWh");
        let attempts = send_with_backoff(
            &mut net,
            &a,
            &b,
            &record,
            &BackoffSchedule::capped(1, 4, 5),
            &mut clock,
        )
        .unwrap();
        assert_eq!(attempts, 1, "one delivered transmission is one ack");
        assert_eq!(net.pending(&b), 4, "original + 3 burst copies in flight");

        let (mut fresh, mut dups) = (0, 0);
        while let Some(p) = net.recv(&b).unwrap() {
            match s.open(&p.payload) {
                Ok(plain) => {
                    assert_eq!(plain, b"reading: 42 kWh");
                    fresh += 1;
                }
                Err(NetError::Duplicate(_)) => dups += 1,
                Err(e) => panic!("burst copy rejected: {e}"),
            }
        }
        assert_eq!(fresh, 1, "the reading lands exactly once");
        assert_eq!(dups, 3, "every burst copy dedups");
    }

    #[test]
    fn from_shared_matches_on_both_sides() {
        let secret = [7u8; 32];
        let mut c = SecureChannel::from_shared(&secret, true);
        let mut s = SecureChannel::from_shared(&secret, false);
        let rec = c.seal(b"resumed traffic");
        assert_eq!(s.open(&rec).unwrap(), b"resumed traffic");
        let reply = s.seal(b"ack");
        assert_eq!(c.open(&reply).unwrap(), b"ack");
        // Orientation matters: two same-side channels cannot talk.
        let mut c2 = SecureChannel::from_shared(&secret, true);
        let rec = c.seal(b"x");
        assert!(c2.open(&rec).is_err());
    }

    #[test]
    fn backoff_aborts_on_hard_send_errors() {
        use crate::sim::Network;
        use crate::Addr;

        let mut net = Network::new("backoff-unknown");
        let a = Addr::new("meter");
        net.register(a.clone());
        let mut clock = 0;
        let err = send_with_backoff(
            &mut net,
            &a,
            &Addr::new("ghost"),
            b"r",
            &BackoffSchedule::capped(1, 4, 5),
            &mut clock,
        )
        .unwrap_err();
        match err {
            NetError::RetryExhausted { attempts, last_err } => {
                assert_eq!(attempts, 1, "a hard error aborts the schedule");
                assert!(matches!(*last_err, NetError::UnknownAddr(_)));
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
    }

    #[test]
    fn numbered_records_survive_steady_loss_with_backoff() {
        use crate::sim::{AttackMode, Network};
        use crate::Addr;

        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let mut net = Network::new("steady-loss");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        net.register(a.clone());
        net.register(b.clone());
        // Every third packet the adversary sees is swallowed.
        net.set_attack(AttackMode::DropEvery(3));

        let mut clock = 0;
        let mut delivered = Vec::new();
        for i in 0..20u32 {
            let record = c.seal(format!("reading {i}").as_bytes());
            send_with_backoff(
                &mut net,
                &a,
                &b,
                &record,
                &BackoffSchedule::capped(2, 16, 4),
                &mut clock,
            )
            .expect("steady loss is survivable within the schedule");
            while let Some(p) = net.recv(&b).unwrap() {
                // Decode path under loss: duplicates (none expected
                // here) dedup, in-order records decrypt.
                match s.open(&p.payload) {
                    Ok(plain) => delivered.push(String::from_utf8(plain).unwrap()),
                    Err(NetError::Duplicate(_)) => {}
                    Err(e) => panic!("record under steady loss rejected: {e}"),
                }
            }
        }
        assert_eq!(delivered.len(), 20, "every reading arrives exactly once");
        assert_eq!(delivered[0], "reading 0");
        assert_eq!(delivered[19], "reading 19");
        assert!(net.dropped() > 0, "the soak actually exercised loss");
    }

    #[test]
    fn numbered_records_absorb_duplicate_bursts() {
        use crate::sim::{AttackMode, Network};
        use crate::Addr;

        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let mut net = Network::new("dup-burst");
        let (a, b) = (Addr::new("meter"), Addr::new("utility"));
        net.register(a.clone());
        net.register(b.clone());
        net.set_attack(AttackMode::DuplicateBurst(2));

        let mut clock = 0;
        let mut unique = 0;
        let mut dups = 0;
        for i in 0..5u32 {
            let record = c.seal(format!("reading {i}").as_bytes());
            send_with_backoff(
                &mut net,
                &a,
                &b,
                &record,
                &BackoffSchedule::capped(1, 4, 2),
                &mut clock,
            )
            .unwrap();
            while let Some(p) = net.recv(&b).unwrap() {
                match s.open(&p.payload) {
                    Ok(_) => unique += 1,
                    Err(NetError::Duplicate(_)) => dups += 1,
                    Err(e) => panic!("burst copy rejected: {e}"),
                }
            }
        }
        assert_eq!(unique, 5, "each reading decodes exactly once");
        assert_eq!(dups, 10, "every burst copy is absorbed by dedup");
    }

    #[test]
    fn numbered_gap_is_rejected() {
        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let _lost_forever = c.seal(b"first");
        let second = c.seal(b"second");
        assert!(matches!(s.open(&second), Err(NetError::RecordRejected(_))));
    }

    #[test]
    fn numbered_forged_future_prefix_is_a_forgery_not_a_gap() {
        // Regression: the 8-byte sequence prefix is unauthenticated, so
        // an on-path attacker can splice a future sequence onto a real
        // record. That must be reported as an authentication failure —
        // not as a "sequence gap (record lost)", which would let the
        // attacker fabricate loss signals and desynchronize recovery
        // logic — and must leave the receive window untouched.
        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let record = c.seal(b"genuine reading");
        let mut forged = 7u64.to_le_bytes().to_vec();
        forged.extend_from_slice(&record[8..]);
        match s.open(&forged) {
            Err(NetError::RecordRejected(msg)) => {
                assert!(
                    msg.contains("authenticate"),
                    "forged prefix must fail authentication, got: {msg}"
                );
                assert!(
                    !msg.contains("gap"),
                    "forged prefix must not be classified as loss: {msg}"
                );
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // The untampered record still delivers: no state was burned.
        assert_eq!(s.open(&record).unwrap(), b"genuine reading");
    }

    #[test]
    fn numbered_forged_duplicate_rejected() {
        let (mut c, mut s, _, _) =
            handshake(&ChannelPolicy::open(), &ChannelPolicy::open(), |_| None).unwrap();
        let record = c.seal(b"real");
        assert!(s.open(&record).is_ok());
        // An attacker replays the old sequence number with altered
        // ciphertext — dedup must not mask the forgery.
        let mut forged = record.clone();
        let last = forged.len() - 1;
        forged[last] ^= 0x01;
        assert!(matches!(s.open(&forged), Err(NetError::RecordRejected(_))));
        // Truncated garbage is rejected, not panicked on.
        assert!(s.open(&record[..5]).is_err());
    }

    #[test]
    fn mutual_attestation_client_side() {
        // The smart-meter direction: the *client* attests to the server.
        let meter_platform = SigningKey::from_seed(b"tz meter");
        let meter_code = Digest::of(b"meter fw v1");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(meter_platform.verifying_key());
        trust.expect_measurement(meter_code);
        let server_policy = ChannelPolicy::open().with_attestation(trust);

        let client_id = SigningKey::from_seed(b"client");
        let server_id = SigningKey::from_seed(b"server");
        let mut crng = rng("c");
        let mut srng = rng("s");
        let (cstate, hello) = ClientHandshake::start(client_id, &mut crng);
        let pending = ServerHandshake::accept(&server_id, &mut srng, &hello).unwrap();
        let (awaiting, server_hello) = pending.respond(None, &hello);
        let (_cchan, finish, _info) = cstate
            .finish(&server_hello, &ChannelPolicy::open(), |transcript| {
                Some(AttestationEvidence::sign(
                    "trustzone",
                    &meter_platform,
                    meter_code,
                    Digest::ZERO,
                    transcript.as_bytes(),
                ))
            })
            .unwrap();
        let (_schan, client_info) = awaiting.complete(&finish, &server_policy).unwrap();
        assert_eq!(client_info.attested.unwrap().measurement, meter_code);
    }
}
