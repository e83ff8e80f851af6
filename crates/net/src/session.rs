//! The multiplexed session layer: record groups and resumption tickets.
//!
//! A [`crate::channel::SecureChannel`] is one ordered record pipe. The
//! session layer turns it into a carrier for **many in-flight requests**
//! (request ids travel *inside* the sealed record, so an on-path
//! adversary can neither read nor reorder the multiplexing) and lets a
//! client that already attested its peer **resume** without repeating
//! the attestation handshake:
//!
//! * [`RequestEntry`] / [`ReplyEntry`] groups — a batch of requests (or
//!   replies) sealed as ONE record. Each entry carries its own id and
//!   [`TraceContext`], so every multiplexed request still lands as a
//!   child span of its *own* caller; replies are sorted by id, making
//!   reply ordering deterministic regardless of serve order. Groups are
//!   the only place request ids and trace contexts travel: a lock-step
//!   call is a one-entry group. The codec writes fixed-width fields raw
//!   and length-prefixes only payloads, so a one-entry group with a
//!   24-byte payload is 58 bytes; it stays strict all the same (count
//!   guard, bounds-checked reads, trailing bytes refused).
//! * [`ResumptionTicket`] / [`TicketStore`] — a single-use ticket bound
//!   to the verified evidence digest and the [`SessionEpoch`] at mint
//!   time. Redemption proves possession of the ticket secret (HMAC over
//!   fresh nonces from both sides) and derives fresh channel keys; a
//!   changed epoch (revocation, trust, or re-grant) kills the ticket and
//!   forces the full attestation handshake.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use lateral_crypto::hmac::{hkdf, HmacSha256};
use lateral_crypto::rng::Drbg;
use lateral_telemetry::{TraceContext, CTX_ENCODED_LEN};

use crate::channel::SecureChannel;
use crate::wire::{put_field, Reader};
use crate::NetError;

/// Reply status: the request was served.
pub const STATUS_OK: u8 = 0;
/// Reply status: the serve failed; the payload is the error text.
pub const STATUS_ERR: u8 = 1;
/// Reply status: the request exceeded the server's in-flight window and
/// was refused without being served — the typed backpressure signal.
pub const STATUS_OVERLOADED: u8 = 2;

/// Decoder guard: a group claiming more entries than this is rejected
/// before any allocation is sized from attacker-controlled counts.
pub const MAX_GROUP: usize = 4096;

/// One request inside a sealed request group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestEntry {
    /// Client-assigned request id, unique within the session.
    pub id: u64,
    /// The *caller's* trace context — each request parents its serve
    /// span on its own submitter, not on the session opener.
    pub ctx: TraceContext,
    /// Opaque request payload.
    pub payload: Vec<u8>,
}

/// One reply inside a sealed reply group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyEntry {
    /// The request id this reply answers.
    pub id: u64,
    /// [`STATUS_OK`], [`STATUS_ERR`], or [`STATUS_OVERLOADED`].
    pub status: u8,
    /// Reply payload (error text for non-OK statuses).
    pub payload: Vec<u8>,
}

/// Request-group bytes per entry besides its payload: id, trace
/// context, payload length.
const REQUEST_ENTRY_FIXED: usize = 8 + CTX_ENCODED_LEN + 4;
/// Reply-group bytes per entry besides its payload: id, status,
/// payload length.
const REPLY_ENTRY_FIXED: usize = 8 + 1 + 4;

/// Reads a group's entry count, refusing one above [`MAX_GROUP`] before
/// anything is sized from it.
fn group_count(r: &mut Reader<'_>, what: &str) -> Result<usize, NetError> {
    let count = u32::from_le_bytes(r.fixed()?) as usize;
    if count > MAX_GROUP {
        return Err(NetError::Decode(format!(
            "{what} group claims {count} entries (max {MAX_GROUP})"
        )));
    }
    Ok(count)
}

/// Serializes a request group (seal the result with the channel):
/// `count:u32`, then per entry `id:u64 ‖ ctx:18 ‖ len:u32 ‖ payload`.
/// Fixed-width fields are written raw; only payloads carry a length.
pub fn encode_request_group(entries: &[RequestEntry]) -> Vec<u8> {
    let size = 4 + entries
        .iter()
        .map(|e| REQUEST_ENTRY_FIXED + e.payload.len())
        .sum::<usize>();
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.id.to_le_bytes());
        out.extend_from_slice(&e.ctx.encode());
        put_field(&mut out, &e.payload);
    }
    out
}

/// Parses a request group.
///
/// # Errors
///
/// [`NetError::Decode`] on malformed input, a count exceeding
/// [`MAX_GROUP`], or trailing bytes.
pub fn decode_request_group(bytes: &[u8]) -> Result<Vec<RequestEntry>, NetError> {
    let mut r = Reader::new(bytes);
    let count = group_count(&mut r, "request")?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let id = u64::from_le_bytes(r.fixed()?);
        let ctx = TraceContext::decode(&r.fixed::<CTX_ENCODED_LEN>()?)
            .map_err(|_| NetError::Decode("malformed trace context in request group".into()))?;
        let payload = r.field()?.to_vec();
        entries.push(RequestEntry { id, ctx, payload });
    }
    r.finish()?;
    Ok(entries)
}

/// Serializes a reply group (seal the result with the channel):
/// `count:u32`, then per entry `id:u64 ‖ status:u8 ‖ len:u32 ‖ payload`.
pub fn encode_reply_group(entries: &[ReplyEntry]) -> Vec<u8> {
    let size = 4 + entries
        .iter()
        .map(|e| REPLY_ENTRY_FIXED + e.payload.len())
        .sum::<usize>();
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.id.to_le_bytes());
        out.push(e.status);
        put_field(&mut out, &e.payload);
    }
    out
}

/// Parses a reply group.
///
/// # Errors
///
/// [`NetError::Decode`] on malformed input, an unknown status byte, a
/// count exceeding [`MAX_GROUP`], or trailing bytes.
pub fn decode_reply_group(bytes: &[u8]) -> Result<Vec<ReplyEntry>, NetError> {
    let mut r = Reader::new(bytes);
    let count = group_count(&mut r, "reply")?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let id = u64::from_le_bytes(r.fixed()?);
        let [status] = r.fixed()?;
        if status > STATUS_OVERLOADED {
            return Err(NetError::Decode(format!("unknown reply status {status}")));
        }
        let payload = r.field()?.to_vec();
        entries.push(ReplyEntry {
            id,
            status,
            payload,
        });
    }
    r.finish()?;
    Ok(entries)
}

/// The epoch a resumption ticket is valid within. Any component moving
/// — a revocation landing, the trust store changing, a supervisor
/// re-granting channels — invalidates every outstanding ticket and
/// forces the full attestation handshake again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionEpoch {
    /// Registry revocation epoch (monotone count of revocations).
    pub revocation: u64,
    /// Web-of-trust epoch (trust-store generation).
    pub trust: u64,
    /// Supervisor re-grant epoch (channel re-establishment generation).
    pub regrant: u64,
}

impl SessionEpoch {
    /// Encodes to the fixed 24-byte wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&self.revocation.to_le_bytes());
        out.extend_from_slice(&self.trust.to_le_bytes());
        out.extend_from_slice(&self.regrant.to_le_bytes());
        out
    }

    /// Decodes the fixed 24-byte wire form.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on any length mismatch.
    pub fn decode(bytes: &[u8]) -> Result<SessionEpoch, NetError> {
        if bytes.len() != 24 {
            return Err(NetError::Decode(format!(
                "session epoch must be 24 bytes, got {}",
                bytes.len()
            )));
        }
        Ok(SessionEpoch {
            revocation: u64::from_le_bytes(bytes[..8].try_into().expect("length checked")),
            trust: u64::from_le_bytes(bytes[8..16].try_into().expect("length checked")),
            regrant: u64::from_le_bytes(bytes[16..24].try_into().expect("length checked")),
        })
    }
}

/// A single-use resumption ticket, held by the client. The server seals
/// it over the established channel at connect time, so the `secret`
/// never crosses the wire in the clear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumptionTicket {
    /// Public lookup id (sent in the clear at redemption).
    pub id: [u8; 16],
    /// The shared ticket secret — never sent at redemption; possession
    /// is proven by HMAC.
    pub secret: [u8; 32],
    /// Digest of the attestation evidence verified at mint time — the
    /// trust artifact the resumed session inherits.
    pub evidence: [u8; 32],
    /// Epoch the ticket was minted in; redemption in any other epoch is
    /// refused.
    pub epoch: SessionEpoch,
}

impl ResumptionTicket {
    /// Serializes the ticket (seal before sending!).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_field(&mut out, &self.id);
        put_field(&mut out, &self.secret);
        put_field(&mut out, &self.evidence);
        put_field(&mut out, &self.epoch.encode());
        out
    }

    /// Parses a ticket.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on malformed input or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ResumptionTicket, NetError> {
        let mut r = Reader::new(bytes);
        let id = r.array()?;
        let secret = r.array()?;
        let evidence = r.array()?;
        let epoch = SessionEpoch::decode(r.field()?)?;
        r.finish()?;
        Ok(ResumptionTicket {
            id,
            secret,
            evidence,
            epoch,
        })
    }
}

fn hello_proof(secret: &[u8; 32], id: &[u8; 16], nonce: &[u8; 32]) -> [u8; 32] {
    let mut mac = HmacSha256::new(secret);
    mac.update(b"lateral.session.resume.hello");
    mac.update(id);
    mac.update(nonce);
    mac.finalize()
}

fn accept_proof(secret: &[u8; 32], client_nonce: &[u8; 32], server_nonce: &[u8; 32]) -> [u8; 32] {
    let mut mac = HmacSha256::new(secret);
    mac.update(b"lateral.session.resume.accept");
    mac.update(client_nonce);
    mac.update(server_nonce);
    mac.finalize()
}

fn master_secret(secret: &[u8; 32], client_nonce: &[u8; 32], server_nonce: &[u8; 32]) -> [u8; 32] {
    let mut ikm = Vec::with_capacity(96);
    ikm.extend_from_slice(secret);
    ikm.extend_from_slice(client_nonce);
    ikm.extend_from_slice(server_nonce);
    hkdf(b"lateral.session.resume", &ikm, b"master")
}

/// The client's redemption message: ticket id in the clear, a fresh
/// nonce, and an HMAC proof of secret possession. The secret itself
/// never travels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeHello {
    /// Which ticket is being redeemed.
    pub ticket_id: [u8; 16],
    /// Client freshness nonce (feeds the new channel keys).
    pub nonce: [u8; 32],
    /// `HMAC(secret, "…resume.hello" ‖ id ‖ nonce)`.
    pub proof: [u8; 32],
}

impl ResumeHello {
    /// Builds a redemption hello for `ticket` with a fresh nonce.
    pub fn new(ticket: &ResumptionTicket, rng: &mut Drbg) -> ResumeHello {
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        ResumeHello {
            ticket_id: ticket.id,
            nonce,
            proof: hello_proof(&ticket.secret, &ticket.id, &nonce),
        }
    }

    /// Serializes the hello.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_field(&mut out, &self.ticket_id);
        put_field(&mut out, &self.nonce);
        put_field(&mut out, &self.proof);
        out
    }

    /// Parses a hello.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on malformed input or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ResumeHello, NetError> {
        let mut r = Reader::new(bytes);
        let ticket_id = r.array()?;
        let nonce = r.array()?;
        let proof = r.array()?;
        r.finish()?;
        Ok(ResumeHello {
            ticket_id,
            nonce,
            proof,
        })
    }
}

/// The server's acceptance: its own nonce plus an HMAC proof computed
/// over both nonces — mutual confirmation that both sides hold the same
/// ticket secret before any record flows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeAccept {
    /// Server freshness nonce.
    pub nonce: [u8; 32],
    /// `HMAC(secret, "…resume.accept" ‖ client_nonce ‖ server_nonce)`.
    pub proof: [u8; 32],
}

impl ResumeAccept {
    /// Serializes the acceptance.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_field(&mut out, &self.nonce);
        put_field(&mut out, &self.proof);
        out
    }

    /// Parses an acceptance.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] on malformed input or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ResumeAccept, NetError> {
        let mut r = Reader::new(bytes);
        let nonce = r.array()?;
        let proof = r.array()?;
        r.finish()?;
        Ok(ResumeAccept { nonce, proof })
    }
}

/// Completes resumption on the client: verifies the server's acceptance
/// proof and derives the client-side channel from the fresh nonces.
///
/// # Errors
///
/// [`NetError::HandshakeFailed`] when the proof does not verify —
/// whoever answered does not hold the ticket secret.
pub fn complete_resume(
    ticket: &ResumptionTicket,
    hello: &ResumeHello,
    accept: &ResumeAccept,
) -> Result<SecureChannel, NetError> {
    let expected = accept_proof(&ticket.secret, &hello.nonce, &accept.nonce);
    if expected != accept.proof {
        return Err(NetError::HandshakeFailed(
            "resume acceptance proof invalid (peer lacks the ticket secret)".into(),
        ));
    }
    let master = master_secret(&ticket.secret, &hello.nonce, &accept.nonce);
    Ok(SecureChannel::from_shared(&master, true))
}

struct StoredTicket {
    secret: [u8; 32],
    peer_key: [u8; 32],
    evidence: [u8; 32],
    epoch: SessionEpoch,
}

/// A successful server-side redemption.
pub struct Redeemed {
    /// The server-side channel for the resumed session.
    pub channel: SecureChannel,
    /// Acceptance to send back to the client (in the clear — it leaks
    /// nothing and the client verifies its HMAC).
    pub accept: ResumeAccept,
    /// Identity key of the peer that attested at mint time.
    pub peer_key: [u8; 32],
    /// Evidence digest the original attestation verified to.
    pub evidence: [u8; 32],
}

/// Server-side store of outstanding single-use resumption tickets.
pub struct TicketStore {
    tickets: BTreeMap<[u8; 16], StoredTicket>,
    capacity: usize,
}

impl std::fmt::Debug for TicketStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TicketStore({}/{} tickets)",
            self.tickets.len(),
            self.capacity
        )
    }
}

impl TicketStore {
    /// Creates a store holding at most `capacity` outstanding tickets.
    pub fn new(capacity: usize) -> TicketStore {
        TicketStore {
            tickets: BTreeMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// Outstanding ticket count.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Whether no tickets are outstanding.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Mints a fresh ticket for a peer whose attestation verified to
    /// `evidence` in `epoch`. At capacity, the oldest ticket (smallest
    /// id) is evicted — its holder simply falls back to the full
    /// handshake.
    pub fn mint(
        &mut self,
        rng: &mut Drbg,
        peer_key: [u8; 32],
        evidence: [u8; 32],
        epoch: SessionEpoch,
    ) -> ResumptionTicket {
        let mut id = [0u8; 16];
        rng.fill_bytes(&mut id);
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        while self.tickets.len() >= self.capacity {
            self.tickets.pop_first();
        }
        self.tickets.insert(
            id,
            StoredTicket {
                secret,
                peer_key,
                evidence,
                epoch,
            },
        );
        ResumptionTicket {
            id,
            secret,
            evidence,
            epoch,
        }
    }

    /// Redeems a ticket: verifies the possession proof, enforces the
    /// epoch, burns the ticket (single-use), and derives the server-side
    /// channel. An invalid proof does NOT burn the ticket — otherwise an
    /// on-path adversary who recorded the (cleartext) ticket id could
    /// spend the legitimate holder's ticket with garbage proofs.
    ///
    /// # Errors
    ///
    /// [`NetError::HandshakeFailed`] for unknown tickets or bad proofs;
    /// [`NetError::AttestationRejected`] when the epoch moved since mint
    /// — the caller must fall back to the full attestation handshake.
    pub fn redeem(
        &mut self,
        hello: &ResumeHello,
        current: &SessionEpoch,
        rng: &mut Drbg,
    ) -> Result<Redeemed, NetError> {
        let Entry::Occupied(entry) = self.tickets.entry(hello.ticket_id) else {
            return Err(NetError::HandshakeFailed(
                "unknown or already-spent resumption ticket".into(),
            ));
        };
        let expected = hello_proof(&entry.get().secret, &hello.ticket_id, &hello.nonce);
        if expected != hello.proof {
            return Err(NetError::HandshakeFailed(
                "resume hello proof invalid (sender lacks the ticket secret)".into(),
            ));
        }
        // Proof verified: the legitimate holder is redeeming. Burn the
        // ticket now, whatever the epoch says — it is single-use.
        let stored = entry.remove();
        if stored.epoch != *current {
            return Err(NetError::AttestationRejected(format!(
                "session epoch moved since ticket mint \
                 (rev {}→{}, trust {}→{}, regrant {}→{}): re-attestation required",
                stored.epoch.revocation,
                current.revocation,
                stored.epoch.trust,
                current.trust,
                stored.epoch.regrant,
                current.regrant,
            )));
        }
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        let proof = accept_proof(&stored.secret, &hello.nonce, &nonce);
        let master = master_secret(&stored.secret, &hello.nonce, &nonce);
        Ok(Redeemed {
            channel: SecureChannel::from_shared(&master, false),
            accept: ResumeAccept { nonce, proof },
            peer_key: stored.peer_key,
            evidence: stored.evidence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_telemetry::SpanId;

    fn ctx(trace: u64, parent: u64) -> TraceContext {
        TraceContext {
            trace_id: trace,
            parent: SpanId(parent),
        }
    }

    fn epoch(r: u64, t: u64, g: u64) -> SessionEpoch {
        SessionEpoch {
            revocation: r,
            trust: t,
            regrant: g,
        }
    }

    #[test]
    fn request_group_roundtrip() {
        let entries = vec![
            RequestEntry {
                id: 1,
                ctx: ctx(7, 3),
                payload: b"alpha".to_vec(),
            },
            RequestEntry {
                id: 2,
                ctx: ctx(7, 9),
                payload: Vec::new(),
            },
        ];
        let bytes = encode_request_group(&entries);
        assert_eq!(decode_request_group(&bytes).unwrap(), entries);
        // Empty groups are legal (a flush with nothing pending).
        assert!(decode_request_group(&encode_request_group(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn reply_group_roundtrip_and_status_guard() {
        let entries = vec![
            ReplyEntry {
                id: 1,
                status: STATUS_OK,
                payload: b"done".to_vec(),
            },
            ReplyEntry {
                id: 2,
                status: STATUS_OVERLOADED,
                payload: b"window full".to_vec(),
            },
        ];
        let bytes = encode_reply_group(&entries);
        assert_eq!(decode_reply_group(&bytes).unwrap(), entries);

        let bad = encode_reply_group(&[ReplyEntry {
            id: 9,
            status: 3,
            payload: Vec::new(),
        }]);
        assert!(matches!(decode_reply_group(&bad), Err(NetError::Decode(_))));
    }

    #[test]
    fn group_decoders_reject_trailing_bytes() {
        let mut bytes = encode_request_group(&[RequestEntry {
            id: 1,
            ctx: ctx(2, 0),
            payload: b"x".to_vec(),
        }]);
        bytes.push(0);
        assert!(decode_request_group(&bytes).is_err());

        let mut reply = encode_reply_group(&[ReplyEntry {
            id: 1,
            status: STATUS_OK,
            payload: Vec::new(),
        }]);
        reply.push(0xFF);
        assert!(decode_reply_group(&reply).is_err());
    }

    #[test]
    fn groups_write_fixed_width_fields_raw() {
        // count 4 + id 8 + context 18 + length 4 + payload 24 = 58:
        // the ciphertext fits one 64-byte ChaCha20 block.
        let one = encode_request_group(&[RequestEntry {
            id: 1,
            ctx: ctx(7, 3),
            payload: vec![0xAB; 24],
        }]);
        assert_eq!(one.len(), 58);
        let reply = encode_reply_group(&[ReplyEntry {
            id: 1,
            status: STATUS_OK,
            payload: vec![0xCD; 8],
        }]);
        assert_eq!(reply.len(), 4 + 8 + 1 + 4 + 8);
        // A raw count above the guard is refused before anything is
        // sized from it.
        for count in [MAX_GROUP as u32 + 1, u32::MAX] {
            let bytes = count.to_le_bytes();
            for result in [
                decode_request_group(&bytes).map(drop),
                decode_reply_group(&bytes).map(drop),
            ] {
                assert!(
                    matches!(&result, Err(NetError::Decode(m)) if m.contains("max")),
                    "{result:?}"
                );
            }
        }
    }

    #[test]
    fn ticket_and_hello_codecs_are_strict() {
        let t = ResumptionTicket {
            id: [1; 16],
            secret: [2; 32],
            evidence: [3; 32],
            epoch: epoch(4, 5, 6),
        };
        assert_eq!(ResumptionTicket::decode(&t.encode()).unwrap(), t);
        let mut bytes = t.encode();
        bytes.push(0);
        assert!(ResumptionTicket::decode(&bytes).is_err());

        let mut rng = Drbg::from_seed(b"hello codec");
        let h = ResumeHello::new(&t, &mut rng);
        assert_eq!(ResumeHello::decode(&h.encode()).unwrap(), h);
        let mut bytes = h.encode();
        bytes.push(0);
        assert!(ResumeHello::decode(&bytes).is_err());

        let a = ResumeAccept {
            nonce: [7; 32],
            proof: [8; 32],
        };
        assert_eq!(ResumeAccept::decode(&a.encode()).unwrap(), a);
        let mut bytes = a.encode();
        bytes.push(0);
        assert!(ResumeAccept::decode(&bytes).is_err());
    }

    #[test]
    fn redeem_derives_matching_channels() {
        let mut server_rng = Drbg::from_seed(b"server");
        let mut client_rng = Drbg::from_seed(b"client");
        let mut store = TicketStore::new(8);
        let e = epoch(1, 2, 3);
        let ticket = store.mint(&mut server_rng, [9; 32], [5; 32], e);

        let hello = ResumeHello::new(&ticket, &mut client_rng);
        let mut redeemed = store.redeem(&hello, &e, &mut server_rng).unwrap();
        assert_eq!(redeemed.peer_key, [9; 32]);
        assert_eq!(redeemed.evidence, [5; 32]);

        let mut client = complete_resume(&ticket, &hello, &redeemed.accept).unwrap();
        let rec = client.seal(b"resumed request");
        assert_eq!(redeemed.channel.open(&rec).unwrap(), b"resumed request");
        let reply = redeemed.channel.seal(b"resumed reply");
        assert_eq!(client.open(&reply).unwrap(), b"resumed reply");
    }

    #[test]
    fn tickets_are_single_use() {
        let mut rng = Drbg::from_seed(b"single use");
        let mut store = TicketStore::new(8);
        let e = epoch(0, 0, 0);
        let ticket = store.mint(&mut rng, [1; 32], [2; 32], e);
        let hello = ResumeHello::new(&ticket, &mut rng.clone());
        store.redeem(&hello, &e, &mut rng).unwrap();
        assert!(matches!(
            store.redeem(&hello, &e, &mut rng),
            Err(NetError::HandshakeFailed(_))
        ));
    }

    #[test]
    fn epoch_change_burns_the_ticket_and_forces_reattest() {
        let mut rng = Drbg::from_seed(b"epoch");
        let mut store = TicketStore::new(8);
        let minted = epoch(1, 1, 1);
        let ticket = store.mint(&mut rng, [1; 32], [2; 32], minted);
        let hello = ResumeHello::new(&ticket, &mut rng.clone());
        // A revocation landed since mint.
        let moved = epoch(2, 1, 1);
        assert!(matches!(
            store.redeem(&hello, &moved, &mut rng),
            Err(NetError::AttestationRejected(_))
        ));
        // Burned: even the original epoch cannot redeem it any more.
        assert!(store.is_empty());
    }

    #[test]
    fn bad_proof_is_rejected_without_burning_the_ticket() {
        let mut rng = Drbg::from_seed(b"proof");
        let mut store = TicketStore::new(8);
        let e = epoch(0, 0, 0);
        let ticket = store.mint(&mut rng, [1; 32], [2; 32], e);
        // An adversary recorded the cleartext ticket id but lacks the
        // secret (it only ever traveled sealed).
        let forged = ResumeHello {
            ticket_id: ticket.id,
            nonce: [0xAA; 32],
            proof: [0xBB; 32],
        };
        assert!(matches!(
            store.redeem(&forged, &e, &mut rng),
            Err(NetError::HandshakeFailed(_))
        ));
        assert_eq!(store.len(), 1, "the legitimate holder's ticket survives");
        // The legitimate redemption still works afterwards.
        let hello = ResumeHello::new(&ticket, &mut rng.clone());
        assert!(store.redeem(&hello, &e, &mut rng).is_ok());
    }

    #[test]
    fn forged_accept_is_rejected_by_the_client() {
        let mut rng = Drbg::from_seed(b"accept");
        let ticket = ResumptionTicket {
            id: [1; 16],
            secret: [2; 32],
            evidence: [3; 32],
            epoch: epoch(0, 0, 0),
        };
        let hello = ResumeHello::new(&ticket, &mut rng);
        let forged = ResumeAccept {
            nonce: [4; 32],
            proof: [5; 32],
        };
        assert!(matches!(
            complete_resume(&ticket, &hello, &forged),
            Err(NetError::HandshakeFailed(_))
        ));
    }

    #[test]
    fn store_capacity_evicts_rather_than_grows() {
        let mut rng = Drbg::from_seed(b"capacity");
        let mut store = TicketStore::new(2);
        let e = epoch(0, 0, 0);
        for _ in 0..5 {
            store.mint(&mut rng, [1; 32], [2; 32], e);
        }
        assert_eq!(store.len(), 2);
    }
}
