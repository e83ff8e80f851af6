//! Cross-machine composition: exporting assembly components over the
//! network behind attested secure channels.
//!
//! §III-C: *"By using trust anchors provided by the hardware, our
//! envisioned architecture also extends across the network, allowing
//! trusted component interaction in distributed systems."* This module
//! generalizes the smart-meter pattern into reusable infrastructure:
//!
//! * a [`RemoteServer`] exports one component of an [`Assembly`] at a
//!   network address; every inbound invocation arrives through a secure
//!   channel whose handshake carried **channel-bound attestation
//!   evidence** for the exported component (produced by whatever
//!   substrate it runs on);
//! * a [`RemoteClient`] connects, verifies the evidence against its
//!   [`ChannelPolicy`], optionally attests its *own* local component in
//!   return (mutual attestation), and then issues request/reply calls
//!   that look just like local channel invocations;
//! * both sides only ever exchange bytes through the adversarial
//!   [`Network`], so every man-in-the-middle, relay, and replay test of
//!   `lateral-net` applies unchanged.
//!
//! Requests take one path. [`RemoteClient::submit`] queues a request
//! with its id and the caller's trace context, [`RemoteClient::flush`]
//! seals the queue as one request group, and
//! [`RemoteClient::poll_group_replies`] opens the reply group. A
//! lock-step call ([`call`]) is that path with one request in flight:
//! window 1. A reply whose id is not in flight is refused.
//!
//! The driving style is explicitly two-sided — the caller pumps the
//! server between client steps — so experiments can interpose the
//! network adversary at any point.

use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_net::channel::{
    encode_evidence, ChannelPolicy, ClientHandshake, PeerInfo, SecureChannel, ServerAwaitFinish,
    ServerHandshake,
};
use lateral_net::session::{
    decode_reply_group, decode_request_group, encode_reply_group, encode_request_group, ReplyEntry,
    RequestEntry, ResumeAccept, ResumeHello, ResumptionTicket, SessionEpoch, TicketStore,
    STATUS_ERR, STATUS_OK, STATUS_OVERLOADED,
};
use lateral_net::sim::Network;
use lateral_net::wire::{put_field, Reader};
use lateral_net::Addr;
use lateral_registry::Registry;
use lateral_substrate::cap::Badge;
use lateral_telemetry::{outcome as span_outcome, SpanId, Telemetry, TraceContext};

use crate::composer::Assembly;
use crate::CoreError;

const MSG_HELLO: u8 = 0;
const MSG_SERVER_HELLO: u8 = 1;
const MSG_FINISH: u8 = 2;
const MSG_REPLY: u8 = 4;
const MSG_ERROR: u8 = 5;
const MSG_REQ_GROUP: u8 = 6;
const MSG_REPLY_GROUP: u8 = 7;
const MSG_RESUME: u8 = 8;
const MSG_RESUME_OK: u8 = 9;
const MSG_RESUME_REJECT: u8 = 10;

/// Default bound on in-flight multiplexed requests per session, both
/// client-side (submission refusal) and server-side (typed
/// `Overloaded` replies for over-window entries).
pub const DEFAULT_WINDOW: usize = 32;

/// Assembles the [`SessionEpoch`] a resumption ticket must match: the
/// registry's revocation and trust epochs plus the assembly's re-grant
/// epoch. Any of the three moving forces a fresh attestation handshake.
pub fn current_session_epoch(registry: &Registry, assembly: &Assembly) -> SessionEpoch {
    SessionEpoch {
        revocation: registry.revocation_epoch(),
        trust: registry.wot_epoch(),
        regrant: assembly.regrant_epoch(),
    }
}

fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(kind);
    out.extend_from_slice(body);
    out
}

fn unframe(packet: &[u8]) -> Result<(u8, &[u8]), CoreError> {
    packet
        .split_first()
        .map(|(k, body)| (*k, body))
        .ok_or_else(|| CoreError::Substrate("empty packet".into()))
}

/// What a server exports.
pub struct ServiceExport {
    /// Assembly component that receives remote invocations.
    pub component: String,
    /// Badge remote clients carry when invoking the component.
    pub badge: Badge,
    /// The server's channel identity key.
    pub identity: SigningKey,
    /// Requirements on connecting clients (pinning / attestation).
    pub client_policy: ChannelPolicy,
    /// Attach channel-bound attestation evidence for `component` to the
    /// handshake (requires the component's substrate to support it).
    pub attest: bool,
}

impl std::fmt::Debug for ServiceExport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServiceExport({})", self.component)
    }
}

enum ServerSession {
    /// Awaiting the ClientFinish; carries the digest of the evidence
    /// the server attached to its hello (zero when not attesting) so
    /// the resumption ticket minted at FINISH is bound to it.
    AwaitingFinish(ServerAwaitFinish, [u8; 32]),
    Established(Box<SecureChannel>, PeerInfo),
}

/// The server side of one exported service.
pub struct RemoteServer {
    addr: Addr,
    export: ServiceExport,
    sessions: std::collections::BTreeMap<Addr, ServerSession>,
    rng: Drbg,
    telemetry: Telemetry,
    tickets: TicketStore,
    epoch: SessionEpoch,
    window: usize,
}

impl std::fmt::Debug for RemoteServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RemoteServer({} at {}, {} sessions)",
            self.export.component,
            self.addr,
            self.sessions.len()
        )
    }
}

impl RemoteServer {
    /// Creates a server for `export`, registering `addr` on `net`.
    pub fn bind(net: &mut Network, addr: Addr, export: ServiceExport) -> RemoteServer {
        net.register(addr.clone());
        let rng = Drbg::from_seed(&[b"lateral.remote.server.", addr.0.as_bytes()].concat());
        RemoteServer {
            addr,
            export,
            sessions: std::collections::BTreeMap::new(),
            rng,
            telemetry: Telemetry::new(),
            tickets: TicketStore::new(64),
            epoch: SessionEpoch {
                revocation: 0,
                trust: 0,
                regrant: 0,
            },
            window: DEFAULT_WINDOW,
        }
    }

    /// The bound address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Installs the session epoch resumption tickets are minted in and
    /// validated against (see [`current_session_epoch`]). Moving the
    /// epoch invalidates every outstanding ticket at redemption time.
    pub fn set_epoch(&mut self, epoch: SessionEpoch) {
        self.epoch = epoch;
    }

    /// The session epoch currently in force.
    pub fn epoch(&self) -> SessionEpoch {
        self.epoch
    }

    /// Bounds the per-group in-flight window: request-group entries
    /// beyond it are answered [`STATUS_OVERLOADED`] instead of served.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// The server's telemetry: accept/serve spans (serve spans adopt
    /// the caller's propagated trace) and remote-layer metrics.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The server's telemetry, writable.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// The verified identity of an established client, if any.
    pub fn peer(&self, client: &Addr) -> Option<&PeerInfo> {
        match self.sessions.get(client) {
            Some(ServerSession::Established(_, info)) => Some(info),
            _ => None,
        }
    }

    /// Processes every pending inbound packet, advancing handshakes and
    /// serving requests against `assembly`. Returns the number of
    /// packets handled.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (unknown own address) error; per
    /// -session protocol failures tear down that session and answer the
    /// peer with an error frame, as a real server would.
    pub fn pump(&mut self, net: &mut Network, assembly: &mut Assembly) -> Result<usize, CoreError> {
        let mut handled = 0;
        while let Some(packet) = net
            .recv(&self.addr)
            .map_err(|e| CoreError::Substrate(e.to_string()))?
        {
            handled += 1;
            let reply = self.handle(&packet.from, &packet.payload, assembly);
            let (kind, body) = match reply {
                Ok((kind, body)) => (kind, body),
                Err(e) => {
                    self.sessions.remove(&packet.from);
                    (MSG_ERROR, e.to_string().into_bytes())
                }
            };
            // Losing the reply is the adversary's prerogative.
            let _ = net.send(&self.addr, &packet.from, &frame(kind, &body));
        }
        Ok(handled)
    }

    fn handle(
        &mut self,
        from: &Addr,
        payload: &[u8],
        assembly: &mut Assembly,
    ) -> Result<(u8, Vec<u8>), CoreError> {
        let (kind, body) = unframe(payload)?;
        match kind {
            MSG_HELLO => {
                let at = self.telemetry.tick();
                let accept = self
                    .telemetry
                    .begin_span(&format!("accept {from}"), "remote", at);
                let pending =
                    match ServerHandshake::accept(&self.export.identity, &mut self.rng, body) {
                        Ok(p) => p,
                        Err(e) => {
                            let at = self.telemetry.tick();
                            self.telemetry.end_span(accept, at, span_outcome::FAILED);
                            return Err(CoreError::Substrate(format!("accept: {e}")));
                        }
                    };
                let evidence = if self.export.attest {
                    let at = self.telemetry.tick();
                    let span = self.telemetry.begin_span("attest.evidence", "remote", at);
                    let ev =
                        assembly.attest(&self.export.component, pending.transcript().as_bytes());
                    let at = self.telemetry.tick();
                    match ev {
                        Ok(ev) => {
                            self.telemetry.end_span(span, at, span_outcome::OK);
                            self.telemetry.metrics_mut().incr("remote.attestations", 1);
                            Some(ev)
                        }
                        Err(e) => {
                            self.telemetry.end_span(span, at, span_outcome::FAILED);
                            let at = self.telemetry.tick();
                            self.telemetry.end_span(accept, at, span_outcome::FAILED);
                            return Err(e);
                        }
                    }
                } else {
                    None
                };
                // The ticket minted at FINISH is bound to this evidence:
                // a resumed session inherits exactly the trust artifact
                // the original handshake established.
                let evidence_digest = evidence
                    .as_ref()
                    .map(|ev| Digest::of(&encode_evidence(ev)).0)
                    .unwrap_or([0u8; 32]);
                let (awaiting, server_hello) = pending.respond(evidence, body);
                self.sessions.insert(
                    from.clone(),
                    ServerSession::AwaitingFinish(awaiting, evidence_digest),
                );
                let at = self.telemetry.tick();
                self.telemetry.end_span(accept, at, span_outcome::OK);
                Ok((MSG_SERVER_HELLO, server_hello))
            }
            MSG_FINISH => {
                let (state, evidence_digest) = match self.sessions.remove(from) {
                    Some(ServerSession::AwaitingFinish(s, d)) => (s, d),
                    _ => return Err(CoreError::Substrate("no handshake in progress".into())),
                };
                let (mut channel, info) = state
                    .complete(body, &self.export.client_policy)
                    .map_err(|e| CoreError::Substrate(format!("finish: {e}")))?;
                // Mint a single-use resumption ticket bound to the
                // verified evidence and the epoch in force, sealed with
                // the fresh channel so the secret never rides in clear.
                let ticket =
                    self.tickets
                        .mint(&mut self.rng, info.key, evidence_digest, self.epoch);
                let sealed_ticket = channel.seal(&ticket.encode());
                self.sessions.insert(
                    from.clone(),
                    ServerSession::Established(Box::new(channel), info),
                );
                let at = self.telemetry.tick();
                self.telemetry
                    .instant("session.established", "remote", at, span_outcome::OK);
                self.telemetry.metrics_mut().incr("remote.sessions", 1);
                let mut reply = Vec::new();
                put_field(&mut reply, b"connected");
                put_field(&mut reply, &sealed_ticket);
                Ok((MSG_REPLY, reply))
            }
            MSG_RESUME => {
                let hello = ResumeHello::decode(body)
                    .map_err(|e| CoreError::Substrate(format!("resume hello: {e}")))?;
                match self.tickets.redeem(&hello, &self.epoch, &mut self.rng) {
                    Ok(redeemed) => {
                        let mut channel = redeemed.channel;
                        // Rotate: mint the successor ticket under the
                        // current epoch, sealed with the resumed channel.
                        let next = self.tickets.mint(
                            &mut self.rng,
                            redeemed.peer_key,
                            redeemed.evidence,
                            self.epoch,
                        );
                        let sealed_ticket = channel.seal(&next.encode());
                        self.sessions.insert(
                            from.clone(),
                            ServerSession::Established(
                                Box::new(channel),
                                PeerInfo {
                                    key: redeemed.peer_key,
                                    attested: None,
                                },
                            ),
                        );
                        let at = self.telemetry.tick();
                        self.telemetry
                            .instant("session.resumed", "remote", at, span_outcome::OK);
                        self.telemetry.metrics_mut().incr("remote.resumes", 1);
                        let mut reply = Vec::new();
                        put_field(&mut reply, &redeemed.accept.encode());
                        put_field(&mut reply, &sealed_ticket);
                        Ok((MSG_RESUME_OK, reply))
                    }
                    Err(e) => {
                        // A refusal is a protocol answer, not a session
                        // teardown: the client falls back to the full
                        // attestation handshake.
                        let at = self.telemetry.tick();
                        self.telemetry.instant(
                            "session.resume_reject",
                            "remote",
                            at,
                            span_outcome::FAILED,
                        );
                        self.telemetry
                            .metrics_mut()
                            .incr("remote.resume_rejects", 1);
                        Ok((MSG_RESUME_REJECT, e.to_string().into_bytes()))
                    }
                }
            }
            MSG_REQ_GROUP => {
                let channel = match self.sessions.get_mut(from) {
                    Some(ServerSession::Established(channel, _)) => channel,
                    Some(_) => return Err(CoreError::Substrate("handshake incomplete".into())),
                    None => return Err(CoreError::Substrate("no session".into())),
                };
                let (component, badge, window) =
                    (&self.export.component, self.export.badge, self.window);
                let plain = channel
                    .open(body)
                    .map_err(|e| CoreError::Substrate(format!("record: {e}")))?;
                let mut entries = decode_request_group(&plain)
                    .map_err(|e| CoreError::Substrate(format!("group: {e}")))?;
                // Deterministic serve-and-reply order regardless of how
                // the client interleaved submissions: ascending id.
                entries.sort_by_key(|e| e.id);
                let mut replies = Vec::with_capacity(entries.len());
                for (pos, entry) in entries.iter().enumerate() {
                    if pos >= window {
                        self.telemetry.metrics_mut().incr("remote.overloads", 1);
                        replies.push(ReplyEntry {
                            id: entry.id,
                            status: STATUS_OVERLOADED,
                            payload: format!("in-flight window of {window} exceeded").into_bytes(),
                        });
                        continue;
                    }
                    // Each entry carries its own caller's context: the
                    // serve span adopts THAT trace, so every multiplexed
                    // request lands as a child of its own caller, never
                    // of the session opener or a sibling request.
                    let at = self.telemetry.tick();
                    let serve = self.telemetry.begin_span_in(
                        entry.ctx,
                        &format!("serve {component}"),
                        "remote",
                        at,
                    );
                    match assembly.call_component_badged(component, badge, &entry.payload) {
                        Ok(r) => {
                            let at = self.telemetry.tick();
                            self.telemetry.end_span(serve, at, span_outcome::OK);
                            replies.push(ReplyEntry {
                                id: entry.id,
                                status: STATUS_OK,
                                payload: r,
                            });
                        }
                        Err(e) => {
                            let at = self.telemetry.tick();
                            self.telemetry.end_span(serve, at, span_outcome::FAILED);
                            self.telemetry
                                .metrics_mut()
                                .incr("remote.serve.failures", 1);
                            replies.push(ReplyEntry {
                                id: entry.id,
                                status: STATUS_ERR,
                                payload: e.to_string().into_bytes(),
                            });
                        }
                    }
                }
                self.telemetry
                    .metrics_mut()
                    .incr("remote.requests", entries.len() as u64);
                let record = channel.seal(&encode_reply_group(&replies));
                let at = self.telemetry.tick();
                self.telemetry
                    .instant("channel.seal", "channel", at, span_outcome::OK);
                Ok((MSG_REPLY_GROUP, record))
            }
            other => Err(CoreError::Substrate(format!("unexpected frame {other}"))),
        }
    }
}

enum ClientSession {
    Idle,
    HelloSent(ClientHandshake),
    FinishSent(Box<SecureChannel>, PeerInfo),
    /// A resumption hello is in flight; holds the ticket being redeemed
    /// and the hello (for the acceptance-proof check).
    ResumeSent(Box<ResumptionTicket>, ResumeHello),
    Established(Box<SecureChannel>, PeerInfo),
}

/// The client side: connects to a [`RemoteServer`] and issues calls.
pub struct RemoteClient {
    addr: Addr,
    server: Addr,
    identity: SigningKey,
    policy: ChannelPolicy,
    /// Locally composed component whose evidence is attached to the
    /// handshake (mutual attestation), if any.
    attest_component: Option<String>,
    state: ClientSession,
    rng: Drbg,
    telemetry: Telemetry,
    /// One open session-root span; connects and requests nest under it
    /// so the whole client lifetime is a single causal tree.
    session_span: SpanId,
    /// The session root's trace id — multiplexed request spans link
    /// into it explicitly (they cannot use stack nesting: concurrent
    /// in-flight spans would nest under each other).
    root_trace: u64,
    connect_span: Option<SpanId>,
    /// In-flight requests by id: each one's `request` span.
    pending: std::collections::BTreeMap<u64, SpanId>,
    /// Requests submitted but not yet flushed into a sealed group.
    outbox: Vec<RequestEntry>,
    next_req_id: u64,
    /// Client-side in-flight bound; submissions beyond it are refused
    /// with [`CoreError::Overloaded`] before anything hits the wire.
    window: usize,
    /// The resumption ticket from the last connect/resume, if any.
    ticket: Option<ResumptionTicket>,
    /// Peer identity learned at the last full handshake; a resumed
    /// session reuses it (the ticket is bound to the same peer).
    peer_hint: Option<PeerInfo>,
}

impl std::fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RemoteClient({} → {})", self.addr, self.server)
    }
}

impl RemoteClient {
    /// Creates a client at `addr` targeting `server`.
    pub fn new(
        net: &mut Network,
        addr: Addr,
        server: Addr,
        identity: SigningKey,
        policy: ChannelPolicy,
        attest_component: Option<&str>,
    ) -> RemoteClient {
        net.register(addr.clone());
        let rng = Drbg::from_seed(&[b"lateral.remote.client.", addr.0.as_bytes()].concat());
        let mut telemetry = Telemetry::new();
        let at = telemetry.tick();
        let session_span = telemetry.begin_span(&format!("remote {server}"), "remote", at);
        let root_trace = telemetry
            .context()
            .expect("session root just opened")
            .trace_id;
        RemoteClient {
            addr,
            server,
            identity,
            policy,
            attest_component: attest_component.map(|s| s.to_string()),
            state: ClientSession::Idle,
            rng,
            telemetry,
            session_span,
            root_trace,
            connect_span: None,
            pending: std::collections::BTreeMap::new(),
            outbox: Vec::new(),
            next_req_id: 1,
            window: DEFAULT_WINDOW,
            ticket: None,
            peer_hint: None,
        }
    }

    /// Whether a resumption ticket is held (set on every successful
    /// connect and rotated on every successful resume).
    pub fn has_ticket(&self) -> bool {
        self.ticket.is_some()
    }

    /// Bounds the client-side in-flight window: submissions beyond it
    /// are refused with [`CoreError::Overloaded`] before hitting the
    /// wire.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Requests currently awaiting replies (queued ones included:
    /// `pending` spans submit → reply, and unflushed outbox entries are
    /// already in it).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The client's telemetry: one session-root span with `connect`
    /// (attestation verification attached) and one `request` child span
    /// per request, `channel.seal`/`channel.open` instants for each
    /// group record, plus remote-layer metrics.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The client's telemetry, writable.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// The always-open session-root span every connect and request
    /// nests under.
    pub fn session_span(&self) -> SpanId {
        self.session_span
    }

    /// Installs a revocation list into the client's channel policy —
    /// `Registry::revoked_digests()` from `lateral-registry` is the
    /// canonical source. Handshakes from then on reject peer evidence
    /// whose measurement is on the list, so a revoked component cannot
    /// re-authenticate across the network even if its platform and
    /// measurement would otherwise satisfy the trust policy.
    pub fn set_revocations(&mut self, revoked: Vec<[u8; 32]>) {
        self.policy.revoked_measurements = Some(revoked);
    }

    /// Whether the secure session is established.
    pub fn connected(&self) -> bool {
        matches!(self.state, ClientSession::Established(..))
    }

    /// The server's verified identity, once connected.
    pub fn peer(&self) -> Option<&PeerInfo> {
        match &self.state {
            ClientSession::Established(_, info) | ClientSession::FinishSent(_, info) => Some(info),
            _ => None,
        }
    }

    /// Ends the open connect span, if any, with `outcome`.
    fn end_connect(&mut self, outcome: u8) {
        if let Some(c) = self.connect_span.take() {
            let at = self.telemetry.tick();
            self.telemetry.end_span(c, at, outcome);
        }
    }

    /// Sends one frame to the server.
    fn send(&self, net: &mut Network, kind: u8, body: &[u8]) -> Result<(), CoreError> {
        net.send(&self.addr, &self.server, &frame(kind, body))
            .map(drop)
            .map_err(|e| CoreError::Substrate(e.to_string()))
    }

    /// Step 1: send the ClientHello.
    ///
    /// # Errors
    ///
    /// Network registration failures.
    pub fn start(&mut self, net: &mut Network) -> Result<(), CoreError> {
        // A previous connect attempt never completed.
        self.end_connect(span_outcome::FAILED);
        let at = self.telemetry.tick();
        self.connect_span = Some(self.telemetry.begin_span("connect", "remote", at));
        let (state, hello) = ClientHandshake::start(self.identity.clone(), &mut self.rng);
        self.state = ClientSession::HelloSent(state);
        self.send(net, MSG_HELLO, &hello)
    }

    /// Attempts to resume an earlier session with the held ticket,
    /// skipping the attestation handshake. On success the next
    /// [`RemoteClient::poll_handshake`] establishes the channel; on a
    /// server-side rejection it errors and the caller falls back to
    /// [`RemoteClient::start`] (the ticket is consumed either way).
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] when no ticket is held or the network
    /// refuses the send.
    pub fn resume(&mut self, net: &mut Network) -> Result<(), CoreError> {
        let ticket = self
            .ticket
            .take()
            .ok_or_else(|| CoreError::Substrate("no resumption ticket".into()))?;
        self.end_connect(span_outcome::FAILED);
        let at = self.telemetry.tick();
        self.connect_span = Some(self.telemetry.begin_span("connect.resume", "remote", at));
        let hello = ResumeHello::new(&ticket, &mut self.rng);
        let encoded = hello.encode();
        self.state = ClientSession::ResumeSent(Box::new(ticket), hello);
        self.send(net, MSG_RESUME, &encoded)
    }

    /// Processes one pending inbound packet (ServerHello or connect
    /// acknowledgment), advancing the handshake. `assembly` is consulted
    /// for mutual-attestation evidence when configured.
    ///
    /// Returns `true` when a packet was consumed.
    ///
    /// # Errors
    ///
    /// Handshake verification failures (the connection is then dead;
    /// call [`RemoteClient::start`] to retry).
    pub fn poll_handshake(
        &mut self,
        net: &mut Network,
        assembly: Option<&mut Assembly>,
    ) -> Result<bool, CoreError> {
        let Some(packet) = net
            .recv(&self.addr)
            .map_err(|e| CoreError::Substrate(e.to_string()))?
        else {
            return Ok(false);
        };
        let (kind, body) = unframe(&packet.payload)?;
        match (
            kind,
            std::mem::replace(&mut self.state, ClientSession::Idle),
        ) {
            (MSG_SERVER_HELLO, ClientSession::HelloSent(state)) => {
                // `finish` verifies the server's channel binding and —
                // under an attesting policy — its attestation evidence,
                // so the verification lands in the connect span's tree.
                let at = self.telemetry.tick();
                let verify = self.telemetry.begin_span("attest.verify", "remote", at);
                let policy = std::mem::take(&mut self.policy);
                let result = state.finish(body, &policy, |transcript| {
                    match (&self.attest_component, assembly) {
                        (Some(name), Some(asm)) => asm.attest(name, transcript.as_bytes()).ok(),
                        _ => None,
                    }
                });
                self.policy = policy;
                let at = self.telemetry.tick();
                let (channel, finish, info) = match result {
                    Ok(parts) => {
                        self.telemetry.end_span(verify, at, span_outcome::OK);
                        parts
                    }
                    Err(e) => {
                        self.telemetry.end_span(verify, at, span_outcome::FAILED);
                        self.end_connect(span_outcome::FAILED);
                        return Err(CoreError::Substrate(format!("handshake: {e}")));
                    }
                };
                self.state = ClientSession::FinishSent(Box::new(channel), info);
                self.send(net, MSG_FINISH, &finish)?;
                Ok(true)
            }
            (MSG_REPLY, ClientSession::FinishSent(mut channel, info)) => {
                // The connected acknowledgment carries the sealed
                // resumption ticket: (marker, sealed-ticket) fields.
                let mut r = Reader::new(body);
                let parsed = (|| -> Result<ResumptionTicket, CoreError> {
                    let marker = r
                        .field()
                        .map_err(|e| CoreError::Substrate(format!("connect ack: {e}")))?;
                    if marker != b"connected" {
                        return Err(CoreError::Substrate("malformed connect ack".into()));
                    }
                    let sealed = r
                        .field()
                        .map_err(|e| CoreError::Substrate(format!("connect ack: {e}")))?;
                    let plain = channel
                        .open(sealed)
                        .map_err(|e| CoreError::Substrate(format!("ticket record: {e}")))?;
                    ResumptionTicket::decode(&plain)
                        .map_err(|e| CoreError::Substrate(format!("ticket: {e}")))
                })();
                let ticket = match parsed {
                    Ok(t) => t,
                    Err(e) => {
                        self.end_connect(span_outcome::FAILED);
                        return Err(e);
                    }
                };
                self.ticket = Some(ticket);
                self.peer_hint = Some(info.clone());
                self.state = ClientSession::Established(channel, info);
                self.end_connect(span_outcome::OK);
                self.telemetry.metrics_mut().incr("remote.connects", 1);
                Ok(true)
            }
            (MSG_RESUME_OK, ClientSession::ResumeSent(ticket, hello)) => {
                let parsed = (|| -> Result<(SecureChannel, ResumptionTicket), CoreError> {
                    let mut r = Reader::new(body);
                    let accept = ResumeAccept::decode(
                        r.field()
                            .map_err(|e| CoreError::Substrate(format!("resume ack: {e}")))?,
                    )
                    .map_err(|e| CoreError::Substrate(format!("resume ack: {e}")))?;
                    let sealed = r
                        .field()
                        .map_err(|e| CoreError::Substrate(format!("resume ack: {e}")))?;
                    let mut channel =
                        lateral_net::session::complete_resume(&ticket, &hello, &accept)
                            .map_err(|e| CoreError::Substrate(format!("resume: {e}")))?;
                    let plain = channel
                        .open(sealed)
                        .map_err(|e| CoreError::Substrate(format!("ticket record: {e}")))?;
                    let next = ResumptionTicket::decode(&plain)
                        .map_err(|e| CoreError::Substrate(format!("ticket: {e}")))?;
                    Ok((channel, next))
                })();
                match parsed {
                    Ok((channel, next)) => {
                        self.ticket = Some(next);
                        let info = self.peer_hint.clone().unwrap_or(PeerInfo {
                            key: [0u8; 32],
                            attested: None,
                        });
                        self.state = ClientSession::Established(Box::new(channel), info);
                        self.end_connect(span_outcome::OK);
                        self.telemetry.metrics_mut().incr("remote.resumes", 1);
                        Ok(true)
                    }
                    Err(e) => {
                        self.end_connect(span_outcome::FAILED);
                        Err(e)
                    }
                }
            }
            (MSG_RESUME_REJECT, ClientSession::ResumeSent(..)) => {
                // The ticket is spent (epoch moved or server state was
                // lost); fall back to the full attestation handshake
                // via [`RemoteClient::start`].
                self.end_connect(span_outcome::FAILED);
                self.telemetry
                    .metrics_mut()
                    .incr("remote.resume_rejects", 1);
                Err(CoreError::Substrate(format!(
                    "resume rejected: {}",
                    String::from_utf8_lossy(body)
                )))
            }
            (MSG_ERROR, _) => {
                self.end_connect(span_outcome::FAILED);
                Err(CoreError::Substrate(format!(
                    "server error: {}",
                    String::from_utf8_lossy(body)
                )))
            }
            (k, state) => {
                self.state = state;
                Err(CoreError::Substrate(format!("unexpected frame {k}")))
            }
        }
    }

    /// Queues one multiplexed request and returns its id. Nothing hits
    /// the wire until [`RemoteClient::flush`]; many requests may be in
    /// flight at once, each landing as a child span of its own caller
    /// context under the session root.
    ///
    /// # Errors
    ///
    /// [`CoreError::Overloaded`] when the in-flight window is full;
    /// [`CoreError::Substrate`] when not connected.
    pub fn submit(&mut self, payload: &[u8]) -> Result<u64, CoreError> {
        if !matches!(self.state, ClientSession::Established(..)) {
            return Err(CoreError::Substrate("not connected".into()));
        }
        if self.in_flight() >= self.window {
            self.telemetry.metrics_mut().incr("remote.overloads", 1);
            return Err(CoreError::Overloaded(format!(
                "in-flight window of {} exceeded",
                self.window
            )));
        }
        let id = self.next_req_id;
        self.next_req_id += 1;
        // Linked, not stacked: concurrent request spans are siblings
        // under the session root, never nested under one another.
        let at = self.telemetry.tick();
        let span = self.telemetry.begin_span_linked(
            TraceContext {
                trace_id: self.root_trace,
                parent: self.session_span,
            },
            "request",
            "remote",
            at,
        );
        let ctx = TraceContext {
            trace_id: self.root_trace,
            parent: span,
        };
        self.pending.insert(id, span);
        self.outbox.push(RequestEntry {
            id,
            ctx,
            payload: payload.to_vec(),
        });
        self.telemetry.metrics_mut().incr("remote.requests", 1);
        Ok(id)
    }

    /// Seals every queued submission into one request-group record and
    /// sends it. Returns the number of requests flushed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Substrate`] when not connected or the send fails.
    pub fn flush(&mut self, net: &mut Network) -> Result<usize, CoreError> {
        let ClientSession::Established(channel, _) = &mut self.state else {
            return Err(CoreError::Substrate("not connected".into()));
        };
        let flushed = self.outbox.len();
        if flushed == 0 {
            return Ok(0);
        }
        let record = channel.seal(&encode_request_group(&self.outbox));
        self.outbox.clear();
        let at = self.telemetry.tick();
        self.telemetry
            .instant("channel.seal", "channel", at, span_outcome::OK);
        self.send(net, MSG_REQ_GROUP, &record).map(|()| flushed)
    }

    /// Drains one pending reply-group record (if any), ending the span
    /// of every answered request. Returns `(id, outcome)` pairs in the
    /// server's deterministic reply order — ascending id.
    ///
    /// # Errors
    ///
    /// Record verification failures, server-reported errors, and a
    /// reply entry whose id is not in flight (never submitted, or
    /// already answered): the poll fails and hands back nothing from
    /// that group. Per-request failures are returned *inside* the vec,
    /// typed [`CoreError::Overloaded`] for window refusals.
    #[allow(clippy::type_complexity)]
    pub fn poll_group_replies(
        &mut self,
        net: &mut Network,
    ) -> Result<Vec<(u64, Result<Vec<u8>, CoreError>)>, CoreError> {
        let Some(packet) = net
            .recv(&self.addr)
            .map_err(|e| CoreError::Substrate(e.to_string()))?
        else {
            return Ok(Vec::new());
        };
        let (kind, body) = unframe(&packet.payload)?;
        match kind {
            MSG_REPLY_GROUP => {
                let ClientSession::Established(channel, _) = &mut self.state else {
                    return Err(CoreError::Substrate("not connected".into()));
                };
                let plain = channel
                    .open(body)
                    .map_err(|e| CoreError::Substrate(format!("record: {e}")))?;
                let at = self.telemetry.tick();
                self.telemetry
                    .instant("channel.open", "channel", at, span_outcome::OK);
                let entries = decode_reply_group(&plain)
                    .map_err(|e| CoreError::Substrate(format!("group: {e}")))?;
                let mut out = Vec::with_capacity(entries.len());
                for entry in entries {
                    let Some(span) = self.pending.remove(&entry.id) else {
                        return Err(CoreError::Substrate(format!(
                            "reply for request {} that is not in flight",
                            entry.id
                        )));
                    };
                    let at = self.telemetry.tick();
                    let outcome = if entry.status == STATUS_OK {
                        span_outcome::OK
                    } else {
                        span_outcome::FAILED
                    };
                    self.telemetry.end_span(span, at, outcome);
                    let result = match entry.status {
                        STATUS_OK => Ok(entry.payload),
                        STATUS_OVERLOADED => Err(CoreError::Overloaded(
                            String::from_utf8_lossy(&entry.payload).into_owned(),
                        )),
                        _ => Err(CoreError::Substrate(
                            String::from_utf8_lossy(&entry.payload).into_owned(),
                        )),
                    };
                    out.push((entry.id, result));
                }
                Ok(out)
            }
            MSG_ERROR => Err(CoreError::Substrate(format!(
                "server error: {}",
                String::from_utf8_lossy(body)
            ))),
            k => Err(CoreError::Substrate(format!("unexpected frame {k}"))),
        }
    }

    /// Drops the established channel (e.g. the connection went away),
    /// failing every in-flight request span. The resumption ticket is
    /// kept: the next [`RemoteClient::resume`] skips the attestation
    /// handshake if the server's epoch has not moved.
    pub fn disconnect(&mut self) {
        self.state = ClientSession::Idle;
        self.outbox.clear();
        let pending = std::mem::take(&mut self.pending);
        for (_, span) in pending {
            let at = self.telemetry.tick();
            self.telemetry.end_span(span, at, span_outcome::FAILED);
        }
        self.end_connect(span_outcome::FAILED);
    }

    /// Submits and flushes one request: a one-entry group, with no
    /// logic of its own. perfbench's lock-step client still calls it;
    /// the next change to the benchmark moves that client onto
    /// [`RemoteClient::submit`]/[`RemoteClient::flush`] and deletes it.
    ///
    /// # Errors
    ///
    /// As [`RemoteClient::submit`] and [`RemoteClient::flush`].
    pub fn send_request(&mut self, net: &mut Network, payload: &[u8]) -> Result<(), CoreError> {
        self.submit(payload).and_then(|_| self.flush(net)).map(drop)
    }

    /// Polls one reply group and returns its (single) reply, with no
    /// logic of its own. perfbench's lock-step client still calls it;
    /// the next change to the benchmark moves that client onto
    /// [`RemoteClient::poll_group_replies`] and deletes it.
    ///
    /// # Errors
    ///
    /// As [`RemoteClient::poll_group_replies`], plus the reply's own
    /// failure.
    pub fn poll_reply(&mut self, net: &mut Network) -> Result<Option<Vec<u8>>, CoreError> {
        self.poll_group_replies(net)
            .and_then(|replies| replies.into_iter().next().map(|(_, r)| r).transpose())
    }
}

/// Convenience driver: completes the handshake by alternating client and
/// server steps (for tests and examples; experiments interpose the
/// adversary by driving the steps themselves).
///
/// # Errors
///
/// The first handshake failure from either side.
pub fn establish(
    net: &mut Network,
    client: &mut RemoteClient,
    client_assembly: Option<&mut Assembly>,
    server: &mut RemoteServer,
    server_assembly: &mut Assembly,
) -> Result<(), CoreError> {
    client.start(net)?;
    server.pump(net, server_assembly)?;
    client.poll_handshake(net, client_assembly)?; // consumes ServerHello
    server.pump(net, server_assembly)?;
    client.poll_handshake(net, None)?; // consumes "connected"
    if client.connected() {
        Ok(())
    } else {
        Err(CoreError::Substrate("handshake did not complete".into()))
    }
}

/// Convenience driver for one lock-step request/reply round trip: a
/// one-entry [`call_batch`], i.e. the multiplexed path at window 1.
///
/// # Errors
///
/// Propagates request, service, and record failures.
pub fn call(
    net: &mut Network,
    client: &mut RemoteClient,
    server: &mut RemoteServer,
    server_assembly: &mut Assembly,
    payload: &[u8],
) -> Result<Vec<u8>, CoreError> {
    call_batch(net, client, server, server_assembly, &[payload.to_vec()])?
        .pop()
        .unwrap_or_else(|| Err(CoreError::Substrate("reply lost in transit".into())))
}

/// Convenience driver: submits every payload as one multiplexed group,
/// flushes, pumps the server once, and collects the replies **in
/// submission order**. One seal/open round trip carries the whole batch.
///
/// # Errors
///
/// Transport/session failures; per-request outcomes (including typed
/// [`CoreError::Overloaded`] refusals) land inside the returned vec.
#[allow(clippy::type_complexity)]
pub fn call_batch(
    net: &mut Network,
    client: &mut RemoteClient,
    server: &mut RemoteServer,
    server_assembly: &mut Assembly,
    payloads: &[Vec<u8>],
) -> Result<Vec<Result<Vec<u8>, CoreError>>, CoreError> {
    let mut ids = Vec::with_capacity(payloads.len());
    for payload in payloads {
        ids.push(client.submit(payload)?);
    }
    client.flush(net)?;
    server.pump(net, server_assembly)?;
    let mut by_id: std::collections::BTreeMap<u64, Result<Vec<u8>, CoreError>> =
        client.poll_group_replies(net)?.into_iter().collect();
    ids.into_iter()
        .map(|id| {
            by_id
                .remove(&id)
                .ok_or_else(|| CoreError::Substrate(format!("reply {id} lost in transit")))
        })
        .collect()
}

/// Convenience driver: resumes with the held ticket when possible,
/// falling back to the full attestation handshake. Returns `true` when
/// the session was resumed (no re-attestation happened).
///
/// # Errors
///
/// The fallback handshake's failure (a resume rejection alone is not an
/// error — it triggers the fallback).
pub fn resume_or_establish(
    net: &mut Network,
    client: &mut RemoteClient,
    client_assembly: Option<&mut Assembly>,
    server: &mut RemoteServer,
    server_assembly: &mut Assembly,
) -> Result<bool, CoreError> {
    if client.has_ticket() {
        client.resume(net)?;
        server.pump(net, server_assembly)?;
        if client.poll_handshake(net, None).is_ok() && client.connected() {
            return Ok(true);
        }
    }
    establish(net, client, client_assembly, server, server_assembly)?;
    Ok(false)
}

/// Testkit parity check: on `sub`, interleaved multiplexed requests must
/// each land as a child span of **their own caller**, never of the
/// session opener or a sibling — the E12 guarantee extended to the
/// session layer, uniform across all six backends.
///
/// # Panics
///
/// When the backend breaks the per-request span-lineage guarantee.
pub fn assert_multiplexed_trace_propagation(sub: Box<dyn lateral_substrate::substrate::Substrate>) {
    use crate::manifest::{AppManifest, ComponentManifest};
    use lateral_substrate::component::Component;
    use lateral_substrate::testkit::Counter;

    let backend = sub.profile().name.clone();
    let mut factory = |_: &ComponentManifest| -> Option<Box<dyn Component>> {
        Some(Box::new(Counter::default()))
    };
    let manifest = AppManifest::new("mux-parity", vec![ComponentManifest::new("counter")]);
    let mut asm = crate::composer::compose(&manifest, vec![sub], &mut factory)
        .unwrap_or_else(|e| panic!("[{backend}] compose: {e}"));

    let mut net = Network::new(&format!("mux-{backend}"));
    let mut server = RemoteServer::bind(
        &mut net,
        Addr::new("svc"),
        ServiceExport {
            component: "counter".into(),
            badge: Badge(0xB0B),
            identity: SigningKey::from_seed(b"mux parity server"),
            client_policy: ChannelPolicy::open(),
            attest: false,
        },
    );
    let mut client = RemoteClient::new(
        &mut net,
        Addr::new("client"),
        Addr::new("svc"),
        SigningKey::from_seed(b"mux parity client"),
        ChannelPolicy::open(),
        None,
    );
    establish(&mut net, &mut client, None, &mut server, &mut asm)
        .unwrap_or_else(|e| panic!("[{backend}] establish: {e}"));

    let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8]).collect();
    let mut ids = Vec::new();
    for p in &payloads {
        ids.push(
            client
                .submit(p)
                .unwrap_or_else(|e| panic!("[{backend}] submit: {e}")),
        );
    }
    assert_eq!(
        client.in_flight(),
        4,
        "[{backend}] all four requests in flight before the flush"
    );
    client
        .flush(&mut net)
        .unwrap_or_else(|e| panic!("[{backend}] flush: {e}"));
    server
        .pump(&mut net, &mut asm)
        .unwrap_or_else(|e| panic!("[{backend}] pump: {e}"));
    let replies = client
        .poll_group_replies(&mut net)
        .unwrap_or_else(|e| panic!("[{backend}] poll: {e}"));
    assert_eq!(replies.len(), 4, "[{backend}] every request answered");
    let reply_ids: Vec<u64> = replies.iter().map(|(id, _)| *id).collect();
    assert_eq!(reply_ids, ids, "[{backend}] deterministic ascending order");
    for (id, result) in &replies {
        result
            .as_ref()
            .unwrap_or_else(|e| panic!("[{backend}] request {id} failed: {e}"));
    }
    assert_eq!(client.in_flight(), 0, "[{backend}] window fully drained");

    // Client side: each request span is a *sibling* under the session
    // root, in the root trace.
    let t = client.telemetry();
    let root = client.session_span();
    let root_trace = t
        .open_spans()
        .find(|s| s.id == root)
        .unwrap_or_else(|| panic!("[{backend}] session root still open"))
        .trace_id;
    let request_spans: Vec<_> = t.spans().filter(|s| &*s.name == "request").collect();
    assert_eq!(request_spans.len(), 4, "[{backend}] four request spans");
    for s in &request_spans {
        assert_eq!(
            s.parent, root,
            "[{backend}] request span parents on the session root, not a sibling"
        );
        assert_eq!(s.trace_id, root_trace, "[{backend}] in the root trace");
        assert_eq!(s.outcome, span_outcome::OK, "[{backend}] ended OK");
    }
    // Server side: each serve span adopted its own caller's context —
    // same trace, parented on the matching request span, all distinct.
    let serves: Vec<_> = server
        .telemetry()
        .spans()
        .filter(|s| &*s.name == "serve counter")
        .cloned()
        .collect();
    assert_eq!(serves.len(), 4, "[{backend}] four serve spans");
    let mut serve_parents: Vec<SpanId> = serves.iter().map(|s| s.parent).collect();
    serve_parents.sort();
    serve_parents.dedup();
    assert_eq!(
        serve_parents.len(),
        4,
        "[{backend}] serve spans parent on four DISTINCT request spans"
    );
    let request_ids: std::collections::BTreeSet<SpanId> =
        request_spans.iter().map(|s| s.id).collect();
    for s in &serves {
        assert_eq!(s.trace_id, root_trace, "[{backend}] serve in caller trace");
        assert!(
            request_ids.contains(&s.parent),
            "[{backend}] serve span parents on a request span, not the session opener"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composer::compose;
    use crate::manifest::{AppManifest, ComponentManifest};
    use lateral_substrate::attest::TrustPolicy;
    use lateral_substrate::component::Component;
    use lateral_substrate::software::SoftwareSubstrate;
    use lateral_substrate::substrate::Substrate;
    use lateral_substrate::testkit::{BadgeReporter, Counter, Echo};

    fn factory(cm: &ComponentManifest) -> Option<Box<dyn Component>> {
        Some(match cm.name.as_str() {
            "counter" => Box::new(Counter::default()),
            "badge-reporter" => Box::new(BadgeReporter),
            _ => Box::new(Echo),
        })
    }

    fn assembly(components: Vec<ComponentManifest>) -> Assembly {
        let pool: Vec<Box<dyn Substrate>> = vec![Box::new(SoftwareSubstrate::new("remote"))];
        compose(&AppManifest::new("remote", components), pool, &mut factory).unwrap()
    }

    fn export(component: &str) -> ServiceExport {
        ServiceExport {
            component: component.to_string(),
            badge: Badge(0x7E57),
            identity: SigningKey::from_seed(b"server identity"),
            client_policy: ChannelPolicy::open(),
            attest: false,
        }
    }

    #[test]
    fn remote_call_lands_in_the_callers_trace_with_sub_spans() {
        let mut net = Network::new("remote-trace");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        call(&mut net, &mut client, &mut server, &mut server_asm, b"x").unwrap();

        let t = client.telemetry();
        let span = |name: &str| {
            t.spans()
                .find(|s| &*s.name == name)
                .unwrap_or_else(|| panic!("client recorded a '{name}' span"))
                .clone()
        };
        let root = client.session_span();
        let root_trace = t.open_spans().find(|s| s.id == root).unwrap().trace_id;
        // connect (with attestation verification attached), the request
        // and the group record's seal/open instants are children of the
        // session root — one connected tree.
        let connect = span("connect");
        assert_eq!(connect.parent, root);
        assert_eq!(span("attest.verify").parent, connect.id);
        let request = span("request");
        assert_eq!(request.parent, root);
        assert_eq!(span("channel.seal").parent, root);
        assert_eq!(span("channel.open").parent, root);
        assert!(t.spans().all(|s| s.trace_id == root_trace));
        // The server's serve span adopted the propagated context: same
        // trace id, parented on the client's request span.
        let serve = server
            .telemetry()
            .spans()
            .find(|s| &*s.name == "serve counter")
            .expect("server recorded the serve span")
            .clone();
        assert_eq!(serve.trace_id, root_trace);
        assert_eq!(serve.parent, request.id);
        assert_eq!(serve.outcome, span_outcome::OK);
        // And the rendered client tree shows seal/open under the root.
        let tree = client.telemetry().render_tree();
        assert!(tree.contains("remote svc [remote]"));
        assert!(tree.contains("\n  channel.seal [channel]"));
    }

    #[test]
    fn end_to_end_remote_invocation() {
        let mut net = Network::new("remote-test");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc.example"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client.example"),
            Addr::new("svc.example"),
            SigningKey::from_seed(b"client identity"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        for expected in 1u64..=3 {
            let reply = call(&mut net, &mut client, &mut server, &mut server_asm, b"").unwrap();
            assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), expected);
        }
    }

    #[test]
    fn exported_badge_identifies_remote_clients() {
        let mut net = Network::new("remote-badge");
        let mut server_asm = assembly(vec![ComponentManifest::new("badge-reporter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("badge-reporter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        let reply = call(&mut net, &mut client, &mut server, &mut server_asm, b"").unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 0x7E57);
    }

    #[test]
    fn pinned_client_rejects_imposter_server() {
        let mut net = Network::new("remote-pin");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut imposter = ServiceExport {
            identity: SigningKey::from_seed(b"imposter"),
            ..export("counter")
        };
        imposter.attest = false;
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), imposter);
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::pin(SigningKey::from_seed(b"server identity").verifying_key()),
            None,
        );
        let err = establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap_err();
        assert!(err.to_string().contains("handshake"));
    }

    #[test]
    fn requests_without_session_are_refused() {
        let mut net = Network::new("remote-nosess");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        assert!(client.send_request(&mut net, b"x").is_err());
        // Raw injected request without a handshake gets an error frame.
        net.inject(
            &Addr::new("client"),
            &Addr::new("svc"),
            &frame(MSG_REQ_GROUP, b"junk"),
        )
        .unwrap();
        server.pump(&mut net, &mut server_asm).unwrap();
        assert!(client.poll_reply(&mut net).is_err());
    }

    #[test]
    fn replayed_request_records_are_rejected() {
        let mut net = Network::new("remote-replay");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        call(&mut net, &mut client, &mut server, &mut server_asm, b"").unwrap();
        // The adversary replays the recorded request (packet index 4 =
        // first MSG_REQ_GROUP; compute it robustly instead).
        let idx = net
            .recorded()
            .iter()
            .position(|p| p.payload.first() == Some(&MSG_REQ_GROUP))
            .unwrap();
        net.replay_recorded(idx).unwrap();
        server.pump(&mut net, &mut server_asm).unwrap();
        // The server answered with an error frame; the counter must not
        // have advanced twice: a fresh legitimate call returns 2.
        let _ = client.poll_reply(&mut net); // drain the error
                                             // Session was torn down server-side; reconnect and observe the
                                             // counter only advanced once for the replay attempt.
        let mut client2 = RemoteClient::new(
            &mut net,
            Addr::new("client2"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c2"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client2, None, &mut server, &mut server_asm).unwrap();
        let reply = call(&mut net, &mut client2, &mut server, &mut server_asm, b"").unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 2);
    }

    #[test]
    fn a_reply_whose_id_is_not_in_flight_is_refused() {
        let mut net = Network::new("remote-stray-reply");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        let id = client.submit(b"").unwrap();
        client.flush(&mut net).unwrap();
        // Before the genuine reply, the server's channel seals a reply
        // group answering an id the client never sent: authentic bytes,
        // wrong request.
        let Some(ServerSession::Established(channel, _)) =
            server.sessions.get_mut(&Addr::new("client"))
        else {
            panic!("session established");
        };
        let stray = channel.seal(&encode_reply_group(&[ReplyEntry {
            id: id + 40,
            status: STATUS_OK,
            payload: b"not yours".to_vec(),
        }]));
        net.send(
            &Addr::new("svc"),
            &Addr::new("client"),
            &frame(MSG_REPLY_GROUP, &stray),
        )
        .unwrap();
        let err = client.poll_group_replies(&mut net).unwrap_err();
        assert!(err.to_string().contains("not in flight"), "{err}");
        assert_eq!(client.in_flight(), 1, "the real request is still awaited");
        // The genuine reply still lands after the refusal.
        server.pump(&mut net, &mut server_asm).unwrap();
        let replies = client.poll_group_replies(&mut net).unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, id);
        assert_eq!(
            u64::from_le_bytes(replies[0].1.clone().unwrap().try_into().unwrap()),
            1
        );
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn multiplexed_batch_round_trips_in_submission_order() {
        let mut net = Network::new("remote-mux");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        let payloads: Vec<Vec<u8>> = (0..5).map(|_| Vec::new()).collect();
        let replies = call_batch(
            &mut net,
            &mut client,
            &mut server,
            &mut server_asm,
            &payloads,
        )
        .unwrap();
        let counts: Vec<u64> = replies
            .into_iter()
            .map(|r| u64::from_le_bytes(r.unwrap().try_into().unwrap()))
            .collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 5]);
        assert_eq!(client.in_flight(), 0);
        // One sealed record carried all five requests.
        assert_eq!(
            server.telemetry().metrics().counter("remote.requests"),
            5,
            "server served five multiplexed requests"
        );
    }

    #[test]
    fn over_window_submissions_are_refused_typed() {
        let mut net = Network::new("remote-window");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        server.set_window(2);
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        client.set_window(2);
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        client.submit(b"").unwrap();
        client.submit(b"").unwrap();
        // Client-side refusal: nothing hits the wire past the window.
        let err = client.submit(b"").unwrap_err();
        assert!(matches!(err, CoreError::Overloaded(_)), "{err}");
        // Server-side refusal: an oversized group (bypassing the client
        // bound) answers OVERLOADED for the excess entries.
        client.set_window(8);
        client.submit(b"").unwrap();
        client.flush(&mut net).unwrap();
        server.pump(&mut net, &mut server_asm).unwrap();
        let replies = client.poll_group_replies(&mut net).unwrap();
        assert_eq!(replies.len(), 3);
        assert!(replies[0].1.is_ok());
        assert!(replies[1].1.is_ok());
        assert!(
            matches!(replies[2].1, Err(CoreError::Overloaded(_))),
            "third entry refused by the server window"
        );
        assert_eq!(server.telemetry().metrics().counter("remote.overloads"), 1);
    }

    #[test]
    fn resumption_skips_the_handshake_and_rotates_the_ticket() {
        let mut net = Network::new("remote-resume");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        assert!(client.has_ticket(), "connect minted a resumption ticket");
        call(&mut net, &mut client, &mut server, &mut server_asm, b"").unwrap();

        client.disconnect();
        assert!(!client.connected());
        assert!(client.has_ticket(), "ticket survives the disconnect");
        let resumed =
            resume_or_establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        assert!(resumed, "ticket redeemed without a fresh handshake");
        assert!(client.has_ticket(), "a rotated successor ticket arrived");
        assert_eq!(client.telemetry().metrics().counter("remote.resumes"), 1);
        // The resumed channel carries traffic: counter continues at 2.
        let reply = call(&mut net, &mut client, &mut server, &mut server_asm, b"").unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 2);
    }

    #[test]
    fn epoch_change_forces_reattestation_on_resume() {
        let mut net = Network::new("remote-epoch");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), export("counter"));
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            ChannelPolicy::open(),
            None,
        );
        establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        client.disconnect();
        // The world moved: revocation epoch advances, every outstanding
        // ticket is invalid at redemption time.
        server.set_epoch(lateral_net::session::SessionEpoch {
            revocation: 1,
            trust: 0,
            regrant: 0,
        });
        let resumed =
            resume_or_establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap();
        assert!(!resumed, "stale-epoch ticket fell back to a full handshake");
        assert!(client.connected());
        assert_eq!(
            server
                .telemetry()
                .metrics()
                .counter("remote.resume_rejects"),
            1
        );
        assert_eq!(
            server.telemetry().metrics().counter("remote.sessions"),
            2,
            "two full handshakes total"
        );
    }

    #[test]
    fn multiplexed_parity_assertion_passes_on_software() {
        assert_multiplexed_trace_propagation(Box::new(SoftwareSubstrate::new("mux")));
    }

    #[test]
    fn attested_export_requires_capable_substrate() {
        // The software substrate cannot attest: exporting with attest =
        // true fails the handshake server-side and the client sees the
        // error frame.
        let mut net = Network::new("remote-attest");
        let mut server_asm = assembly(vec![ComponentManifest::new("counter")]);
        let mut exp = export("counter");
        exp.attest = true;
        let mut server = RemoteServer::bind(&mut net, Addr::new("svc"), exp);
        let mut client = RemoteClient::new(
            &mut net,
            Addr::new("client"),
            Addr::new("svc"),
            SigningKey::from_seed(b"c"),
            {
                let mut trust = TrustPolicy::new();
                trust.trust_platform(SigningKey::from_seed(b"nobody").verifying_key());
                ChannelPolicy::open().with_attestation(trust)
            },
            None,
        );
        let err = establish(&mut net, &mut client, None, &mut server, &mut server_asm).unwrap_err();
        assert!(err.to_string().contains("server error"), "{err}");
    }
}
