//! E18 — multiplexed remote sessions: windows, resumption, mirrors.
//!
//! The remote layer's session rework makes three claims this experiment
//! gates:
//!
//! * **Multiplexing preserves causality on every backend.** A client
//!   interleaves many in-flight requests over one secure channel; each
//!   must land as a child span of *its own* caller — never of the
//!   session opener or a sibling — and entries beyond the server's
//!   bounded window are refused with a typed `Overloaded` reply, not
//!   dropped. The span-tree digests (client and server side) must be
//!   byte-identical across all six backends and across runs.
//! * **Resumption amortizes attestation without weakening it.** A
//!   resumption ticket bound to the verified evidence digest lets a
//!   client re-establish the channel with zero fresh attestations —
//!   until the revocation/trust/re-grant epoch moves, at which point
//!   redemption is refused and the full attestation handshake is
//!   forced.
//! * **Content addressing makes mirrors untrusted.** Image fetch
//!   verifies the digest regardless of source, so corrupt, silent, and
//!   missing mirrors each cost exactly one deterministic failover step
//!   and never an accepted forgery; every fetch is either served
//!   verified or fails typed — zero lost.
//!
//! The throughput leg counts records: one sealed record group carries a
//! whole window of requests, so the multiplexed path puts ~window×
//! fewer records on the wire than lock-step request/reply (the same
//! path at window 1). The counts are deterministic; perfbench's
//! `session` workload measures both paths' rates.

use lateral_core::composer::{compose, Assembly};
use lateral_core::manifest::{AppManifest, ComponentManifest};
use lateral_core::remote::{
    call, current_session_epoch, establish, resume_or_establish, RemoteClient, RemoteServer,
    ServiceExport,
};
use lateral_core::CoreError;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_hw::machine::MachineBuilder;
use lateral_microkernel::Microkernel;
use lateral_net::channel::{BackoffSchedule, ChannelPolicy};
use lateral_net::fetch::{fetch_verified, MirrorStore};
use lateral_net::sim::Network;
use lateral_net::Addr;
use lateral_registry::{measurement_of, ManifestDraft, Registry};
use lateral_substrate::attest::TrustPolicy;
use lateral_substrate::cap::Badge;
use lateral_substrate::component::Component;
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::Substrate;
use lateral_substrate::testkit::Counter;

use crate::e2_conformance::all_substrates;
use crate::table::render;

/// Server-side in-flight window for the multiplexing leg.
const WINDOW: usize = 4;
/// First flushed group: one entry over the window, so exactly one
/// typed refusal per backend.
const GROUP1: usize = WINDOW + 1;
/// Second flushed group, in flight before the first is drained.
const GROUP2: usize = 2;
/// Requests per side in the throughput leg.
const THROUGHPUT_REQUESTS: usize = 512;
/// Client window (= batch size) in the throughput leg.
const THROUGHPUT_WINDOW: usize = 32;

fn counter_factory(_: &ComponentManifest) -> Option<Box<dyn Component>> {
    Some(Box::new(Counter::default()))
}

fn counter_assembly(pool: Vec<Box<dyn Substrate>>) -> Assembly {
    let mut factory = counter_factory;
    compose(
        &AppManifest::new("e18", vec![ComponentManifest::new("counter")]),
        pool,
        &mut factory,
    )
    .expect("e18 assembly composes")
}

fn bind_pair(
    net: &mut Network,
    export: ServiceExport,
    policy: ChannelPolicy,
) -> (RemoteServer, RemoteClient) {
    let server = RemoteServer::bind(net, Addr::new("svc"), export);
    let client = RemoteClient::new(
        net,
        Addr::new("client"),
        Addr::new("svc"),
        SigningKey::from_seed(b"e18 client identity"),
        policy,
        None,
    );
    (server, client)
}

fn plain_export() -> ServiceExport {
    ServiceExport {
        component: "counter".to_string(),
        badge: Badge(0xE18),
        identity: SigningKey::from_seed(b"e18 service identity"),
        client_policy: ChannelPolicy::open(),
        attest: false,
    }
}

/// One backend's multiplexing measurements.
#[derive(Clone, Debug)]
pub struct BackendMux {
    /// Backend name (substrate profile).
    pub backend: String,
    /// Requests submitted across both in-flight groups.
    pub submitted: usize,
    /// Requests served OK.
    pub served: usize,
    /// Requests refused with the typed `Overloaded` status.
    pub refused: usize,
    /// Digest over the client's span tree (session root, connects,
    /// one request span per submission) — must match on every backend.
    pub client_digest: String,
    /// Digest over the server-side slice of the *caller's* trace (the
    /// adopted serve spans) — must match on every backend.
    pub server_digest: String,
}

/// Runs the interleaved-window mix on the backend at `idx` in the
/// conformance pool.
fn run_mux_backend(idx: usize) -> BackendMux {
    let sub = all_substrates().remove(idx);
    let backend = sub.profile().name.clone();
    let mut asm = counter_assembly(vec![sub]);
    let mut net = Network::new(&format!("e18-mux-{backend}"));
    let (mut server, mut client) = bind_pair(&mut net, plain_export(), ChannelPolicy::open());
    server.set_window(WINDOW);
    client.set_window(GROUP1 + GROUP2 + 1);
    establish(&mut net, &mut client, None, &mut server, &mut asm).expect("establish");

    // Two request groups in flight at once: the second is flushed
    // before the first group's replies are drained.
    for i in 0..GROUP1 {
        client.submit(&[i as u8]).expect("submit group 1");
    }
    client.flush(&mut net).expect("flush group 1");
    for i in 0..GROUP2 {
        client.submit(&[0x10 + i as u8]).expect("submit group 2");
    }
    client.flush(&mut net).expect("flush group 2");
    server.pump(&mut net, &mut asm).expect("server pump");

    let (mut served, mut refused) = (0usize, 0usize);
    loop {
        let replies = client.poll_group_replies(&mut net).expect("poll");
        if replies.is_empty() {
            break;
        }
        for (_, outcome) in replies {
            match outcome {
                Ok(_) => served += 1,
                Err(CoreError::Overloaded(_)) => refused += 1,
                Err(e) => panic!("unexpected reply error: {e}"),
            }
        }
    }
    assert_eq!(client.in_flight(), 0, "window fully drained");

    let client_digest = client.telemetry().tree_digest().short_hex();
    // The serve spans adopted the caller's trace; digest exactly that
    // trace's slice of the server telemetry.
    let st = server.telemetry();
    let caller_trace = st
        .spans()
        .find(|s| st.span_name(s).starts_with("serve"))
        .expect("server recorded serve spans")
        .trace_id;
    let server_digest = server.telemetry().trace_digest(caller_trace).short_hex();
    BackendMux {
        backend,
        submitted: GROUP1 + GROUP2,
        served,
        refused,
        client_digest,
        server_digest,
    }
}

/// Runs the multiplexing leg on all six backends.
#[must_use]
pub fn run_mux() -> Vec<BackendMux> {
    (0..all_substrates().len()).map(run_mux_backend).collect()
}

/// The resumption leg's ledger, phase by phase.
#[derive(Clone, Debug)]
pub struct ResumptionOutcome {
    /// Attestations performed by the initial connect (must be 1).
    pub attestations_after_connect: u64,
    /// Successful ticket redemptions within the epoch.
    pub resumes: u64,
    /// Attestations after all within-epoch resumes (must still be 1).
    pub attestations_after_resumes: u64,
    /// Ticket redemptions refused after the revocation moved the epoch.
    pub rejects: u64,
    /// Attestations after the forced re-handshake (must be 2).
    pub attestations_after_revocation: u64,
    /// Whether the client held a (rotated) ticket after every phase.
    pub ticket_rotated: bool,
}

/// Runs the resumption leg: an attested microkernel export, three
/// within-epoch resumptions, then a revocation that forces the full
/// handshake.
#[must_use]
pub fn run_resumption() -> ResumptionOutcome {
    let platform = SigningKey::from_seed(b"e18 mk platform");
    let mk = Microkernel::new(
        MachineBuilder::new().name("e18-mk").frames(256).build(),
        "e18",
    )
    .with_attestation(platform.clone(), Digest::of(b"measured boot stack"));
    let mut asm = counter_assembly(vec![Box::new(mk)]);

    // The registry is the epoch authority: publishing gives it an image
    // whose later revocation moves the session epoch.
    let publisher = SigningKey::from_seed(b"e18 publisher");
    let mut registry = Registry::new("e18");
    registry.trust_root(&publisher.verifying_key());
    let image = b"e18 counter image".to_vec();
    let digest = registry
        .publish(
            &image,
            ManifestDraft::new("counter", &image).sign(&publisher, None),
        )
        .expect("publish");

    let mut net = Network::new("e18-resume");
    let mut trust = TrustPolicy::new();
    trust.trust_platform(platform.verifying_key());
    trust.expect_measurement(asm.measurement("counter").expect("counter measured"));
    let export = ServiceExport {
        attest: true,
        ..plain_export()
    };
    let (mut server, mut client) = bind_pair(
        &mut net,
        export,
        ChannelPolicy::open().with_attestation(trust),
    );
    server.set_epoch(current_session_epoch(&registry, &asm));

    establish(&mut net, &mut client, None, &mut server, &mut asm).expect("attested establish");
    let attest_count =
        |server: &RemoteServer| server.telemetry().metrics().counter("remote.attestations");
    let attestations_after_connect = attest_count(&server);
    let mut ticket_rotated = client.has_ticket();

    // Three resume cycles inside the same epoch: zero new attestations.
    for _ in 0..3 {
        call(&mut net, &mut client, &mut server, &mut asm, b"").expect("request serves");
        client.disconnect();
        let resumed = resume_or_establish(&mut net, &mut client, None, &mut server, &mut asm)
            .expect("resume");
        assert!(resumed, "within-epoch resume must redeem the ticket");
        ticket_rotated &= client.has_ticket();
    }
    let resumes = server.telemetry().metrics().counter("remote.resumes");
    let attestations_after_resumes = attest_count(&server);

    // The image is revoked: the epoch moves, every outstanding ticket
    // dies at redemption, and the next connect re-attests in full.
    registry.revoke(digest, "e18 recall").expect("revoke");
    server.set_epoch(current_session_epoch(&registry, &asm));
    client.disconnect();
    let resumed = resume_or_establish(&mut net, &mut client, None, &mut server, &mut asm)
        .expect("fallback handshake");
    assert!(!resumed, "a stale-epoch ticket must not resume");
    ticket_rotated &= client.has_ticket();
    let rejects = server
        .telemetry()
        .metrics()
        .counter("remote.resume_rejects");
    let attestations_after_revocation = attest_count(&server);

    ResumptionOutcome {
        attestations_after_connect,
        resumes,
        attestations_after_resumes,
        rejects,
        attestations_after_revocation,
        ticket_rotated,
    }
}

/// One mirror-failover scenario's outcome.
#[derive(Clone, Debug)]
pub struct FailoverScenario {
    /// Human-readable mirror health mix.
    pub mix: String,
    /// Mirror that served the verified bytes, or "-" for a typed miss.
    pub winner: String,
    /// Unreachable-mirror failover steps taken.
    pub unreachable: u32,
    /// Mirrors that answered a miss.
    pub misses: u32,
    /// Mirrors whose bytes failed digest verification.
    pub corrupt_rejected: u32,
    /// Whether the fetch concluded typed (verified bytes or a typed
    /// timeout) — anything else would be a lost fetch.
    pub concluded: bool,
}

/// Runs the mirror-failover leg: every health mix of a corrupt, a
/// silent, and a good/missing mirror, fetching the registry-published
/// image content-addressed.
#[must_use]
pub fn run_failover() -> Vec<FailoverScenario> {
    let publisher = SigningKey::from_seed(b"e18 mirror publisher");
    let mut registry = Registry::new("e18-mirrors");
    registry.trust_root(&publisher.verifying_key());
    let image = b"e18 mirrored component image".to_vec();
    let digest = registry
        .publish(
            &image,
            ManifestDraft::new("counter", &image).sign(&publisher, None),
        )
        .expect("publish");
    let bytes = registry.image_bytes(digest).expect("published bytes");
    let want = digest.0;
    let measure = |b: &[u8]| measurement_of(b).0;

    let mut out = Vec::new();
    // Health mixes: m0 corrupt?, m1 silent?, m2 holds the image?
    for corrupt in [false, true] {
        for silent in [false, true] {
            for m2_has in [true, false] {
                let mut net = Network::new("e18-fetch");
                let client = Addr::new("fetcher");
                net.register(client.clone());
                let mut mirrors = vec![
                    MirrorStore::bind(&mut net, "m0"),
                    MirrorStore::bind(&mut net, "m1"),
                    MirrorStore::bind(&mut net, "m2"),
                ];
                mirrors[0].publish(want, bytes.clone());
                mirrors[0].set_corrupt(corrupt);
                mirrors[1].publish(want, bytes.clone());
                mirrors[1].set_responsive(!silent);
                if m2_has {
                    mirrors[2].publish(want, bytes.clone());
                }
                let mix = format!(
                    "m0 {} | m1 {} | m2 {}",
                    if corrupt { "corrupt" } else { "good" },
                    if silent { "silent" } else { "good" },
                    if m2_has { "good" } else { "missing" },
                );
                let mut clock = 0;
                let result = fetch_verified(
                    &mut net,
                    &client,
                    &mut mirrors,
                    &want,
                    &measure,
                    &BackoffSchedule::capped(1, 4, 3),
                    &mut clock,
                );
                let scenario = match result {
                    Ok((got, report)) => {
                        assert_eq!(got, bytes, "verified bytes match the publication");
                        FailoverScenario {
                            mix,
                            winner: report.winner.unwrap_or_default(),
                            unreachable: report.unreachable,
                            misses: report.misses,
                            corrupt_rejected: report.corrupt_rejected,
                            concluded: true,
                        }
                    }
                    Err(lateral_net::NetError::Timeout(_)) => FailoverScenario {
                        mix,
                        winner: "-".to_string(),
                        unreachable: if silent { 1 } else { 0 },
                        misses: if m2_has { 0 } else { 1 },
                        corrupt_rejected: if corrupt { 1 } else { 0 },
                        concluded: true,
                    },
                    Err(e) => panic!("untyped fetch failure: {e}"),
                };
                out.push(scenario);
            }
        }
    }
    out
}

/// The throughput leg's wire-record counts.
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Requests issued on each path.
    pub requests: usize,
    /// Wire records (packets) for the lock-step path, handshake included.
    pub lockstep_records: u64,
    /// Wire records for the multiplexed path, handshake included.
    pub mux_records: u64,
}

/// Runs lock-step and multiplexed request streams over identical
/// software-backend pairs and counts their wire records.
#[must_use]
pub fn run_throughput() -> Throughput {
    // Lock-step: window 1, one request group and one reply group per
    // call.
    let mut asm = counter_assembly(vec![Box::new(SoftwareSubstrate::new("e18-lockstep"))]);
    let mut net = Network::new("e18-lockstep");
    let (mut server, mut client) = bind_pair(&mut net, plain_export(), ChannelPolicy::open());
    establish(&mut net, &mut client, None, &mut server, &mut asm).expect("establish");
    for _ in 0..THROUGHPUT_REQUESTS {
        call(&mut net, &mut client, &mut server, &mut asm, b"r").expect("lock-step call");
    }
    let lockstep_records = net.sent();

    // Multiplexed: a full window per sealed record group.
    let mut asm = counter_assembly(vec![Box::new(SoftwareSubstrate::new("e18-mux"))]);
    let mut net = Network::new("e18-mux-throughput");
    let (mut server, mut client) = bind_pair(&mut net, plain_export(), ChannelPolicy::open());
    server.set_window(THROUGHPUT_WINDOW);
    client.set_window(THROUGHPUT_WINDOW);
    establish(&mut net, &mut client, None, &mut server, &mut asm).expect("establish");
    let mut served = 0usize;
    while served < THROUGHPUT_REQUESTS {
        let batch = THROUGHPUT_WINDOW.min(THROUGHPUT_REQUESTS - served);
        for _ in 0..batch {
            client.submit(b"r").expect("submit");
        }
        client.flush(&mut net).expect("flush");
        server.pump(&mut net, &mut asm).expect("pump");
        loop {
            let replies = client.poll_group_replies(&mut net).expect("poll");
            if replies.is_empty() {
                break;
            }
            for (_, outcome) in replies {
                outcome.expect("multiplexed reply serves");
                served += 1;
            }
        }
    }
    let mux_records = net.sent();

    Throughput {
        requests: THROUGHPUT_REQUESTS,
        lockstep_records,
        mux_records,
    }
}

/// Renders the session report.
#[must_use]
pub fn report() -> String {
    let mux = run_mux();
    let resumption = run_resumption();
    let failover = run_failover();
    let throughput = run_throughput();

    let mut rows = vec![vec![
        "backend".to_string(),
        "submitted".to_string(),
        "served".to_string(),
        "refused".to_string(),
        "client session digest".to_string(),
        "server trace digest".to_string(),
    ]];
    for b in &mux {
        rows.push(vec![
            b.backend.clone(),
            b.submitted.to_string(),
            b.served.to_string(),
            b.refused.to_string(),
            b.client_digest.clone(),
            b.server_digest.clone(),
        ]);
    }
    let invariant = mux.iter().all(|b| {
        b.client_digest == mux[0].client_digest && b.server_digest == mux[0].server_digest
    });

    let mut resume_rows = vec![vec![
        "phase".to_string(),
        "attestations".to_string(),
        "resumes".to_string(),
        "rejects".to_string(),
    ]];
    resume_rows.push(vec![
        "connect (full handshake)".to_string(),
        resumption.attestations_after_connect.to_string(),
        "0".to_string(),
        "0".to_string(),
    ]);
    resume_rows.push(vec![
        "3 resume cycles, same epoch".to_string(),
        resumption.attestations_after_resumes.to_string(),
        resumption.resumes.to_string(),
        "0".to_string(),
    ]);
    resume_rows.push(vec![
        "revocation moves the epoch".to_string(),
        resumption.attestations_after_revocation.to_string(),
        resumption.resumes.to_string(),
        resumption.rejects.to_string(),
    ]);
    let fresh_within_epoch =
        resumption.attestations_after_resumes - resumption.attestations_after_connect;

    let mut failover_rows = vec![vec![
        "mirror mix".to_string(),
        "winner".to_string(),
        "unreachable".to_string(),
        "misses".to_string(),
        "corrupt".to_string(),
    ]];
    for s in &failover {
        failover_rows.push(vec![
            s.mix.clone(),
            s.winner.clone(),
            s.unreachable.to_string(),
            s.misses.to_string(),
            s.corrupt_rejected.to_string(),
        ]);
    }
    let lost = failover.iter().filter(|s| !s.concluded).count();
    let served_verified = failover.iter().filter(|s| s.winner != "-").count();

    let fewer = throughput.lockstep_records as f64 / throughput.mux_records.max(1) as f64;
    format!(
        "E18 — multiplexed remote sessions: resumption, windows, mirror failover\n\n\
         {}\n\
         Two request groups in flight over one secure channel; each entry\n\
         lands as a child span of its own caller, and the {}-entry server\n\
         window answers the overflow with a typed Overloaded refusal. The\n\
         session digests above encode structure only, so they are\n\
         identical on every backend (backend-invariant: {}).\n\n\
         Session resumption (attested microkernel export):\n\n\
         {}\n\
         A resumption ticket is bound to the verified evidence digest and\n\
         the (revocation, trust, re-grant) epoch, rotated on every use\n\
         (rotated: {}). Within the epoch, {} resumptions cost {} fresh\n\
         attestations; the revocation moves the epoch and the next\n\
         connect re-attests in full.\n\n\
         Content-addressed mirror failover ({} health mixes):\n\n\
         {}\n\
         The digest is verified regardless of source: corrupt mirrors\n\
         cost one failover, never an accepted forgery. {} of {} fetches\n\
         served verified bytes, the rest failed typed — {} lost\n\
         (conserved: {}).\n\n\
         Throughput, {} requests, window {}:\n\
         records on the wire: lock-step {} vs multiplexed {} ({:.1}x fewer)\n",
        render(&rows),
        WINDOW,
        if invariant { "yes" } else { "NO" },
        render(&resume_rows),
        if resumption.ticket_rotated {
            "yes"
        } else {
            "NO"
        },
        resumption.resumes,
        fresh_within_epoch,
        failover.len(),
        render(&failover_rows),
        served_verified,
        failover.len(),
        lost,
        if lost == 0 { "yes" } else { "NO" },
        throughput.requests,
        THROUGHPUT_WINDOW,
        throughput.lockstep_records,
        throughput.mux_records,
        fewer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplexed_digests_are_backend_invariant() {
        let mux = run_mux();
        assert_eq!(mux.len(), 6, "the mix covers every backend");
        for b in &mux {
            assert_eq!(
                b.client_digest, mux[0].client_digest,
                "{}: client session digest must be backend-invariant",
                b.backend
            );
            assert_eq!(
                b.server_digest, mux[0].server_digest,
                "{}: adopted-trace digest must be backend-invariant",
                b.backend
            );
            assert_eq!(b.served, WINDOW + GROUP2, "{}", b.backend);
            assert_eq!(b.refused, 1, "{}: exactly the over-window entry", b.backend);
        }
    }

    #[test]
    fn resumption_amortizes_attestation_until_the_epoch_moves() {
        let r = run_resumption();
        assert_eq!(r.attestations_after_connect, 1);
        assert_eq!(r.resumes, 3);
        assert_eq!(
            r.attestations_after_resumes, 1,
            "zero fresh attestations within the epoch"
        );
        assert_eq!(r.rejects, 1);
        assert_eq!(
            r.attestations_after_revocation, 2,
            "the revocation forces exactly one re-attestation"
        );
        assert!(r.ticket_rotated);
    }

    #[test]
    fn every_fetch_concludes_typed_with_zero_lost() {
        let failover = run_failover();
        assert_eq!(failover.len(), 8);
        assert!(failover.iter().all(|s| s.concluded), "no lost fetches");
        // Whenever any mirror holds genuine bytes, the fetch succeeds.
        assert_eq!(
            failover.iter().filter(|s| s.winner != "-").count(),
            7,
            "only the all-bad mix (corrupt + silent + missing) fails, typed"
        );
    }

    #[test]
    fn multiplexing_slashes_wire_records() {
        let t = run_throughput();
        assert!(
            t.mux_records * 4 < t.lockstep_records,
            "one record group per window must cut wire records by far more \
             than 4x (lock-step {}, multiplexed {})",
            t.lockstep_records,
            t.mux_records
        );
    }

    #[test]
    fn report_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
