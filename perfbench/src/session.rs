//! `session`: Figure 3's remote path.
//!
//! One `RemoteServer` exports an attested component: it runs on an
//! attesting microkernel and is admitted through the registry
//! (`compose_admitted`). Client A multiplexes groups of 32 requests at
//! window 32; client B makes lock-step `call`-style requests (window 1).
//! Most payloads are 24 B, one in sixteen is 1 KiB. Each client now and
//! then disconnects and resumes with its ticket, and at seeded intervals
//! the registry revokes another image: the session epoch moves, both
//! clients' tickets are refused, and both re-attest in full.
//!
//! The simulated `Network` records every packet it carries, so each epoch
//! runs on a fresh one; otherwise memory would grow with run length.

use std::time::{Duration, Instant};

use lateral_core::composer::{compose_admitted, Assembly};
use lateral_core::manifest::{AppManifest, ComponentManifest};
use lateral_core::remote::{current_session_epoch, RemoteClient, RemoteServer, ServiceExport};
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_hw::machine::MachineBuilder;
use lateral_microkernel::Microkernel;
use lateral_net::channel::ChannelPolicy;
use lateral_net::sim::Network;
use lateral_net::Addr;
use lateral_registry::{ManifestDraft, Registry};
use lateral_substrate::attest::TrustPolicy;
use lateral_substrate::cap::Badge;
use lateral_substrate::component::Component;
use lateral_substrate::testkit::Echo;

use crate::host::Gauge;
use crate::probes::{GROUP, LARGE, SMALL};
use crate::report::{peak_rss_mb, stretch_over, Modes, Outcome, Segments, Setups};
use crate::rng::Rng;
use crate::stats::{median, Samples};
use crate::trace::{Name, Tracer};
use crate::{Checker, Faults};

const SERVICE_IMAGE: &[u8] = b"perfbench session service v1";
/// Lock-step requests client B makes per turn.
const LOCKSTEP: usize = 8;
/// One request in this many carries a 1 KiB payload.
const LARGE_ONE_IN: u64 = 16;
/// Per turn, each client disconnects and resumes with this chance.
const RESUME_ONE_IN: u64 = 32;
/// Turns between two revocations (inclusive range, seeded).
const EPOCH_TURNS: (u64, u64) = (96, 160);
/// Generated payloads per size.
const POOL: usize = 256;
/// Identical bring-ups per run, spread through it; `setup_s` is their
/// median.
const SETUPS: u32 = 31;
/// Turns of warm-up inside each bring-up.
const WARMUP_TURNS: u64 = 8;
/// Seed of the fixed inputs every bring-up warms up on.
const WARMUP_SEED: u64 = 0;

#[derive(Clone, Copy)]
enum Who {
    A,
    B,
}

struct Names {
    turn: Name,
    submit: Name,
    flush: Name,
    pump: Name,
    poll_group: Name,
    send_request: Name,
    poll_reply: Name,
    hs_start: Name,
    hs_accept: Name,
    hs_verify: Name,
    hs_finish: Name,
    resume: Name,
    revoke: Name,
}

impl Names {
    fn new(t: &mut Tracer) -> Names {
        Names {
            turn: t.intern("bench.turn"),
            submit: t.intern("remote.submit"),
            flush: t.intern("remote.flush"),
            pump: t.intern("remote.pump"),
            poll_group: t.intern("remote.poll_group"),
            send_request: t.intern("remote.send_request"),
            poll_reply: t.intern("remote.poll_reply"),
            hs_start: t.intern("remote.hs_start"),
            hs_accept: t.intern("remote.hs_accept"),
            hs_verify: t.intern("remote.hs_verify"),
            hs_finish: t.intern("remote.hs_finish"),
            resume: t.intern("remote.resume"),
            revoke: t.intern("registry.revoke"),
        }
    }
}

/// Latency samples and request counts.
#[derive(Default)]
struct Tally {
    requests: u64,
    failed: u64,
    latency_us: Samples,
    lockstep_us: Samples,
    connect_us: Samples,
    resume_us: Samples,
    connects: u64,
    resumes: u64,
}

/// Packet totals of the networks the run has retired.
#[derive(Default)]
struct NetTotals {
    packets: u64,
    delivered: u64,
    dropped: u64,
    bytes: u64,
}

impl NetTotals {
    fn absorb(&mut self, net: &Network) {
        self.packets += net.recorded().len() as u64;
        self.bytes += net
            .recorded()
            .iter()
            .map(|p| p.payload.len() as u64)
            .sum::<u64>();
        self.delivered += net.delivered();
        self.dropped += net.dropped();
    }
}

struct World {
    registry: Registry,
    publisher: SigningKey,
    asm: Assembly,
    server: RemoteServer,
    net: Network,
    a: RemoteClient,
    b: RemoteClient,
    small: Vec<Vec<u8>>,
    large: Vec<Vec<u8>>,
    schedule: Rng,
    next_epoch_at: u64,
    revoked: u64,
    cursor: usize,
    names: Names,
    checker: Checker,
    retired: NetTotals,
    admit_ms: f64,
}

/// Payload `i`: small below [`POOL`], large from there on.
fn pick<'a>(small: &'a [Vec<u8>], large: &'a [Vec<u8>], i: usize) -> &'a [u8] {
    if i >= POOL {
        &large[i - POOL]
    } else {
        &small[i]
    }
}

fn fresh_network(epoch: u64) -> Network {
    let mut net = Network::new(&format!("perfbench-session-{epoch}"));
    for addr in ["svc", "client-a", "client-b"] {
        net.register(Addr::new(addr));
    }
    net
}

impl World {
    /// Builds, connects and warms up the workload on fixed inputs, so every
    /// seed's bring-up does the same work; [`World::seed_inputs`] then
    /// draws the measured inputs.
    fn bring_up(tracer: &mut Tracer, faults: Faults) -> World {
        let publisher = SigningKey::from_seed(b"perfbench publisher");
        let mut registry = Registry::new("perfbench");
        registry.trust_root(&publisher.verifying_key());
        let digest = registry
            .publish(
                SERVICE_IMAGE,
                ManifestDraft::new("svc", SERVICE_IMAGE).sign(&publisher, None),
            )
            .expect("publish");
        registry.certify(digest).expect("certify");

        let platform = SigningKey::from_seed(b"perfbench session platform");
        let mk = Microkernel::new(
            MachineBuilder::new()
                .name("perfbench-mk")
                .frames(256)
                .build(),
            "perfbench-session",
        )
        .with_attestation(platform.clone(), Digest::of(b"perfbench boot stack"));
        let app = AppManifest::new(
            "session",
            vec![ComponentManifest::new("svc").image(SERVICE_IMAGE)],
        );
        let mut factory = |_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>);
        let t0 = Instant::now();
        let asm = compose_admitted(&app, vec![Box::new(mk)], &mut factory, &mut registry)
            .expect("the certified service is admitted");
        let admit_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut net = fresh_network(0);
        let mut server = RemoteServer::bind(
            &mut net,
            Addr::new("svc"),
            ServiceExport {
                component: "svc".to_string(),
                badge: Badge(0x5e5),
                identity: SigningKey::from_seed(b"perfbench service identity"),
                client_policy: ChannelPolicy::open(),
                attest: true,
            },
        );
        server.set_epoch(current_session_epoch(&registry, &asm));
        server.set_window(GROUP);
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(asm.measurement("svc").expect("placed"));
        let policy = ChannelPolicy::open().with_attestation(trust);
        let client = |net: &mut Network, name: &str| {
            RemoteClient::new(
                net,
                Addr::new(name),
                Addr::new("svc"),
                SigningKey::from_seed(name.as_bytes()),
                policy.clone(),
                None,
            )
        };
        let mut a = client(&mut net, "client-a");
        a.set_window(GROUP);
        let b = client(&mut net, "client-b");

        let mut world = World {
            registry,
            publisher,
            asm,
            server,
            net,
            a,
            b,
            small: Vec::new(),
            large: Vec::new(),
            schedule: Rng::new(WARMUP_SEED, "session.schedule"),
            next_epoch_at: 0,
            revoked: 0,
            cursor: 0,
            names: Names::new(tracer),
            checker: Checker::new(faults),
            retired: NetTotals::default(),
            admit_ms,
        };
        world.seed_inputs(WARMUP_SEED);
        let mut warm = Tally::default();
        world.connect(Who::A, 0, tracer, &mut warm);
        world.connect(Who::B, 0, tracer, &mut warm);
        for turn in 0..WARMUP_TURNS {
            world.requests(turn, tracer, &mut warm);
        }
        world
    }

    /// Draws the payload pools and the payload, resume and epoch schedule
    /// from `seed`; the first epoch move is counted from turn 0.
    fn seed_inputs(&mut self, seed: u64) {
        let mut payloads = Rng::new(seed, "session.payloads");
        self.small = (0..POOL).map(|_| payloads.bytes(SMALL)).collect();
        self.large = (0..POOL).map(|_| payloads.bytes(LARGE)).collect();
        self.schedule = Rng::new(seed, "session.schedule");
        self.next_epoch_at = self.schedule.range(EPOCH_TURNS.0, EPOCH_TURNS.1);
        self.cursor = 0;
    }

    /// One client together with the network it talks over.
    fn client(&mut self, who: Who) -> (&mut RemoteClient, &mut Network) {
        match who {
            Who::A => (&mut self.a, &mut self.net),
            Who::B => (&mut self.b, &mut self.net),
        }
    }

    fn attestations(&self) -> u64 {
        self.server
            .telemetry()
            .metrics()
            .counter("remote.attestations")
    }

    /// The full attested handshake, step by step.
    fn connect(&mut self, who: Who, op: u64, tracer: &mut Tracer, tally: &mut Tally) {
        let before = self.attestations();
        let n = &self.names;
        let (hs_start, hs_accept, hs_verify, hs_finish) =
            (n.hs_start, n.hs_accept, n.hs_verify, n.hs_finish);
        let t0 = Instant::now();
        let span = tracer.begin(hs_start, op, 1);
        let (client, net) = self.client(who);
        let mut ok = client.start(net).is_ok();
        tracer.end(span);
        let span = tracer.begin(hs_accept, op, 1);
        ok &= self.server.pump(&mut self.net, &mut self.asm).is_ok();
        tracer.end(span);
        let span = tracer.begin(hs_verify, op, 1);
        let (client, net) = self.client(who);
        ok &= client.poll_handshake(net, None).is_ok();
        tracer.end(span);
        let span = tracer.begin(hs_finish, op, 1);
        ok &= self.server.pump(&mut self.net, &mut self.asm).is_ok();
        let (client, net) = self.client(who);
        ok &= client.poll_handshake(net, None).is_ok();
        tracer.end(span);
        let elapsed = t0.elapsed();
        ok &= self.client(who).0.connected();
        tally.connects += 1;
        tally.connect_us.push(elapsed.as_secs_f64() * 1e6);
        if !ok {
            self.checker.fail(format!("full connect failed at op {op}"));
        }
        let after = self.attestations();
        if after != before + 1 {
            self.checker.fail(format!(
                "a full connect moved remote.attestations by {} instead of 1",
                after - before
            ));
        }
    }

    /// Disconnects and redeems the ticket; returns whether it resumed.
    fn resume(&mut self, who: Who, op: u64, tracer: &mut Tracer, tally: &mut Tally) -> bool {
        let before = self.attestations();
        self.client(who).0.disconnect();
        let t0 = Instant::now();
        let span = tracer.begin(self.names.resume, op, 1);
        let (client, net) = self.client(who);
        let sent = client.resume(net).is_ok();
        let pumped = self.server.pump(&mut self.net, &mut self.asm).is_ok();
        let (client, net) = self.client(who);
        let answered = client.poll_handshake(net, None).is_ok();
        tracer.end(span);
        let resumed = sent && pumped && answered && self.client(who).0.connected();
        if resumed {
            tally.resumes += 1;
            tally.resume_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if self.attestations() != before {
                self.checker
                    .fail("a ticket resumption performed an attestation".to_string());
            }
        }
        resumed
    }

    /// Revokes another image: the epoch moves, the network is replaced,
    /// and both clients re-attest in full after their tickets are refused.
    fn move_epoch(&mut self, op: u64, tracer: &mut Tracer, tally: &mut Tally) {
        let span = tracer.begin(self.names.revoke, op, 1);
        self.revoked += 1;
        let image = format!("perfbench decoy image {}", self.revoked);
        let name = format!("decoy{}", self.revoked);
        let digest = self
            .registry
            .publish(
                image.as_bytes(),
                ManifestDraft::new(&name, image.as_bytes()).sign(&self.publisher, None),
            )
            .expect("publish decoy");
        self.registry
            .revoke(digest, "perfbench recall")
            .expect("revoke");
        tracer.end(span);
        self.server
            .set_epoch(current_session_epoch(&self.registry, &self.asm));
        self.retired.absorb(&self.net);
        self.net = fresh_network(self.revoked);
        for who in [Who::A, Who::B] {
            if self.resume(who, op, tracer, tally) {
                self.checker
                    .fail("a ticket from before the revocation resumed".to_string());
            }
            self.connect(who, op, tracer, tally);
        }
        self.next_epoch_at = op + self.schedule.range(EPOCH_TURNS.0, EPOCH_TURNS.1);
    }

    fn payload(&mut self) -> usize {
        self.cursor = (self.cursor + 1) % POOL;
        if self.schedule.chance(1, LARGE_ONE_IN) {
            POOL + self.cursor
        } else {
            self.cursor
        }
    }

    /// A's group of 32, then B's lock-step requests.
    fn requests(&mut self, op: u64, tracer: &mut Tracer, tally: &mut Tally) {
        let n = &self.names;
        let (submit, flush, pump, poll_group) = (n.submit, n.flush, n.pump, n.poll_group);
        let (send_request, poll_reply) = (n.send_request, n.poll_reply);

        let picks: Vec<usize> = (0..GROUP).map(|_| self.payload()).collect();
        let t0 = Instant::now();
        let span = tracer.begin(submit, op, GROUP as u32);
        let mut ids = Vec::with_capacity(GROUP);
        for &i in &picks {
            ids.push(self.a.submit(pick(&self.small, &self.large, i)).ok());
        }
        tracer.end(span);
        let span = tracer.begin(flush, op, 1);
        let flushed = self.a.flush(&mut self.net).is_ok();
        tracer.end(span);
        let span = tracer.begin(pump, op, 1);
        let pumped = self.server.pump(&mut self.net, &mut self.asm).is_ok();
        tracer.end(span);
        let span = tracer.begin(poll_group, op, 1);
        let replies = self.a.poll_group_replies(&mut self.net);
        tracer.end(span);
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
        tally.requests += GROUP as u64;
        match replies {
            Ok(replies) if flushed && pumped => {
                let mut served = 0;
                for (id, reply) in replies {
                    let Some(pos) = ids.iter().position(|x| *x == Some(id)) else {
                        self.checker
                            .fail(format!("reply id {id} was never submitted"));
                        continue;
                    };
                    ids[pos] = None;
                    match reply {
                        Ok(bytes) => {
                            served += 1;
                            let want = pick(&self.small, &self.large, picks[pos]);
                            self.checker.check("group reply", &bytes, want);
                        }
                        Err(e) => self.checker.fail(format!("request {id} refused: {e}")),
                    }
                }
                tally.failed += (GROUP - served) as u64;
                if served < GROUP {
                    self.checker.fail(format!(
                        "{} of {GROUP} group replies missing or refused",
                        GROUP - served
                    ));
                }
                tally.latency_us.push_n(rtt_us, GROUP);
            }
            _ => {
                tally.failed += GROUP as u64;
                self.checker
                    .fail(format!("request group at op {op} failed"));
            }
        }

        for _ in 0..LOCKSTEP {
            let i = self.payload();
            let t0 = Instant::now();
            let span = tracer.begin(send_request, op, 1);
            let payload = pick(&self.small, &self.large, i);
            let sent = self.b.send_request(&mut self.net, payload).is_ok();
            tracer.end(span);
            let span = tracer.begin(pump, op, 1);
            let pumped = self.server.pump(&mut self.net, &mut self.asm).is_ok();
            tracer.end(span);
            let span = tracer.begin(poll_reply, op, 1);
            let reply = self.b.poll_reply(&mut self.net);
            tracer.end(span);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            tally.requests += 1;
            match reply {
                Ok(Some(bytes)) if sent && pumped => {
                    let want = pick(&self.small, &self.large, i);
                    self.checker.check("lock-step reply", &bytes, want);
                    tally.latency_us.push(us);
                    tally.lockstep_us.push(us);
                }
                _ => {
                    tally.failed += 1;
                    self.checker
                        .fail(format!("lock-step request at op {op} failed"));
                }
            }
        }
    }

    /// One turn: scheduled epoch move or resumes, then the requests.
    fn turn(&mut self, op: u64, tracer: &mut Tracer, tally: &mut Tally) {
        let span = tracer.begin(self.names.turn, op, 0);
        if op >= self.next_epoch_at {
            self.move_epoch(op, tracer, tally);
        }
        for who in [Who::A, Who::B] {
            if self.schedule.chance(1, RESUME_ONE_IN) && !self.resume(who, op, tracer, tally) {
                self.checker
                    .fail(format!("a same-epoch resumption failed at op {op}"));
                self.connect(who, op, tracer, tally);
            }
        }
        self.requests(op, tracer, tally);
        tracer.end(span);
    }

    /// Attestations, resumes and resume rejects as the server counts
    /// them, and overloads refused by the server window or a client.
    fn counters(&self) -> [u64; 4] {
        let server = |name| self.server.telemetry().metrics().counter(name);
        let client_overloads: u64 = [&self.a, &self.b]
            .iter()
            .map(|c| c.telemetry().metrics().counter("remote.overloads"))
            .sum();
        [
            server("remote.attestations"),
            server("remote.resumes"),
            server("remote.resume_rejects"),
            server("remote.overloads") + client_overloads,
        ]
    }

    fn spans(&mut self) -> (u64, u64) {
        let fabric = self
            .asm
            .substrate_mut(0)
            .telemetry_ref()
            .map_or((0, 0), |t| {
                (
                    t.spans_recorded(),
                    t.spans_recorded() - t.span_count() as u64,
                )
            });
        [
            self.server.telemetry(),
            self.a.telemetry(),
            self.b.telemetry(),
        ]
        .iter()
        .fold(fabric, |(r, e), t| {
            (
                r + t.spans_recorded(),
                e + t.spans_recorded() - t.span_count() as u64,
            )
        })
    }
}

/// Runs the workload for `seconds`; see [`crate::invoke::run`].
pub fn run(seed: u64, seconds: f64, trace: bool, faults: Faults) -> Outcome {
    let mut tracer = Tracer::new(false);
    let mut world = World::bring_up(&mut tracer, faults);
    world.seed_inputs(seed);
    let counters_before = world.counters();
    let spans_before = world.spans();
    // Timed bring-ups build and drop worlds of their own.
    let mut admit_ms = vec![world.admit_ms];
    let mut bring_up = || {
        let w = World::bring_up(&mut Tracer::new(false), faults);
        admit_ms.push(w.admit_ms);
        w
    };

    let mut tally = Tally::default();
    let mut modes = Modes::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut setups = Setups::new(SETUPS, budget);
    let mut gauge = Gauge::new();
    let start = Instant::now();
    let mut segment_start = start;
    let mut op = 0u64;
    let mut busy = Duration::ZERO;
    let mut segments = Segments::new(Duration::from_millis(500));
    while start.elapsed() < budget {
        gauge.maybe();
        if trace && stretch_over(&tracer, segment_start) {
            tracer.set_enabled(!tracer.enabled());
            segment_start = Instant::now();
        }
        let (before, epoch) = (tally.requests, world.revoked);
        let t0 = Instant::now();
        world.turn(op, &mut tracer, &mut tally);
        let dt = t0.elapsed();
        busy += dt;
        modes.add(tracer.enabled(), tally.requests - before, dt);
        segments.add(tally.requests - before, dt);
        op += 1;
        // Just after an epoch move the network is fresh, so the working
        // world holds the same memory on every seed while a bring-up's
        // world exists beside it.
        if world.revoked != epoch {
            setups.maybe(start.elapsed(), &mut gauge, &mut bring_up);
        }
    }
    setups.finish(&mut gauge, &mut bring_up);
    let busy = busy.as_secs_f64();

    let mut out = Outcome {
        attempted: tally.requests,
        failed: tally.failed,
        ..Outcome::default()
    };
    world.checker.report(
        &mut out,
        "replies matched to their submissions and payloads",
    );
    out.lines.push(format!(
        "check: {} full connects (one attestation each) and {} resumes (none) checked",
        tally.connects, tally.resumes
    ));
    if trace {
        let totals = tracer.totals();
        for (metric, span) in [
            ("remote.submit_ns", "remote.submit"),
            ("remote.flush_ns", "remote.flush"),
            ("remote.poll_group_ns", "remote.poll_group"),
            ("remote.send_request_ns", "remote.send_request"),
            ("remote.poll_reply_ns", "remote.poll_reply"),
            ("remote.pump_ns", "remote.pump"),
            ("remote.hs_start_ns", "remote.hs_start"),
            ("remote.hs_accept_ns", "remote.hs_accept"),
            ("remote.hs_verify_ns", "remote.hs_verify"),
            ("remote.hs_finish_ns", "remote.hs_finish"),
            ("remote.resume_ns", "remote.resume"),
        ] {
            if let Some(t) = totals.get(span) {
                if let Some(ns) = t.ns_per_call() {
                    out.metric(metric, ns, t.calls, "traced calls");
                }
            }
        }
        let after = world.counters();
        let d: Vec<u64> = after
            .iter()
            .zip(counters_before)
            .map(|(a, b)| a - b)
            .collect();
        out.count("remote.attestations", d[0], "server counter, whole run");
        out.count("remote.resumes", d[1], "server counter, whole run");
        out.count("remote.resume_rejects", d[2], "server counter, whole run");
        out.count(
            "remote.overloads",
            d[3],
            "server + client counters, whole run",
        );
        out.metric(
            "remote.resume_useful_ratio",
            d[1] as f64 / (d[1] + d[2]).max(1) as f64,
            d[1] + d[2],
            "resumes / (resumes + rejects)",
        );
        let mut nets = std::mem::take(&mut world.retired);
        nets.absorb(&world.net);
        let requests = tally.requests.max(1) as f64;
        out.count("net.packets", nets.packets, "all networks, whole run");
        out.count("net.delivered", nets.delivered, "all networks, whole run");
        out.count("net.dropped", nets.dropped, "all networks, whole run");
        out.metric(
            "net.recorded_mb",
            nets.bytes as f64 / (1024.0 * 1024.0),
            nets.packets,
            "payload bytes the networks recorded",
        );
        out.metric(
            "net.records_per_request",
            nets.packets as f64 / requests,
            tally.requests,
            "",
        );
        out.metric(
            "net.bytes_per_request",
            nets.bytes as f64 / requests,
            tally.requests,
            "",
        );
        let stats = world.registry.stats();
        out.metric(
            "registry.admit_ms",
            median(&admit_ms),
            admit_ms.len() as u64,
            "compose_admitted, median of bring-ups",
        );
        out.count("registry.resolves", stats.resolves, "whole run");
        out.metric(
            "registry.cache_hit_ratio",
            stats.hit_ratio(),
            stats.cache_hits + stats.cache_misses,
            "verdict cache",
        );
        let (rec, ev) = world.spans();
        out.metric(
            "telemetry.spans_per_op",
            (rec - spans_before.0) as f64 / requests,
            tally.requests,
            "server, clients and fabric spans per request",
        );
        out.count("telemetry.span_evictions", ev - spans_before.1, "whole run");
        let fabric = world.asm.substrate_mut(0).fabric_ref().expect("fabric");
        out.count(
            "fabric.invocations",
            fabric.stats().total_invocations(),
            "server fabric",
        );
        out.count(
            "fabric.denials",
            fabric.stats().total_denials(),
            "server fabric",
        );
        out.count(
            "fabric.trace_evictions",
            fabric.events_recorded() - fabric.trace_len() as u64,
            "server fabric",
        );
        modes.report(&mut out);
        crate::selftime_table(&mut out, &tracer, op);
        crate::write_trace(&tracer, "session", &mut out);
    } else {
        setups.report(
            &mut out,
            "publish + certify, compose_admitted, bind, two attested connects, warm-up",
        );
        let wall = (tally.requests - tally.failed) as f64 / busy;
        out.metric(
            "ops_per_s",
            gauge.rate(wall),
            tally.requests - tally.failed,
            format!("completed requests over {busy:.3} s of turns, {wall:.0}/s wall-clock"),
        );
        let scale = gauge.time(1.0);
        for (name, samples, pm, what) in [
            (
                "latency_p50_us",
                &tally.latency_us,
                500,
                "per-request round trips",
            ),
            (
                "latency_p90_us",
                &tally.latency_us,
                900,
                "per-request round trips",
            ),
            (
                "latency_p99_us",
                &tally.latency_us,
                990,
                "per-request round trips",
            ),
            ("lockstep_p50_us", &tally.lockstep_us, 500, "client B calls"),
            (
                "connect_p50_us",
                &tally.connect_us,
                500,
                "full attested handshakes",
            ),
            ("resume_p50_us", &tally.resume_us, 500, "ticket resumptions"),
        ] {
            out.percentile(name, samples, pm, scale, what);
        }
        out.metric("peak_rss_mb", peak_rss_mb(), 1, "VmHWM");
        out.metric(
            "failed_ratio",
            tally.failed as f64 / tally.requests.max(1) as f64,
            tally.requests,
            "failed or refused requests / attempted requests",
        );
        out.lines.push(format!(
            "turns {op}, epoch moves {}, connects {}, resumes {}",
            world.revoked, tally.connects, tally.resumes
        ));
        out.lines.push(segments.line());
        out.lines.push(gauge.line());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seeds_pass_the_checks_and_a_corrupted_reply_fails_the_run() {
        for seed in [1, 2] {
            let out = run(seed, 0.05, false, Faults::default());
            assert!(out.correct(), "seed {seed}: {:?}", out.violations);
            assert_eq!(out.failed, 0);
        }
        let out = run(
            3,
            0.05,
            false,
            Faults {
                corrupt_reply: Some(100),
                ..Faults::default()
            },
        );
        assert!(!out.correct(), "a corrupted reply must fail the run");
    }

    #[test]
    fn epochs_force_full_connects_and_resumes_attest_nothing() {
        let mut tracer = Tracer::new(false);
        let mut world = World::bring_up(&mut tracer, Faults::default());
        world.seed_inputs(4);
        let mut tally = Tally::default();
        let before = world.attestations();
        world.move_epoch(1, &mut tracer, &mut tally);
        assert_eq!(world.attestations(), before + 2, "both clients re-attest");
        assert!(world.resume(Who::A, 2, &mut tracer, &mut tally));
        assert_eq!(world.attestations(), before + 2, "a resume attests nothing");
        let mut out = Outcome::default();
        world.checker.report(&mut out, "");
        assert!(out.correct(), "{:?}", out.violations);
    }

    #[test]
    fn inputs_come_from_the_seed() {
        let world = |seed| {
            let mut w = World::bring_up(&mut Tracer::new(false), Faults::default());
            w.seed_inputs(seed);
            w
        };
        let (a, b, c) = (world(7), world(7), world(8));
        assert_eq!(a.small, b.small);
        assert_eq!(a.large, b.large);
        assert_eq!(a.next_epoch_at, b.next_epoch_at);
        assert_ne!(a.small, c.small);
        assert_ne!(a.large, c.large);
    }
}
