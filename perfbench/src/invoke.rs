//! `invoke`: local cross-domain calls on all six backends.
//!
//! Every round runs one fixed multiset of call blocks in a seeded order:
//! echo calls, `MemoryScribe` calls (the MMU-walk `mem_write`/`mem_read`
//! bodies), two-hop `Forwarder` calls (not on flicker, which refuses
//! nested calls), `invoke_batch` blocks, `Assembly::call_channel` calls,
//! and local and cross-shard calls through a two-shard `ShardFabric`;
//! the round ends with a shard epoch barrier. Flicker's late launch costs
//! ten times a plain crossing, so it gets one echo and one scribe block
//! per round against the other backends' nine blocks each.

use std::time::{Duration, Instant};

use lateral_core::composer::{compose, Assembly};
use lateral_core::manifest::{AppManifest, ComponentManifest};
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_flicker::Flicker;
use lateral_hw::machine::MachineBuilder;
use lateral_microkernel::Microkernel;
use lateral_sep::Sep;
use lateral_sgx::Sgx;
use lateral_substrate::cap::{Badge, ChannelCap};
use lateral_substrate::component::Component;
use lateral_substrate::shard::{ShardFabric, ShardId};
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::{Counter, Echo, Forwarder, MemoryScribe};
use lateral_substrate::DomainId;
use lateral_trustzone::TrustZone;

use crate::host::Gauge;
use crate::report::{peak_rss_mb, stretch_over, Modes, Outcome, Segments, Setups};
use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::{Name, Tracer};
use crate::{Checker, Faults};

/// Backends in report order; flicker last.
pub const BACKENDS: [&str; 6] = [
    "software",
    "microkernel",
    "trustzone",
    "sgx",
    "sep",
    "flicker",
];
const FLICKER: usize = 5;
/// Calls per timed block (one latency sample per block).
const BLOCK: usize = 32;
/// Payloads per `invoke_batch` block (four samples' worth of calls).
const BATCH: usize = 4 * BLOCK;
/// Echo payload size.
const ECHO_BYTES: usize = 64;
/// Generated payloads per pool.
const POOL: usize = 512;
/// Identical bring-ups per run, spread through it; `setup_s` is their
/// median as on the reference host.
const SETUPS: u32 = 31;
/// Rounds of warm-up inside each bring-up.
const WARMUP_ROUNDS: u64 = 16;
/// Seed of the fixed inputs every bring-up warms up on.
const WARMUP_SEED: u64 = 0;
/// Rounds between re-provisioning flicker: its TPM event log gains an
/// entry per late launch, so a long run would otherwise grow without bound.
const FLICKER_REBOOT: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Echo(usize),
    Scribe(usize),
    Forward(usize),
    Batch(usize),
    Channel,
    ShardLocal,
    ShardCross,
}

/// The fixed per-round mix, before the seeded shuffle.
fn round_mix() -> Vec<Call> {
    let mut mix = Vec::new();
    for b in 0..FLICKER {
        mix.extend([Call::Echo(b); 4]);
        mix.extend([Call::Scribe(b); 2]);
        mix.extend([Call::Forward(b); 2]);
        mix.push(Call::Batch(b));
    }
    mix.extend([Call::Echo(FLICKER), Call::Scribe(FLICKER)]);
    mix.extend([Call::Channel; 4]);
    mix.extend([Call::ShardLocal; 4]);
    mix.extend([Call::ShardCross; 2]);
    mix
}

/// One backend with its client, echo, scribe and forwarder wiring.
struct Backend {
    sub: Box<dyn Substrate>,
    client: DomainId,
    echo: ChannelCap,
    scribe: ChannelCap,
    forward: Option<ChannelCap>,
}

/// Builds the six platforms the way the conformance suite does.
fn platforms() -> Vec<Box<dyn Substrate>> {
    let machine = |name: &str| MachineBuilder::new().name(name).frames(256).build();
    vec![
        Box::new(SoftwareSubstrate::new("bench")),
        Box::new(
            Microkernel::new(machine("bench-mk"), "bench").with_attestation(
                SigningKey::from_seed(b"bench mk platform"),
                Digest::of(b"bench boot stack"),
            ),
        ),
        Box::new(TrustZone::new(machine("bench-tz"), "bench")),
        Box::new(Sgx::new(machine("bench-sgx"), "bench")),
        Box::new(Sep::new(machine("bench-sep"), "bench")),
        Box::new(Flicker::new("bench")),
    ]
}

fn wire(mut sub: Box<dyn Substrate>, nested: bool) -> Backend {
    let spawn = |sub: &mut Box<dyn Substrate>, name: &str, c: Box<dyn Component>| {
        sub.spawn(DomainSpec::named(name), c).expect("spawn")
    };
    let client = spawn(&mut sub, "client", Box::new(Echo));
    let echo_dom = spawn(&mut sub, "echo", Box::new(Echo));
    let scribe_dom = spawn(&mut sub, "scribe", Box::new(MemoryScribe));
    let echo = sub
        .grant_channel(client, echo_dom, Badge(1))
        .expect("grant");
    let scribe = sub
        .grant_channel(client, scribe_dom, Badge(2))
        .expect("grant");
    let forward = nested.then(|| {
        let fwd = spawn(&mut sub, "forwarder", Box::new(Forwarder));
        sub.grant_channel(fwd, echo_dom, Badge(3)).expect("grant");
        sub.grant_channel(client, fwd, Badge(4)).expect("grant")
    });
    Backend {
        sub,
        client,
        echo,
        scribe,
        forward,
    }
}

/// Span names, interned once.
struct Names {
    round: Name,
    echo: Vec<Name>,
    scribe: Vec<Name>,
    forward: Vec<Name>,
    batch: Vec<Name>,
    channel: Name,
    local: Name,
    cross: Name,
    epoch: Name,
}

impl Names {
    fn new(t: &mut Tracer) -> Names {
        let per = |t: &mut Tracer, kind: &str| -> Vec<Name> {
            BACKENDS
                .iter()
                .map(|b| t.intern(&format!("fabric.{kind}.{b}")))
                .collect()
        };
        Names {
            round: t.intern("bench.round"),
            echo: per(t, "invoke"),
            scribe: per(t, "mem_invoke"),
            forward: per(t, "forward"),
            batch: per(t, "batch"),
            channel: t.intern("composer.call_channel"),
            local: t.intern("shard.local"),
            cross: t.intern("shard.xshard"),
            epoch: t.intern("shard.advance_epoch"),
        }
    }
}

/// Per-call latency samples and call counts of a run phase.
#[derive(Default)]
struct Tally {
    calls: u64,
    failed: u64,
    latency_us: Samples,
}

/// The wired-up workload.
struct World {
    backends: Vec<Backend>,
    asm: Assembly,
    shards: ShardFabric,
    front: DomainId,
    local: ChannelCap,
    cross: ChannelCap,
    /// Replies the cross-shard `Counter` has given so far.
    cross_count: u64,
    echo_pool: Vec<Vec<u8>>,
    scribe_pool: Vec<Vec<u8>>,
    mix: Vec<Call>,
    mix_rng: Rng,
    cursor: usize,
    names: Names,
    checker: Checker,
    /// Counters of flicker instances already replaced.
    retired: [u64; 5],
}

impl World {
    /// Builds and warms up the workload on fixed inputs, so every seed's
    /// bring-up allocates the same way and `setup_s` and peak memory do
    /// not depend on the seed; [`World::seed_inputs`] then draws the
    /// measured inputs.
    fn bring_up(tracer: &mut Tracer, faults: Faults) -> World {
        let backends: Vec<Backend> = platforms()
            .into_iter()
            .enumerate()
            .map(|(i, sub)| wire(sub, i != FLICKER))
            .collect();
        let app = AppManifest::new(
            "bench",
            vec![
                ComponentManifest::new("ui").channel("ask", "svc", 1),
                ComponentManifest::new("svc"),
            ],
        );
        let mut factory = |_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>);
        let pool: Vec<Box<dyn Substrate>> = vec![Box::new(SoftwareSubstrate::new("composer"))];
        let asm = compose(&app, pool, &mut factory).expect("compose");

        let mut shards = ShardFabric::new(vec![
            Box::new(SoftwareSubstrate::new("shard0")),
            Box::new(SoftwareSubstrate::new("shard1")),
        ]);
        shards.pin("front", ShardId(0));
        shards.pin("near", ShardId(0));
        shards.pin("far", ShardId(1));
        let front = shards
            .spawn(DomainSpec::named("front"), Box::new(Echo))
            .expect("spawn");
        let near = shards
            .spawn(DomainSpec::named("near"), Box::new(Echo))
            .expect("spawn");
        let far = shards
            .spawn(DomainSpec::named("far"), Box::new(Counter::default()))
            .expect("spawn");
        let local = shards.grant_channel(front, near, Badge(5)).expect("grant");
        let cross = shards.grant_channel(front, far, Badge(6)).expect("grant");

        let mut world = World {
            backends,
            asm,
            shards,
            front,
            local,
            cross,
            cross_count: 0,
            echo_pool: Vec::new(),
            scribe_pool: Vec::new(),
            mix: round_mix(),
            mix_rng: Rng::new(0, "invoke.mix"),
            cursor: 0,
            names: Names::new(tracer),
            checker: Checker::new(faults),
            retired: [0; 5],
        };
        world.seed_inputs(WARMUP_SEED);
        let mut warm = Tally::default();
        for r in 0..WARMUP_ROUNDS {
            world.round(r, tracer, &mut warm);
        }
        world
    }

    /// Draws the payload pools and the call order from `seed`.
    fn seed_inputs(&mut self, seed: u64) {
        let mut rng = Rng::new(seed, "invoke.payloads");
        self.echo_pool = (0..POOL).map(|_| rng.bytes(ECHO_BYTES)).collect();
        self.scribe_pool = (0..POOL)
            .map(|_| {
                let len = rng.range(64, 1024) as usize;
                rng.bytes(len)
            })
            .collect();
        self.mix_rng = Rng::new(seed, "invoke.mix");
        self.cursor = 0;
    }

    fn next_payload(&mut self) -> usize {
        self.cursor = (self.cursor + 1) % POOL;
        self.cursor
    }

    /// Runs one block of same-kind calls (see [`calls_in`]). A call that
    /// fails or a batch that comes back short is a violation; returns
    /// whether every call of the block succeeded.
    fn block(&mut self, call: Call, tally: &mut Tally) -> bool {
        let failed_before = tally.failed;
        match call {
            Call::Echo(b) | Call::Scribe(b) | Call::Forward(b) => {
                for _ in 0..BLOCK {
                    let i = self.next_payload();
                    let be = &mut self.backends[b];
                    let (cap, payload) = match call {
                        Call::Echo(_) => (be.echo, &self.echo_pool[i]),
                        Call::Scribe(_) => (be.scribe, &self.scribe_pool[i]),
                        _ => (be.forward.expect("nested backend"), &self.echo_pool[i]),
                    };
                    match be.sub.invoke(be.client, &cap, payload) {
                        Ok(reply) => self.checker.check(BACKENDS[b], &reply, payload),
                        Err(e) => {
                            tally.failed += 1;
                            self.checker
                                .fail(format!("{:?} call on {} failed: {e}", call, BACKENDS[b]));
                        }
                    }
                }
            }
            Call::Batch(b) => {
                let start = self.next_payload();
                let views: Vec<&[u8]> = (0..BATCH)
                    .map(|k| self.echo_pool[(start + k) % POOL].as_slice())
                    .collect();
                let be = &mut self.backends[b];
                match be.sub.invoke_batch(be.client, &be.echo, &views) {
                    Ok(replies) => {
                        for (got, want) in replies.iter().zip(&views) {
                            self.checker.check("invoke_batch", got, want);
                        }
                        if replies.len() != BATCH {
                            tally.failed += BATCH.saturating_sub(replies.len()) as u64;
                            self.checker.fail(format!(
                                "invoke_batch on {} returned {} replies for {BATCH} calls",
                                BACKENDS[b],
                                replies.len()
                            ));
                        }
                    }
                    Err(e) => {
                        tally.failed += BATCH as u64;
                        self.checker
                            .fail(format!("invoke_batch on {} failed: {e}", BACKENDS[b]));
                    }
                }
            }
            Call::Channel | Call::ShardLocal | Call::ShardCross => {
                for _ in 0..BLOCK {
                    let i = self.next_payload();
                    let payload = &self.echo_pool[i];
                    let result = match call {
                        Call::Channel => self
                            .asm
                            .call_channel("ui", "ask", payload)
                            .map_err(|e| e.to_string()),
                        Call::ShardLocal => self
                            .shards
                            .invoke(self.front, &self.local, payload)
                            .map_err(|e| e.to_string()),
                        _ => self
                            .shards
                            .invoke(self.front, &self.cross, payload)
                            .map_err(|e| e.to_string()),
                    };
                    match result {
                        Ok(reply) if call == Call::ShardCross => {
                            self.cross_count += 1;
                            let want = self.cross_count.to_le_bytes();
                            self.checker.check("xshard", &reply, &want);
                        }
                        Ok(reply) => self.checker.check("echo", &reply, payload),
                        Err(e) => {
                            tally.failed += 1;
                            self.checker.fail(format!("{call:?} call failed: {e}"));
                        }
                    }
                }
            }
        }
        tally.failed == failed_before
    }

    fn span_name(&self, call: Call) -> Name {
        let n = &self.names;
        match call {
            Call::Echo(b) => n.echo[b],
            Call::Scribe(b) => n.scribe[b],
            Call::Forward(b) => n.forward[b],
            Call::Batch(b) => n.batch[b],
            Call::Channel => n.channel,
            Call::ShardLocal => n.local,
            Call::ShardCross => n.cross,
        }
    }

    /// One round of the mix, in a freshly shuffled order. Blocks with a
    /// failed call give no latency sample.
    fn round(&mut self, op: u64, tracer: &mut Tracer, tally: &mut Tally) {
        let mut mix = std::mem::take(&mut self.mix);
        self.mix_rng.shuffle(&mut mix);
        let round = tracer.begin(self.names.round, op, 0);
        for &call in &mix {
            let calls = calls_in(call);
            let name = self.span_name(call);
            let t0 = Instant::now();
            let span = tracer.begin(name, op, calls as u32);
            let ok = self.block(call, tally);
            tracer.end(span);
            if ok {
                let per_call_us = t0.elapsed().as_secs_f64() * 1e6 / calls as f64;
                tally.latency_us.push_n(per_call_us, calls / BLOCK);
            }
            tally.calls += calls as u64;
        }
        let span = tracer.begin(self.names.epoch, op, 1);
        self.shards.advance_epoch();
        tracer.end(span);
        tracer.end(round);
        self.mix = mix;
    }

    /// Replaces flicker with a freshly wired instance.
    fn reboot_flicker(&mut self) {
        let fresh = wire(Box::new(Flicker::new("bench")), false);
        let old = std::mem::replace(&mut self.backends[FLICKER], fresh);
        for (sum, v) in self.retired.iter_mut().zip(counters_of(old.sub.as_ref())) {
            *sum += v;
        }
    }

    /// Invocations, denials, trace evictions, spans recorded and spans
    /// evicted, summed over every fabric the workload uses.
    fn counters(&mut self) -> [u64; 5] {
        let composer: &dyn Substrate = self.asm.substrate_mut(0);
        let subs = self.backends.iter().map(|b| b.sub.as_ref()).chain([
            composer,
            self.shards.shard(ShardId(0)),
            self.shards.shard(ShardId(1)),
        ]);
        let mut c = self.retired;
        for sub in subs {
            for (sum, v) in c.iter_mut().zip(counters_of(sub)) {
                *sum += v;
            }
        }
        c
    }
}

fn counters_of(sub: &dyn Substrate) -> [u64; 5] {
    let fabric = sub
        .fabric_ref()
        .expect("every backend routes through the fabric");
    let tel = fabric.telemetry();
    [
        fabric.stats().total_invocations(),
        fabric.stats().total_denials(),
        fabric.events_recorded() - fabric.trace_len() as u64,
        tel.spans_recorded(),
        tel.spans_recorded() - tel.span_count() as u64,
    ]
}

fn calls_in(call: Call) -> usize {
    match call {
        Call::Batch(_) => BATCH,
        _ => BLOCK,
    }
}

/// Runs the workload for `seconds` and reports end-to-end metrics, or,
/// with `trace`, per-layer metrics from alternating traced segments.
pub fn run(seed: u64, seconds: f64, trace: bool, faults: Faults) -> Outcome {
    let mut tracer = Tracer::new(false);
    let mut world = World::bring_up(&mut tracer, faults);
    world.seed_inputs(seed);
    let before = world.counters();
    // Timed bring-ups build and drop worlds of their own.
    let bring_up = || World::bring_up(&mut Tracer::new(false), faults);

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
        setups.maybe(start.elapsed(), &mut gauge, bring_up);
        if trace && stretch_over(&tracer, segment_start) {
            tracer.set_enabled(!tracer.enabled());
            segment_start = Instant::now();
        }
        if op % FLICKER_REBOOT == FLICKER_REBOOT - 1 {
            world.reboot_flicker();
        }
        let calls_before = tally.calls;
        let t0 = Instant::now();
        world.round(op, &mut tracer, &mut tally);
        let dt = t0.elapsed();
        busy += dt;
        modes.add(tracer.enabled(), tally.calls - calls_before, dt);
        segments.add(tally.calls - calls_before, dt);
        op += 1;
    }
    setups.finish(&mut gauge, bring_up);
    let busy = busy.as_secs_f64();
    let after = world.counters();

    let mut out = Outcome {
        attempted: tally.calls,
        failed: tally.failed,
        ..Outcome::default()
    };
    world.checker.report(
        &mut out,
        "replies compared with the expected bytes of their call kind",
    );
    if trace {
        layer_metrics(&mut out, &tracer, &modes, op, [before, after]);
        crate::write_trace(&tracer, "invoke", &mut out);
    } else {
        setups.report(
            &mut out,
            "six platforms, shard fabric, spawns, grants, compose, warm-up",
        );
        let wall = (tally.calls - tally.failed) as f64 / busy;
        out.metric(
            "ops_per_s",
            gauge.rate(wall),
            tally.calls - tally.failed,
            format!("completed calls over {busy:.3} s of rounds, {wall:.0}/s wall-clock"),
        );
        let scale = gauge.time(1.0);
        for (name, pm) in [
            ("latency_p50_us", 500),
            ("latency_p90_us", 900),
            ("latency_p99_us", 990),
        ] {
            out.percentile(name, &tally.latency_us, pm, scale, "per-call block samples");
        }
        out.metric("peak_rss_mb", peak_rss_mb(), 1, "VmHWM");
        out.metric(
            "failed_ratio",
            tally.failed as f64 / tally.calls.max(1) as f64,
            tally.calls,
            "failed calls / attempted calls",
        );
        out.lines.push(format!("rounds {op}"));
        out.lines.push(segments.line());
        out.lines.push(gauge.line());
    }
    out
}

fn layer_metrics(out: &mut Outcome, tracer: &Tracer, modes: &Modes, rounds: u64, c: [[u64; 5]; 2]) {
    let totals = tracer.totals();
    let per_call = |name: &str| totals.get(name).and_then(|t| t.ns_per_call());
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls);
    for b in BACKENDS {
        for (kind, metric) in [("invoke", "invoke_ns"), ("mem_invoke", "mem_invoke_ns")] {
            let span = format!("fabric.{kind}.{b}");
            if let Some(ns) = per_call(&span) {
                out.metric(
                    &format!("fabric.{metric}.{b}"),
                    ns,
                    calls(&span),
                    "traced blocks",
                );
            }
        }
    }
    let batch: Vec<_> = BACKENDS
        .iter()
        .filter_map(|b| totals.get(&format!("fabric.batch.{b}")))
        .collect();
    let (ns, n) = batch
        .iter()
        .fold((0u64, 0u64), |(ns, n), t| (ns + t.total_ns, n + t.calls));
    out.metric(
        "fabric.batch_ns_per_call",
        ns as f64 / n.max(1) as f64,
        n,
        "invoke_batch blocks",
    );
    for (metric, span) in [
        ("shard.local_ns", "shard.local"),
        ("shard.xshard_ns", "shard.xshard"),
        ("shard.advance_epoch_ns", "shard.advance_epoch"),
        ("composer.call_channel_ns", "composer.call_channel"),
    ] {
        if let Some(ns) = per_call(span) {
            out.metric(metric, ns, calls(span), "traced blocks");
        }
    }
    let [before, after] = c;
    let d = |i: usize| after[i] - before[i];
    let ops = modes.total_ops();
    out.count("fabric.invocations", d(0), "all fabrics, whole run");
    out.count("fabric.denials", d(1), "all fabrics, whole run");
    out.count(
        "fabric.trace_evictions",
        d(2),
        "events_recorded - trace_len",
    );
    out.metric(
        "telemetry.spans_per_op",
        d(3) as f64 / ops.max(1) as f64,
        ops,
        "spans_recorded per call",
    );
    out.count(
        "telemetry.span_evictions",
        d(4),
        "spans_recorded - span_count",
    );
    modes.report(out);
    crate::selftime_table(out, tracer, rounds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seeds_pass_the_checks_and_a_corrupted_reply_fails_the_run() {
        for seed in [1, 2] {
            let out = run(seed, 0.02, false, Faults::default());
            assert!(out.correct(), "seed {seed}: {:?}", out.violations);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
        }
        let out = run(
            1,
            0.02,
            false,
            Faults {
                corrupt_reply: Some(100),
                ..Faults::default()
            },
        );
        assert!(!out.correct(), "a corrupted reply must fail the run");
    }

    #[test]
    fn a_failed_call_fails_the_run_and_gives_no_latency_sample() {
        let mut tracer = Tracer::new(false);
        let mut world = World::bring_up(&mut tracer, Faults::default());
        world.seed_inputs(1);
        let be = &mut world.backends[0];
        be.sub.revoke_channel(&be.echo).expect("revoke");
        let mut tally = Tally::default();
        world.round(0, &mut tracer, &mut tally);
        let mut out = Outcome::default();
        world.checker.report(&mut out, "");
        assert!(
            !out.correct(),
            "a call on a revoked capability must fail the run"
        );
        // The software backend's four echo blocks and its batch use the
        // revoked capability; its forwarder holds a capability of its own.
        assert_eq!(tally.failed, (4 * BLOCK + BATCH) as u64);
        let samples: usize = round_mix().iter().map(|&c| calls_in(c) / BLOCK).sum();
        let lost = 4 + BATCH / BLOCK;
        assert_eq!(tally.latency_us.len(), (samples - lost) as u64);
    }

    #[test]
    fn inputs_come_from_the_seed() {
        let world = |seed| {
            let mut w = World::bring_up(&mut Tracer::new(false), Faults::default());
            w.seed_inputs(seed);
            w
        };
        let (a, b, c) = (world(7), world(7), world(8));
        assert_eq!(a.echo_pool, b.echo_pool);
        assert_eq!(a.scribe_pool, b.scribe_pool);
        assert_ne!(a.echo_pool, c.echo_pool);
        assert_ne!(a.scribe_pool, c.scribe_pool);
        let (mut x, mut y) = (a.mix_rng.clone(), c.mix_rng.clone());
        assert_ne!(x.next_u64(), y.next_u64(), "the call order is seeded too");
    }

    #[test]
    fn every_round_runs_the_same_mix() {
        let mix = round_mix();
        let count = |f: &dyn Fn(&Call) -> bool| mix.iter().filter(|c| f(c)).count();
        assert_eq!(
            count(&|c| matches!(c, Call::Forward(FLICKER))),
            0,
            "flicker cannot nest"
        );
        assert_eq!(count(&|c| matches!(c, Call::Echo(_))), 4 * 5 + 1);
        assert_eq!(count(&|c| matches!(c, Call::ShardCross)), 2);
    }
}
