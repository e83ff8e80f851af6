//! E14 — shard scaling: per-core fabric engines behind one surface.
//!
//! E13 established that a *single* fabric engine dispatches invocations
//! allocation-free; this experiment gates what happens when the fabric
//! is partitioned into N per-shard engines
//! ([`lateral_substrate::shard::ShardFabric`]). Intra-shard work must
//! keep E13's hot path untouched, cross-shard work must show up as the
//! explicit `xshard` crossing class with its own cost-ladder entry, and
//! the per-shard traces must merge into one deterministic stream.
//!
//! Two halves, deliberately separated (as in E13):
//!
//! * **Deterministic sweep** (all six backends): a fixed mixed workload
//!   — per-shard batched invocations, an epoch barrier, cross-shard
//!   grant/invoke, a revoked-cap refusal — runs on a two-shard
//!   fabric built from two same-seed instances of each backend. The
//!   merged trace bytes must be identical across two runs, and the
//!   backend-invariant projections (merged-trace invariant digest,
//!   merged metric deltas excluding `crossing.*`) must be identical
//!   across every backend.
//! * **Wall-clock measurement** (software backend only): total
//!   invocations/sec with the same total work split across 1, 2, 4,
//!   and host-core shard threads, each thread owning its own engine —
//!   the near-linear scaling claim — plus the bounded-inbox
//!   cross-shard round-trip rate. Every such line is prefixed
//!   `wall-clock` (and the core count `host-cores`) so the run-twice
//!   determinism gate in `scripts/check.sh` can filter them.

use std::collections::BTreeMap;
use std::time::Instant;

use lateral_crypto::Digest;
use lateral_substrate::cap::Badge;
use lateral_substrate::shard::{shard_channels, xshard_cost, ShardFabric, ShardId};
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::Echo;
use lateral_substrate::DomainId;

use crate::e13_throughput::PRE_PR_BASELINE_PER_SEC;
use crate::e2_conformance::all_substrates;
use crate::table::render;

/// Calls per wall-clock scaling point (split across the shard
/// threads). Debug builds run shorter; the wall-clock half is excluded
/// from determinism comparisons, so the switch affects only latency.
#[cfg(debug_assertions)]
const WALL_CLOCK_CALLS: usize = 40_000;
#[cfg(not(debug_assertions))]
const WALL_CLOCK_CALLS: usize = 4_000_000;

/// Payloads per `invoke_batch` call in the wall-clock measurement
/// (E13's batch size).
const WALL_CLOCK_BATCH: usize = 1024;

/// Cross-shard round trips in the bounded-inbox wall-clock leg.
#[cfg(debug_assertions)]
const CROSS_WALL_CALLS: usize = 5_000;
#[cfg(not(debug_assertions))]
const CROSS_WALL_CALLS: usize = 200_000;

/// Intra-shard invocations per shard in the deterministic sweep.
const SWEEP_CALLS_PER_SHARD: usize = 32;

/// Cross-shard invocations in the deterministic sweep.
const SWEEP_CROSS_CALLS: usize = 8;

/// One backend's deterministic two-shard sweep measurements.
#[derive(Clone, Debug)]
pub struct BackendScale {
    /// Backend name (substrate profile).
    pub backend: String,
    /// Intra-shard invocations dispatched (both shards).
    pub intra_calls: u64,
    /// Cross-shard invocations dispatched.
    pub cross_calls: u64,
    /// Logical ticks charged per cross-shard call (the `xshard` rung of
    /// the cost ladder — identical on every backend by design).
    pub cross_ticks_per_call: u64,
    /// Events in the merged `(epoch, shard, seq)` trace.
    pub merged_events: usize,
    /// Digest of the merged trace bytes — stable across two runs of
    /// the same backend (the determinism gate), backend-*specific*
    /// because clock readings and crossing kinds differ.
    pub trace_digest: String,
    /// Backend-invariant digest of the merged trace (clocks, costs,
    /// and crossing kinds excluded) — must match on every backend.
    pub invariant_digest: String,
    /// Digest of the merged metric counter deltas (`crossing.*`
    /// excluded) — must match on every backend.
    pub metrics_digest: String,
}

/// One wall-clock scaling point: the same total work on `shards`
/// engine threads.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Number of shard threads (each owning its own engine).
    pub shards: usize,
    /// Total invocations across all threads.
    pub calls: usize,
    /// Aggregate invocations/sec.
    pub per_sec: u64,
}

fn counter_baseline(sub: &dyn Substrate) -> BTreeMap<String, u64> {
    sub.telemetry_ref()
        .map(|t| {
            t.metrics()
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .unwrap_or_default()
}

/// Merged counter deltas since the per-shard baselines, `crossing.*`
/// excluded — the same invariant projection E13 digests, summed across
/// shards.
fn merged_invariant_metrics_digest(
    fab: &ShardFabric,
    baselines: &[BTreeMap<String, u64>],
) -> String {
    let mut deltas: BTreeMap<String, u64> = BTreeMap::new();
    for (s, baseline) in baselines.iter().enumerate().take(fab.shard_count()) {
        if let Some(telemetry) = fab.shard(ShardId(s as u32)).telemetry_ref() {
            for (name, value) in telemetry.metrics().counters() {
                if name.starts_with("crossing.") {
                    continue;
                }
                let delta = value - baseline.get(name).copied().unwrap_or(0);
                if delta > 0 {
                    *deltas.entry(name.to_string()).or_default() += delta;
                }
            }
        }
    }
    let mut canon = String::new();
    for (name, delta) in &deltas {
        canon.push_str(&format!("{name}={delta}\n"));
    }
    Digest::of(canon.as_bytes()).short_hex()
}

/// Runs the deterministic two-shard sweep on the backend at `idx` in
/// the conformance pool.
fn run_backend(idx: usize) -> BackendScale {
    let mut fab = ShardFabric::new(vec![
        all_substrates().remove(idx),
        all_substrates().remove(idx),
    ]);
    let backend = fab.profile().name.clone();
    let baselines: Vec<_> = (0..fab.shard_count())
        .map(|s| counter_baseline(fab.shard(ShardId(s as u32))))
        .collect();

    // Per-shard service/client pairs, placement pinned by manifest.
    for s in 0..2u32 {
        fab.pin(&format!("e14-svc{s}"), ShardId(s));
        fab.pin(&format!("e14-client{s}"), ShardId(s));
    }
    let mut clients = Vec::new();
    let mut caps = Vec::new();
    for s in 0..2u32 {
        let svc = fab
            .spawn(DomainSpec::named(&format!("e14-svc{s}")), Box::new(Echo))
            .expect("spawn svc");
        let client = fab
            .spawn(DomainSpec::named(&format!("e14-client{s}")), Box::new(Echo))
            .expect("spawn client");
        let cap = fab.grant_channel(client, svc, Badge(14)).expect("grant");
        clients.push(client);
        caps.push(cap);
    }

    // Intra-shard half: E13's batched hot path, per shard.
    let payloads: Vec<Vec<u8>> = (0..SWEEP_CALLS_PER_SHARD)
        .map(|i| vec![i as u8; 16])
        .collect();
    let views: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    for s in 0..2 {
        let replies = fab
            .invoke_batch(clients[s], &caps[s], &views)
            .expect("intra batch");
        assert_eq!(replies, payloads, "echo batch replies in order");
    }

    // Epoch barrier: everything below sorts after everything above in
    // the merged trace, on every shard.
    fab.advance_epoch();

    // Cross-shard half: grant, a fixed-size invocation burst, then a
    // revoked-cap refusal — all crossing the shard boundary from shard
    // 0. (Cross-shard seal/unseal is exercised per backend by
    // `testkit::parity::assert_cross_shard_crossing`; sealed-blob sizes
    // are backend-specific, so they stay out of the cross-backend
    // digest comparison here.)
    let svc1 = clients[1]; // shard 1's client doubles as a remote echo target
    let xcap = fab
        .grant_channel(clients[0], svc1, Badge(41))
        .expect("cross grant");
    for i in 0..SWEEP_CROSS_CALLS {
        let reply = fab
            .invoke(clients[0], &xcap, &[i as u8; 16])
            .expect("cross invoke");
        assert_eq!(reply, [i as u8; 16]);
    }
    fab.revoke_channel(&xcap).expect("cross revoke");
    assert!(
        fab.invoke(clients[0], &xcap, b"dead").is_err(),
        "revoked cross-shard cap must be refused"
    );

    let merged = fab.merged_trace();
    let cross_events: Vec<_> = merged
        .iter()
        .filter(|m| m.event.crossing.name() == "xshard")
        .collect();
    let cross_calls = cross_events.iter().filter(|m| m.event.cost > 0).count() as u64;
    let cross_ticks: u64 = cross_events.iter().map(|m| m.event.cost).sum();
    let intra_calls = (2 * SWEEP_CALLS_PER_SHARD) as u64;

    BackendScale {
        backend,
        intra_calls,
        cross_calls,
        cross_ticks_per_call: cross_ticks / cross_calls.max(1),
        merged_events: merged.len(),
        trace_digest: Digest::of(&fab.merged_trace_bytes()).short_hex(),
        invariant_digest: fab.merged_invariant_digest().short_hex(),
        metrics_digest: merged_invariant_metrics_digest(&fab, &baselines),
    }
}

/// Runs the deterministic sweep on all six backends.
pub fn run() -> Vec<BackendScale> {
    (0..all_substrates().len()).map(run_backend).collect()
}

/// One shard thread's wall-clock work: its own engine, its own
/// domains, `calls` batched echo invocations.
fn shard_thread_work(seed: usize, calls: usize) -> u64 {
    let payload = [0x14u8; 16];
    let mut sub = SoftwareSubstrate::new(&format!("e14-wall-{seed}"));
    let svc = sub
        .spawn(DomainSpec::named("e14-wall-svc"), Box::new(Echo))
        .expect("spawn svc");
    let client = sub
        .spawn(DomainSpec::named("e14-wall-client"), Box::new(Echo))
        .expect("spawn client");
    let cap = sub.grant_channel(client, svc, Badge(14)).expect("grant");
    let views: Vec<&[u8]> = vec![&payload; WALL_CLOCK_BATCH];
    let mut done = 0usize;
    while done < calls {
        let n = WALL_CLOCK_BATCH.min(calls - done);
        done += sub
            .invoke_batch(client, &cap, &views[..n])
            .expect("wall batch")
            .len();
    }
    done as u64
}

/// Measures aggregate invocations/sec with the same total work split
/// across `shards` engine threads (each thread constructs and owns its
/// own software engine — engines share nothing).
fn measure_shards(shards: usize) -> ScalePoint {
    let per_shard = WALL_CLOCK_CALLS / shards;
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|s| scope.spawn(move || shard_thread_work(s, per_shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread"))
            .sum()
    });
    let secs = start.elapsed().as_secs_f64();
    let per_sec = if secs > 0.0 {
        (total as f64 / secs) as u64
    } else {
        u64::MAX
    };
    ScalePoint {
        shards,
        calls: total as usize,
        per_sec,
    }
}

/// The shard counts the wall-clock sweep measures: 1, 2, 4, and the
/// host's core count (deduplicated, capped at 8 to keep CI stable).
#[must_use]
pub fn shard_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut counts = vec![1, 2, 4, cores.min(8)];
    counts.sort_unstable();
    counts.dedup();
    counts.retain(|&n| n <= cores.max(1) || n <= 4);
    counts
}

/// Runs the wall-clock scaling sweep (software backend only).
#[must_use]
pub fn run_wall_clock() -> Vec<ScalePoint> {
    shard_counts().into_iter().map(measure_shards).collect()
}

/// Measures the bounded-inbox cross-shard round-trip rate: a client
/// thread posting into a server shard thread's
/// [`ShardInbox`](lateral_substrate::shard::ShardInbox), one
/// blocking reply per call.
#[must_use]
pub fn run_wall_clock_cross() -> u64 {
    let (mut inboxes, post) = shard_channels(2, 64);
    let inbox1 = inboxes.pop().expect("two inboxes");
    drop(inboxes);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut sub = SoftwareSubstrate::new("e14-xwall");
            let svc = sub
                .spawn(DomainSpec::named("e14-xwall-svc"), Box::new(Echo))
                .expect("spawn svc");
            let ingress = sub
                .spawn(DomainSpec::named("xshard-ingress"), Box::new(Echo))
                .expect("spawn ingress");
            let cap = sub.grant_channel(ingress, svc, Badge(1)).expect("grant");
            inbox1.serve(|_target, payload| sub.invoke(ingress, &cap, payload))
        });
        let payload = vec![0x14u8; 16];
        for _ in 0..CROSS_WALL_CALLS {
            post.call(ShardId(1), DomainId(0), payload.clone())
                .expect("cross call");
        }
        drop(post);
    });
    let secs = start.elapsed().as_secs_f64();
    if secs > 0.0 {
        (CROSS_WALL_CALLS as f64 / secs) as u64
    } else {
        u64::MAX
    }
}

fn group(n: u64) -> String {
    let digits: Vec<char> = n.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, d) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*d);
    }
    out.chars().rev().collect()
}

/// The machine-readable benchmark record `repro` writes to
/// `BENCH_E14.json`: one entry per shard count with aggregate
/// invocations/sec, plus the deterministic `xshard` ticks/call and the
/// E13 single-engine baseline for context.
#[must_use]
pub fn bench_json(points: &[ScalePoint], cross_per_sec: u64, cross_ticks_per_call: u64) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e14\",\n  \"scaling\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"shards\": {}, \"invocations_per_sec\": {}, \"calls\": {} }}{}\n",
            p.shards,
            p.per_sec,
            p.calls,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"cross_shard_round_trips_per_sec\": {cross_per_sec},\n  \
         \"xshard_ticks_per_call\": {cross_ticks_per_call},\n  \
         \"e13_baseline_per_sec\": {PRE_PR_BASELINE_PER_SEC}\n}}\n"
    ));
    out
}

/// Renders the scaling report.
#[must_use]
pub fn report() -> String {
    report_and_json().0
}

/// Renders the scaling report together with the machine-readable
/// `BENCH_E14.json` payload, sharing one measurement run — the `repro`
/// driver writes the JSON next to the printed report.
#[must_use]
pub fn report_and_json() -> (String, String) {
    let results = run();
    let points = run_wall_clock();
    let cross_per_sec = run_wall_clock_cross();

    let mut rows = vec![vec![
        "backend".to_string(),
        "intra calls".to_string(),
        "cross calls".to_string(),
        "xshard ticks/call".to_string(),
        "merged events".to_string(),
        "merged-trace digest".to_string(),
        "invariant digest".to_string(),
        "metrics digest".to_string(),
    ]];
    for b in &results {
        rows.push(vec![
            b.backend.clone(),
            b.intra_calls.to_string(),
            b.cross_calls.to_string(),
            b.cross_ticks_per_call.to_string(),
            b.merged_events.to_string(),
            b.trace_digest.clone(),
            b.invariant_digest.clone(),
            b.metrics_digest.clone(),
        ]);
    }
    let invariant = results
        .iter()
        .all(|b| b.invariant_digest == results[0].invariant_digest)
        && results
            .iter()
            .all(|b| b.metrics_digest == results[0].metrics_digest);

    let base = points.first().map_or(1, |p| p.per_sec.max(1));
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut wall = String::new();
    for p in &points {
        wall.push_str(&format!(
            "wall-clock   {} shard{}: {:>10} invocations/sec ({:.2}x one shard, {:.2}x E13 baseline)\n",
            p.shards,
            if p.shards == 1 { " " } else { "s" },
            group(p.per_sec),
            p.per_sec as f64 / base as f64,
            p.per_sec as f64 / PRE_PR_BASELINE_PER_SEC as f64,
        ));
    }
    wall.push_str(&format!(
        "wall-clock   cross-shard: {:>10} bounded-inbox round trips/sec\n",
        group(cross_per_sec)
    ));

    let ticks_per_call = results
        .first()
        .map_or_else(|| xshard_cost(16), |b| b.cross_ticks_per_call);
    let json = bench_json(&points, cross_per_sec, ticks_per_call);
    let report = format!(
        "E14 — shard scaling: per-core engines, explicit cross-shard crossings\n\n\
         {}\n\
         A two-shard fabric ran the mixed workload on same-seed instances\n\
         of each backend: {} intra-shard batched calls, an epoch barrier,\n\
         then {} cross-shard invocations and a revoked-cap refusal. The\n\
         xshard cost rung is identical on every backend by design\n\
         ({} ticks for a 16-byte call), and so are the merged-trace\n\
         invariant and metrics digests (backend-invariant: {}).\n\n\
         host-cores: {}\n\
         wall-clock scaling (software backend, {} total calls split across\n\
         N shard threads, each owning its own engine; wall-clock and\n\
         host-cores lines are excluded from the determinism compare):\n\
         {}",
        render(&rows),
        2 * SWEEP_CALLS_PER_SHARD,
        SWEEP_CROSS_CALLS,
        xshard_cost(16),
        if invariant { "yes" } else { "NO" },
        cores,
        group(WALL_CLOCK_CALLS as u64),
        wall,
    );
    (report, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_digests_are_backend_invariant() {
        let results = run();
        assert_eq!(results.len(), 6, "the sweep covers every backend");
        for b in &results {
            assert_eq!(
                b.invariant_digest, results[0].invariant_digest,
                "{}: merged-trace invariant digest must be backend-invariant",
                b.backend
            );
            assert_eq!(
                b.metrics_digest, results[0].metrics_digest,
                "{}: merged metrics digest must be backend-invariant",
                b.backend
            );
            assert_eq!(
                b.intra_calls,
                2 * SWEEP_CALLS_PER_SHARD as u64,
                "{}",
                b.backend
            );
            assert_eq!(b.cross_calls, SWEEP_CROSS_CALLS as u64, "{}", b.backend);
            assert_eq!(
                b.cross_ticks_per_call,
                xshard_cost(16),
                "{}: the xshard rung is backend-independent",
                b.backend
            );
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.trace_digest, y.trace_digest,
                "{}: merged trace bytes must be run-invariant",
                x.backend
            );
        }
    }

    #[test]
    fn report_is_deterministic_modulo_wall_clock() {
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("wall-clock") && !l.contains("host-cores"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let (a, b) = (report(), report());
        assert_eq!(
            strip(&a),
            strip(&b),
            "two runs must differ only on wall-clock and host-cores lines"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let points = vec![
            ScalePoint {
                shards: 1,
                calls: 1000,
                per_sec: 2_000_000,
            },
            ScalePoint {
                shards: 2,
                calls: 1000,
                per_sec: 3_900_000,
            },
        ];
        let json = bench_json(&points, 150_000, xshard_cost(16));
        assert!(json.contains("\"experiment\": \"e14\""));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"e13_baseline_per_sec\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
