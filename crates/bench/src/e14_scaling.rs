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
//! A fixed mixed workload — per-shard batched invocations, an epoch
//! barrier, cross-shard grant/invoke, a revoked-cap refusal — runs on a
//! two-shard fabric built from two same-seed instances of each of the
//! six backends. The merged trace bytes must be identical across two
//! runs, and the backend-invariant projections (merged-trace invariant
//! digest, merged metric deltas excluding `crossing.*`) must be
//! identical across every backend.
//!
//! The report stays on the logical clock. perfbench's `invoke` workload
//! times the shard fabric's local and cross-shard calls
//! (`shard.local_ns`, `shard.xshard_ns` under `--trace 1`).

use std::collections::BTreeMap;

use lateral_crypto::Digest;
use lateral_substrate::cap::Badge;
use lateral_substrate::shard::{xshard_cost, ShardFabric, ShardId};
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::Echo;

use crate::e2_conformance::all_substrates;
use crate::table::render;

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

fn counter_baseline(sub: &dyn Substrate) -> BTreeMap<String, u64> {
    sub.telemetry()
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
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
        for (name, value) in fab
            .shard(ShardId(s as u32))
            .telemetry()
            .metrics()
            .counters()
        {
            if name.starts_with("crossing.") {
                continue;
            }
            let delta = value - baseline.get(name).copied().unwrap_or(0);
            if delta > 0 {
                *deltas.entry(name.to_string()).or_default() += delta;
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

/// Renders the scaling report.
#[must_use]
pub fn report() -> String {
    let results = run();

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

    format!(
        "E14 — shard scaling: per-core engines, explicit cross-shard crossings\n\n\
         {}\n\
         A two-shard fabric ran the mixed workload on same-seed instances\n\
         of each backend: {} intra-shard batched calls, an epoch barrier,\n\
         then {} cross-shard invocations and a revoked-cap refusal. The\n\
         xshard cost rung is identical on every backend by design\n\
         ({} ticks for a 16-byte call), and so are the merged-trace\n\
         invariant and metrics digests (backend-invariant: {}).\n",
        render(&rows),
        2 * SWEEP_CALLS_PER_SHARD,
        SWEEP_CROSS_CALLS,
        xshard_cost(16),
        if invariant { "yes" } else { "NO" },
    )
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
    fn report_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
