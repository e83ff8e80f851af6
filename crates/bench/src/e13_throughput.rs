//! E13 — invocation throughput: the allocation-free fabric hot path.
//!
//! The paper's unified isolation interface (§III-A) is only usable as
//! the *default* structuring tool if crossing a component boundary is
//! cheap. This experiment gates that property after the interning
//! rework: span names are interned `LabelId`s precomputed at spawn,
//! the `fabric.*` / `crossing.*` metric families are pre-registered
//! handles, and `invoke_batch` validates the capability, runs the
//! backend gate, and opens one span once for N same-channel calls.
//!
//! The same workload runs on all six backends, once through an invoke
//! loop and once through `invoke_batch` on same-seed instances. The
//! trace rings must be byte-identical (batching changes *when*
//! validation happens, never what is recorded), the span-tree and
//! invariant-metrics digests must be byte-identical across every
//! backend (interning must not leak backend-specific structure), and
//! the logical crossing-cost table is printed per backend — the
//! E4-style cost ladder, now measured through the batched path.
//!
//! The report stays on the logical clock. The rate of both paths in
//! real time is perfbench's `invoke` workload (`fabric.invoke_ns.*` and
//! `fabric.batch_ns_per_call` under `--trace 1`).

use std::collections::BTreeMap;

use lateral_crypto::Digest;
use lateral_substrate::cap::Badge;
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::Echo;
use lateral_telemetry::outcome as span_outcome;

use crate::e2_conformance::all_substrates;
use crate::table::render;

/// Invocations in the deterministic per-backend sweep.
const SWEEP_CALLS: usize = 64;

/// One backend's deterministic sweep measurements.
#[derive(Clone, Debug)]
pub struct BackendSweep {
    /// Backend name (substrate profile).
    pub backend: String,
    /// The crossing kind the workload's invocations took.
    pub crossing: String,
    /// Invocations dispatched (loop and batch each).
    pub invocations: u64,
    /// Total logical ticks charged for the crossings (batch instance).
    pub logical_cost: u64,
    /// `invoke` spans recorded by the loop instance.
    pub loop_spans: usize,
    /// `invoke` spans recorded by the batch instance (always 1).
    pub batch_spans: usize,
    /// Whether loop and batch left byte-identical trace rings.
    pub rings_match: bool,
    /// Digest over the batch instance's span tree (structure only) —
    /// must match on every backend.
    pub tree_digest: String,
    /// Digest over the invariant metric-counter projection (deltas,
    /// `crossing.*` excluded) — must match on every backend.
    pub metrics_digest: String,
}

fn setup(
    sub: &mut dyn Substrate,
    tag: &str,
) -> (
    lateral_substrate::DomainId,
    lateral_substrate::cap::ChannelCap,
) {
    let svc = sub
        .spawn(DomainSpec::named(&format!("{tag}-svc")), Box::new(Echo))
        .expect("spawn service");
    let client = sub
        .spawn(DomainSpec::named(&format!("{tag}-client")), Box::new(Echo))
        .expect("spawn client");
    let cap = sub.grant_channel(client, svc, Badge(13)).expect("grant");
    (client, cap)
}

/// Counter deltas since `baseline`, `crossing.*` excluded, canonical
/// text — the same invariant projection E12 digests.
fn invariant_metrics_digest(sub: &dyn Substrate, baseline: &BTreeMap<String, u64>) -> String {
    let mut canon = String::new();
    for (name, value) in sub.telemetry().metrics().counters() {
        if name.starts_with("crossing.") {
            continue;
        }
        let delta = value - baseline.get(name).copied().unwrap_or(0);
        if delta > 0 {
            canon.push_str(&format!("{name}={delta}\n"));
        }
    }
    Digest::of(canon.as_bytes()).short_hex()
}

fn counter_baseline(sub: &dyn Substrate) -> BTreeMap<String, u64> {
    sub.telemetry()
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Runs the deterministic sweep on the backend at `idx` in the
/// conformance pool: the same workload through a loop and a batch on
/// two same-seed instances.
fn run_backend(idx: usize) -> BackendSweep {
    let payloads: Vec<Vec<u8>> = (0..SWEEP_CALLS).map(|i| vec![i as u8; 16]).collect();

    let mut looped = all_substrates().remove(idx);
    let backend = looped.profile().name.clone();
    let (client, cap) = setup(looped.as_mut(), "e13");
    for p in &payloads {
        looped.invoke(client, &cap, p).expect("loop invoke");
    }

    let mut batched = all_substrates().remove(idx);
    let baseline = counter_baseline(batched.as_ref());
    let at = batched.now();
    let tel = batched.telemetry_mut();
    let root = tel.begin_span("e13 invocation sweep", "experiment", at);
    let trace_id = tel.context().expect("root open").trace_id;
    let (client, cap) = setup(batched.as_mut(), "e13");
    let ring_before = batched.fabric().trace_len();
    let views: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let replies = batched
        .invoke_batch(client, &cap, &views)
        .expect("batch invoke");
    assert_eq!(replies, payloads, "echo batch replies in order");
    let now = batched.now();
    let tel = batched.telemetry_mut();
    tel.end_span(root, now, span_outcome::OK);

    let fabric = batched.fabric();
    let events: Vec<_> = fabric.trace().skip(ring_before).cloned().collect();
    let invocations = events.len() as u64;
    let logical_cost: u64 = events.iter().map(|e| e.cost).sum();
    let crossing = events
        .last()
        .map(|e| e.crossing.name().to_string())
        .unwrap_or_default();

    let count_invoke_spans = |sub: &dyn Substrate| {
        let tel = sub.telemetry();
        tel.spans()
            .filter(|s| tel.span_name(s) == "invoke e13-svc")
            .count()
    };
    let rings_match = looped.fabric().trace_bytes() == batched.fabric().trace_bytes();
    let tree_digest = batched.telemetry().trace_digest(trace_id).short_hex();
    let metrics_digest = invariant_metrics_digest(batched.as_ref(), &baseline);

    BackendSweep {
        backend,
        crossing,
        invocations,
        logical_cost,
        loop_spans: count_invoke_spans(looped.as_ref()),
        batch_spans: count_invoke_spans(batched.as_ref()),
        rings_match,
        tree_digest,
        metrics_digest,
    }
}

/// Runs the deterministic sweep on all six backends.
pub fn run() -> Vec<BackendSweep> {
    (0..all_substrates().len()).map(run_backend).collect()
}

/// Renders the throughput report.
pub fn report() -> String {
    let results = run();

    let mut rows = vec![vec![
        "backend".to_string(),
        "crossing".to_string(),
        "calls".to_string(),
        "logical ticks".to_string(),
        "ticks/call".to_string(),
        "loop spans".to_string(),
        "batch spans".to_string(),
        "span-tree digest".to_string(),
        "metrics digest".to_string(),
    ]];
    for b in &results {
        rows.push(vec![
            b.backend.clone(),
            b.crossing.clone(),
            b.invocations.to_string(),
            b.logical_cost.to_string(),
            (b.logical_cost / b.invocations.max(1)).to_string(),
            b.loop_spans.to_string(),
            b.batch_spans.to_string(),
            b.tree_digest.clone(),
            b.metrics_digest.clone(),
        ]);
    }
    let invariant = results
        .iter()
        .all(|b| b.tree_digest == results[0].tree_digest)
        && results
            .iter()
            .all(|b| b.metrics_digest == results[0].metrics_digest);
    let rings = results.iter().all(|b| b.rings_match);

    format!(
        "E13 — invocation throughput: allocation-free hot path, batched crossings\n\n\
         {}\n\
         The same {}-call workload ran as an invoke loop and as one\n\
         invoke_batch on same-seed instances of each backend. Batch and\n\
         loop trace rings byte-identical: {}. Span-tree and metrics\n\
         digests under interning (backend-invariant: {}).\n",
        render(&rows),
        SWEEP_CALLS,
        if rings { "yes" } else { "NO" },
        if invariant { "yes" } else { "NO" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_and_rings_are_backend_invariant() {
        let results = run();
        assert_eq!(results.len(), 6, "the sweep covers every backend");
        for b in &results {
            assert_eq!(
                b.tree_digest, results[0].tree_digest,
                "{}: span-tree digest must be backend-invariant",
                b.backend
            );
            assert_eq!(
                b.metrics_digest, results[0].metrics_digest,
                "{}: invariant metrics digest must be backend-invariant",
                b.backend
            );
            assert!(
                b.rings_match,
                "{}: batch must leave the loop's exact trace ring",
                b.backend
            );
            assert_eq!(b.invocations, SWEEP_CALLS as u64, "{}", b.backend);
            assert_eq!(
                b.loop_spans, SWEEP_CALLS,
                "{}: the loop opens one span per call",
                b.backend
            );
            assert_eq!(b.batch_spans, 1, "{}: one span per batch", b.backend);
        }
    }

    #[test]
    fn logical_costs_follow_the_backend_ladder() {
        let by_name: BTreeMap<String, u64> = run()
            .into_iter()
            .map(|b| (b.crossing.clone(), b.logical_cost / b.invocations))
            .collect();
        // The sweep observes every distinct crossing kind's cost model;
        // local (software) must be the cheapest rung on the ladder.
        let local = by_name.get("local").copied().expect("software backend ran");
        for (kind, cost) in &by_name {
            assert!(
                *cost >= local,
                "crossing '{kind}' must cost at least a local call ({cost} < {local})"
            );
        }
    }

    #[test]
    fn report_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
