//! E12 — unified causal telemetry: one trace from composition to wire.
//!
//! Every experiment so far *asserts* that the six backends behave
//! identically; this one makes the claim observable. The fabric engine
//! records a causal span for every lifecycle event it mediates —
//! `compose → spawn → grant → invoke → seal → respawn` — so one
//! supervised billing round produces a single span tree rooted at an
//! experiment-level span. Because backends differ only in *mechanism*
//! (crossing kinds, costs, key derivation), not in *structure*, the
//! tree digest — which encodes depth, layer, name, and outcome, and
//! deliberately nothing clock- or cost-shaped — must be byte-identical
//! on all six backends. So must the invariant projection of the metric
//! counters (everything except the per-backend `crossing.*` families).
//! What *may* differ per backend is latency: the per-crossing cost
//! histograms printed at the bottom are exactly the part the digests
//! exclude.
//!
//! The second half crosses the wire: a [`RemoteClient`] carries its
//! [`TraceContext`](lateral_telemetry::TraceContext) inside the sealed
//! record to a [`RemoteServer`], whose `serve` span adopts the caller's
//! trace id and parents itself on the caller's `request` span — one
//! connected tree spanning two machines, with the attestation and
//! seal/open steps attached as sub-spans.
//!
//! Both digests are the determinism witness for the `scripts/check.sh`
//! run-twice gate ("telemetry digest" is its grep marker).

use std::collections::BTreeMap;

use lateral_core::composer::{compose, ComponentFactory};
use lateral_core::manifest::{AppManifest, ComponentManifest, RestartPolicy};
use lateral_core::remote::{call, establish, RemoteClient, RemoteServer, ServiceExport};
use lateral_core::supervisor::Supervisor;
use lateral_core::CoreError;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_net::channel::ChannelPolicy;
use lateral_net::sim::Network;
use lateral_net::Addr;
use lateral_substrate::cap::Badge;
use lateral_substrate::component::Component;
use lateral_substrate::fault::{FaultPlan, FaultSpec};
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::Substrate;
use lateral_substrate::testkit::Echo;
use lateral_telemetry::outcome as span_outcome;

use crate::e2_conformance::all_substrates;
use crate::table::render;

/// One backend's billing-round trace measurements.
#[derive(Clone, Debug)]
pub struct BackendTrace {
    /// Backend name (substrate profile).
    pub backend: String,
    /// Spans recorded in the round's trace.
    pub spans: usize,
    /// Meter invocations served across the round.
    pub served: u32,
    /// Meter invocations lost to the injected crash.
    pub lost: u32,
    /// Supervised restarts performed.
    pub restarts: u32,
    /// Digest over the round's span tree (depth/layer/name/outcome
    /// only) — must match on every backend.
    pub tree_digest: String,
    /// Digest over the invariant metric-counter projection (counter
    /// deltas, `crossing.*` families excluded) — must match on every
    /// backend.
    pub metrics_digest: String,
    /// Per-crossing latency histograms: `(counter name, count, sum,
    /// max, bucket counts)` — the backend-*specific* part.
    pub latency: Vec<(String, u64, u64, u64, Vec<u64>)>,
}

/// The cross-machine leg's measurements.
#[derive(Clone, Debug)]
pub struct RemoteTrace {
    /// The client's rendered span tree.
    pub client_tree: String,
    /// Whether the server's `serve` span adopted the client's trace id
    /// *and* parented itself on the client's `request` span.
    pub propagated: bool,
    /// Digest over the client's span tree.
    pub tree_digest: String,
}

fn factory() -> Box<dyn ComponentFactory> {
    Box::new(|_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>))
}

/// The supervised billing pair: a meter that may crash and restart
/// (instantly — the backoff window would otherwise make the number of
/// lost calls depend on backend-specific crossing costs, which is
/// exactly what the tree digest must *not* see) and the sink it is
/// allowed to report to.
fn app() -> AppManifest {
    AppManifest::new(
        "e12",
        vec![
            ComponentManifest::new("meter")
                .channel("sink", "sink", 0xE12)
                .restart(RestartPolicy::Restart {
                    max_restarts: 3,
                    backoff_base: 0,
                }),
            ComponentManifest::new("sink"),
        ],
    )
}

/// Runs one billing round on the backend at `idx` in the conformance
/// pool and digests its trace.
fn run_backend(idx: usize) -> BackendTrace {
    let mut sub = all_substrates().remove(idx);
    let backend = sub.profile().name.clone();
    // Counter values before the round: substrate construction differs
    // per backend and is not part of the invariant.
    let baseline: BTreeMap<String, u64> = sub
        .telemetry()
        .metrics()
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();

    // Root span first, so composition itself nests into the trace.
    let at = sub.now();
    let tel = sub.telemetry_mut();
    let root = tel.begin_span("e12 billing round", "experiment", at);
    let trace_id = tel.context().expect("root span is open").trace_id;

    let mut sup = Supervisor::new(app(), vec![sub], factory()).expect("compose e12 app");
    sup.assembly_mut()
        .substrate_mut(0)
        .fabric_mut()
        .install_fault_plan(FaultPlan::new().with(FaultSpec::crash("meter", 3)));

    let mut served = 0u32;
    let mut lost = 0u32;
    let mut meter = |sup: &mut Supervisor, payload: &[u8]| match sup.call("meter", payload) {
        Ok(_) => served += 1,
        Err(CoreError::Unavailable(_)) => lost += 1,
        Err(e) => panic!("unexpected meter error: {e}"),
    };

    // Two readings, a billing notification, and a sealed checkpoint …
    meter(&mut sup, b"read 17 kWh");
    meter(&mut sup, b"read 25 kWh");
    sup.call("sink", b"bill cycle 1").expect("sink serves");
    let p = sup.assembly().placement("meter").expect("meter placed");
    let sealed = sup
        .assembly_mut()
        .substrate_mut(p.substrate)
        .seal(p.domain, b"e12 meter checkpoint")
        .expect("every backend seals");
    let opened = sup
        .assembly_mut()
        .substrate_mut(p.substrate)
        .unseal(p.domain, &sealed)
        .expect("round-trips");
    assert_eq!(opened, b"e12 meter checkpoint");
    // … then the third reading hits the injected crash, the sink keeps
    // serving, and the next meter call restarts inline and serves.
    meter(&mut sup, b"read 31 kWh");
    sup.call("sink", b"bill cycle 2").expect("sink stays up");
    meter(&mut sup, b"read 31 kWh retry");
    let restarts = sup.restarts("meter");

    let sub = sup.assembly_mut().substrate_mut(0);
    let now = sub.now();
    let tel = sub.telemetry_mut();
    tel.end_span(root, now, span_outcome::OK);
    let spans = tel.spans().filter(|s| s.trace_id == trace_id).count();
    let tree_digest = tel.trace_digest(trace_id).short_hex();

    // Invariant metrics projection: counter deltas since the baseline,
    // minus the `crossing.*` families (their very *names* are
    // backend-specific).
    let mut canon = String::new();
    for (name, value) in tel.metrics().counters() {
        if name.starts_with("crossing.") {
            continue;
        }
        let delta = value - baseline.get(name).copied().unwrap_or(0);
        if delta > 0 {
            canon.push_str(&format!("{name}={delta}\n"));
        }
    }
    let metrics_digest = Digest::of(canon.as_bytes()).short_hex();
    let latency = tel
        .metrics()
        .histograms()
        .filter(|(name, _)| name.starts_with("crossing."))
        .map(|(name, h)| {
            (
                name.to_string(),
                h.count(),
                h.sum(),
                h.max(),
                h.buckets().to_vec(),
            )
        })
        .collect();

    BackendTrace {
        backend,
        spans,
        served,
        lost,
        restarts,
        tree_digest,
        metrics_digest,
        latency,
    }
}

/// Runs the cross-machine leg: a meter operator invoking an exported
/// utility component over the adversarial network, with the trace
/// context propagated inside the sealed records.
pub fn run_remote() -> RemoteTrace {
    let mut net = Network::new("e12-remote");
    let mut factory_fn = |_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>);
    let pool: Vec<Box<dyn Substrate>> = vec![Box::new(SoftwareSubstrate::new("e12-utility"))];
    let mut server_asm = compose(
        &AppManifest::new("e12-utility", vec![ComponentManifest::new("utility")]),
        pool,
        &mut factory_fn,
    )
    .expect("server assembly composes");
    let mut server = RemoteServer::bind(
        &mut net,
        Addr::new("utility"),
        ServiceExport {
            component: "utility".to_string(),
            badge: Badge(0xE12),
            identity: SigningKey::from_seed(b"e12 utility identity"),
            client_policy: ChannelPolicy::open(),
            attest: false,
        },
    );
    let mut client = RemoteClient::new(
        &mut net,
        Addr::new("operator"),
        Addr::new("utility"),
        SigningKey::from_seed(b"e12 operator identity"),
        ChannelPolicy::open(),
        None,
    );
    establish(&mut net, &mut client, None, &mut server, &mut server_asm)
        .expect("session establishes");
    let reply = call(
        &mut net,
        &mut client,
        &mut server,
        &mut server_asm,
        b"reading: 42 kWh",
    )
    .expect("remote call serves");
    assert_eq!(reply, b"reading: 42 kWh");

    let ct = client.telemetry();
    let request = ct
        .spans()
        .find(|s| ct.span_name(s) == "request")
        .expect("client recorded the request span")
        .clone();
    let st = server.telemetry();
    let serve = st
        .spans()
        .find(|s| st.span_name(s) == "serve utility")
        .expect("server recorded the serve span")
        .clone();
    RemoteTrace {
        client_tree: client.telemetry().render_tree(),
        propagated: serve.trace_id == request.trace_id
            && serve.parent == request.id
            && serve.outcome == span_outcome::OK,
        tree_digest: client.telemetry().tree_digest().short_hex(),
    }
}

/// Runs the billing round on all six backends.
pub fn run() -> Vec<BackendTrace> {
    (0..all_substrates().len()).map(run_backend).collect()
}

/// Renders the telemetry matrix.
pub fn report() -> String {
    let results = run();
    let remote = run_remote();
    let mut rows = vec![vec![
        "backend".to_string(),
        "spans".to_string(),
        "served".to_string(),
        "lost".to_string(),
        "restarts".to_string(),
        "span-tree digest".to_string(),
        "metrics digest".to_string(),
    ]];
    for b in &results {
        rows.push(vec![
            b.backend.clone(),
            b.spans.to_string(),
            b.served.to_string(),
            b.lost.to_string(),
            b.restarts.to_string(),
            b.tree_digest.clone(),
            b.metrics_digest.clone(),
        ]);
    }
    let mut latency = vec![vec![
        "backend".to_string(),
        "crossing cost histogram".to_string(),
        "n".to_string(),
        "ticks".to_string(),
        "max".to_string(),
        "buckets".to_string(),
    ]];
    for b in &results {
        for (name, n, sum, max, buckets) in &b.latency {
            latency.push(vec![
                b.backend.clone(),
                name.clone(),
                n.to_string(),
                sum.to_string(),
                max.to_string(),
                format!(
                    "[{}]",
                    buckets
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            ]);
        }
    }
    let invariant = results
        .iter()
        .all(|b| b.tree_digest == results[0].tree_digest)
        && results
            .iter()
            .all(|b| b.metrics_digest == results[0].metrics_digest);
    format!(
        "E12 — unified causal telemetry: spans, metrics, trace propagation\n\n\
         {}\n\
         One supervised billing round — compose, grant, invoke, seal,\n\
         injected crash, respawn — is one span tree. The tree encodes\n\
         structure (depth, layer, name, outcome) and no clocks or costs,\n\
         so its telemetry digest is identical on every backend:\n\
         {} (backend-invariant: {}).\n\n\
         What the digests exclude is exactly where backends differ —\n\
         the per-crossing latency histograms (logical ticks):\n\n{}\n\
         Across the wire, the trace context rides inside the sealed\n\
         record: the server's serve span joins the caller's trace as a\n\
         child of its request span (propagated: {}). Client span tree\n\
         (telemetry digest {}):\n\n{}",
        render(&rows),
        results[0].tree_digest,
        if invariant { "yes" } else { "NO" },
        render(&latency),
        if remote.propagated { "yes" } else { "NO" },
        remote.tree_digest,
        remote.client_tree,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_backends_share_one_trace_shape() {
        let results = run();
        assert_eq!(results.len(), 6, "the round covers every backend");
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
            assert_eq!(b.lost, 1, "{}: exactly the injected crash", b.backend);
            assert_eq!(b.restarts, 1, "{}: one supervised respawn", b.backend);
            assert_eq!(b.served, 3, "{}", b.backend);
        }
    }

    #[test]
    fn latency_histograms_are_populated() {
        for b in run() {
            let samples: u64 = b.latency.iter().map(|(_, n, ..)| n).sum();
            assert!(
                samples > 0,
                "{}: the round must observe crossing costs",
                b.backend
            );
        }
    }

    #[test]
    fn remote_call_joins_the_callers_trace() {
        let remote = run_remote();
        assert!(remote.propagated, "serve span must adopt the caller trace");
        for sub_span in ["attest.verify", "channel.seal", "channel.open"] {
            assert!(
                remote.client_tree.contains(sub_span),
                "client tree must show '{sub_span}'"
            );
        }
    }

    #[test]
    fn round_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
