//! Standard components used by the conformance suite (E2) and by backend
//! tests throughout the workspace.
//!
//! Each component is deliberately tiny and substrate-agnostic — the same
//! boxed instances run on the microkernel, TrustZone, SGX, SEP, and the
//! software substrate, demonstrating §III-A's write-once claim.

use crate::component::{Component, ComponentError, Invocation};
use crate::substrate::DomainContext;

/// Replies with the request payload.
#[derive(Debug, Default)]
pub struct Echo;

impl Component for Echo {
    fn label(&self) -> &str {
        "echo"
    }
    fn on_call(
        &mut self,
        _ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        Ok(inv.data.to_vec())
    }
}

/// Replies with the kernel-delivered badge (little-endian u64) — used to
/// check that client identity comes from the substrate, not the message.
#[derive(Debug, Default)]
pub struct BadgeReporter;

impl Component for BadgeReporter {
    fn label(&self) -> &str {
        "badge-reporter"
    }
    fn on_call(
        &mut self,
        _ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        Ok(inv.badge.0.to_le_bytes().to_vec())
    }
}

/// A stateful counter: increments per call, replying with the new value.
/// Exercises component state retention across invocations.
#[derive(Debug, Default)]
pub struct Counter {
    count: u64,
}

impl Component for Counter {
    fn label(&self) -> &str {
        "counter"
    }
    fn on_call(
        &mut self,
        _ctx: &mut dyn DomainContext,
        _inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        self.count += 1;
        Ok(self.count.to_le_bytes().to_vec())
    }
}

/// Seals / unseals through the substrate: request `s:<data>` seals,
/// `u:<blob>` unseals. Exercises sealed storage.
#[derive(Debug, Default)]
pub struct Sealer;

impl Component for Sealer {
    fn label(&self) -> &str {
        "sealer"
    }
    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        match inv.data.split_first() {
            Some((b's', rest)) => ctx
                .seal(&rest[1..])
                .map_err(|e| ComponentError::new(format!("seal: {e}"))),
            Some((b'u', rest)) => ctx
                .unseal(&rest[1..])
                .map_err(|e| ComponentError::new(format!("unseal: {e}"))),
            _ => Err(ComponentError::new("expected s:<data> or u:<blob>")),
        }
    }
}

/// Writes the request into private memory, reads it back, and replies
/// with what it read — exercises the domain-private memory path.
#[derive(Debug, Default)]
pub struct MemoryScribe;

impl Component for MemoryScribe {
    fn label(&self) -> &str {
        "memory-scribe"
    }
    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        ctx.mem_write(0, inv.data)
            .map_err(|e| ComponentError::new(format!("write: {e}")))?;
        ctx.mem_read(0, inv.data.len())
            .map_err(|e| ComponentError::new(format!("read: {e}")))
    }
}

/// Produces attestation evidence bound to the request payload, replying
/// with the serialized evidence (measurement ‖ platform_key ‖ signature).
#[derive(Debug, Default)]
pub struct Attester;

impl Component for Attester {
    fn label(&self) -> &str {
        "attester"
    }
    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        let ev = ctx
            .attest(inv.data)
            .map_err(|e| ComponentError::new(format!("attest: {e}")))?;
        let mut out = Vec::new();
        out.extend_from_slice(ev.measurement.as_bytes());
        out.extend_from_slice(&ev.platform_key);
        out.extend_from_slice(&ev.signature);
        Ok(out)
    }
}

/// Forwards every request over its first granted capability — the minimal
/// "proxy" shape used in chains (A → proxy → B). The capability is
/// discovered at call time via the cap-space enumeration, so the composer
/// can wire the chain after all domains exist.
#[derive(Debug, Default)]
pub struct Forwarder;

impl Component for Forwarder {
    fn label(&self) -> &str {
        "forwarder"
    }
    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        let caps = ctx
            .caps()
            .map_err(|e| ComponentError::new(format!("caps: {e}")))?;
        let cap = caps
            .first()
            .ok_or_else(|| ComponentError::new("forwarder has no outbound channel"))?;
        ctx.call(cap, inv.data)
            .map_err(|e| ComponentError::new(format!("forward: {e}")))
    }
}

/// Fabric-parity assertions: one battery of semantic scenarios that must
/// hold identically on every backend now that lifecycle, capability, and
/// reentrancy logic live in [`crate::fabric`]. Each assertion names the
/// backend (via its profile) on failure so a cross-backend sweep pins the
/// offender immediately.
pub mod parity {
    use super::{BadgeReporter, Echo, Forwarder, Sealer};
    use crate::cap::Badge;
    use crate::substrate::{DomainSpec, Substrate};
    use crate::SubstrateError;
    use lateral_telemetry::{outcome, SpanId};

    /// Runs the full parity battery: reentrancy, revoke-then-invoke,
    /// badge demultiplexing, seal-to-identity, and trace propagation.
    ///
    /// # Panics
    ///
    /// Panics (with the backend name) on the first scenario whose
    /// behaviour deviates from the fabric contract.
    pub fn assert_parity(sub: &mut dyn Substrate) {
        assert_reentrancy_refused(sub);
        assert_revoke_then_invoke_fails(sub);
        assert_badge_demultiplexing(sub);
        assert_seal_to_identity(sub);
        assert_trace_propagation(sub);
    }

    /// A component that calls back into its own domain mid-handler must
    /// be refused with [`SubstrateError::Reentrancy`] — surfaced to the
    /// driver as a `ComponentFailure` from the forwarding proxy.
    pub fn assert_reentrancy_refused(sub: &mut dyn Substrate) {
        let name = sub.profile().name.clone();
        let selfish = sub
            .spawn(DomainSpec::named("parity-selfish"), Box::new(Forwarder))
            .unwrap_or_else(|e| panic!("[{name}] spawn: {e}"));
        sub.grant_channel(selfish, selfish, Badge(1))
            .unwrap_or_else(|e| panic!("[{name}] self-grant: {e}"));
        let driver = sub
            .spawn(DomainSpec::named("parity-driver"), Box::new(Echo))
            .unwrap_or_else(|e| panic!("[{name}] spawn driver: {e}"));
        let cap = sub
            .grant_channel(driver, selfish, Badge(2))
            .unwrap_or_else(|e| panic!("[{name}] grant: {e}"));
        let err = sub
            .invoke(driver, &cap, b"loop")
            .expect_err("self-call must not succeed");
        assert!(
            matches!(err, SubstrateError::ComponentFailure(ref m) if m.contains("forward")),
            "[{name}] expected forwarded reentrancy failure, got: {err}"
        );
        sub.destroy(selfish).unwrap();
        sub.destroy(driver).unwrap();
    }

    /// A capability stops working the moment it is revoked.
    pub fn assert_revoke_then_invoke_fails(sub: &mut dyn Substrate) {
        let name = sub.profile().name.clone();
        let svc = sub
            .spawn(DomainSpec::named("parity-svc"), Box::new(Echo))
            .unwrap();
        let client = sub
            .spawn(DomainSpec::named("parity-client"), Box::new(Echo))
            .unwrap();
        let cap = sub.grant_channel(client, svc, Badge(3)).unwrap();
        assert_eq!(
            sub.invoke(client, &cap, b"live").unwrap(),
            b"live",
            "[{name}] live cap must invoke"
        );
        sub.revoke_channel(&cap).unwrap();
        assert!(
            sub.invoke(client, &cap, b"dead").is_err(),
            "[{name}] revoked cap must be refused"
        );
        sub.destroy(svc).unwrap();
        sub.destroy(client).unwrap();
    }

    /// The badge a service sees is the one fixed at grant time by the
    /// substrate — two clients sharing one service are told apart by the
    /// kernel, not by anything in the message (§III-C).
    pub fn assert_badge_demultiplexing(sub: &mut dyn Substrate) {
        let name = sub.profile().name.clone();
        let svc = sub
            .spawn(DomainSpec::named("parity-badged"), Box::new(BadgeReporter))
            .unwrap();
        let alice = sub
            .spawn(DomainSpec::named("parity-alice"), Box::new(Echo))
            .unwrap();
        let bob = sub
            .spawn(DomainSpec::named("parity-bob"), Box::new(Echo))
            .unwrap();
        let cap_a = sub.grant_channel(alice, svc, Badge(0xA11CE)).unwrap();
        let cap_b = sub.grant_channel(bob, svc, Badge(0xB0B)).unwrap();
        let seen_a = sub.invoke(alice, &cap_a, b"ignored payload").unwrap();
        let seen_b = sub.invoke(bob, &cap_b, b"ignored payload").unwrap();
        assert_eq!(
            u64::from_le_bytes(seen_a.try_into().unwrap()),
            0xA11CE,
            "[{name}] alice's badge"
        );
        assert_eq!(
            u64::from_le_bytes(seen_b.try_into().unwrap()),
            0xB0B,
            "[{name}] bob's badge"
        );
        sub.destroy(svc).unwrap();
        sub.destroy(alice).unwrap();
        sub.destroy(bob).unwrap();
    }

    /// Sealing binds to the sealer's identity: the same domain unseals
    /// its own blob; a domain with a different image cannot.
    pub fn assert_seal_to_identity(sub: &mut dyn Substrate) {
        let name = sub.profile().name.clone();
        let a = sub
            .spawn(
                DomainSpec::named("parity-seal-a").with_image(b"parity image a"),
                Box::new(Echo),
            )
            .unwrap();
        let b = sub
            .spawn(
                DomainSpec::named("parity-seal-b").with_image(b"parity image b"),
                Box::new(Echo),
            )
            .unwrap();
        let blob = sub
            .seal(a, b"parity secret")
            .unwrap_or_else(|e| panic!("[{name}] trusted domain must seal: {e}"));
        assert_eq!(
            sub.unseal(a, &blob).unwrap(),
            b"parity secret",
            "[{name}] sealer unseals its own blob"
        );
        assert!(
            sub.unseal(b, &blob).is_err(),
            "[{name}] a different identity must not unseal the blob"
        );
        sub.destroy(a).unwrap();
        sub.destroy(b).unwrap();
    }

    /// One scenario is one connected span tree: every fabric event
    /// recorded while an experiment-level root span is open shares the
    /// root's trace id and links back to it through parent edges, on
    /// every backend identically.
    pub fn assert_trace_propagation(sub: &mut dyn Substrate) {
        let name = sub.profile().name.clone();
        let at = sub.now();
        let tel = sub
            .telemetry_mut_ref()
            .unwrap_or_else(|| panic!("[{name}] backend must expose fabric telemetry"));
        let root = tel.begin_span("parity-trace", "experiment", at);
        let trace = tel.context().expect("root span is open").trace_id;
        let svc = sub
            .spawn(DomainSpec::named("parity-traced-svc"), Box::new(Echo))
            .unwrap();
        let client = sub
            .spawn(DomainSpec::named("parity-traced-client"), Box::new(Echo))
            .unwrap();
        let cap = sub.grant_channel(client, svc, Badge(7)).unwrap();
        assert_eq!(sub.invoke(client, &cap, b"one").unwrap(), b"one");
        assert_eq!(sub.invoke(client, &cap, b"two").unwrap(), b"two");
        sub.destroy(client).unwrap();
        sub.destroy(svc).unwrap();
        let at = sub.now();
        let tel = sub.telemetry_mut_ref().unwrap();
        tel.end_span(root, at, outcome::OK);

        let spans: Vec<_> = tel
            .spans()
            .filter(|s| s.trace_id == trace)
            .cloned()
            .collect();
        // root + 2 spawns + grant + 2 invokes + 2 destroys
        assert_eq!(
            spans.len(),
            8,
            "[{name}] the scenario records exactly its own events"
        );
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id.0).collect();
        for s in &spans {
            if s.id == root {
                assert_eq!(s.parent, SpanId::NONE, "[{name}] root has no parent");
            } else {
                assert!(
                    ids.contains(&s.parent.0),
                    "[{name}] span '{}' must link into the trace",
                    s.name
                );
            }
        }
        for event in [
            "spawn parity-traced-svc",
            "grant parity-traced-client->parity-traced-svc",
            "invoke parity-traced-svc",
            "destroy parity-traced-client",
        ] {
            assert!(
                spans.iter().any(|s| &*s.name == event && s.parent == root),
                "[{name}] '{event}' must be a child of the scenario root"
            );
        }
    }

    /// `invoke_batch` parity: driven against two same-seed instances of
    /// one backend, a batch on one must leave byte-identical trace-ring
    /// bytes and metrics digests to the equivalent invoke loop on the
    /// other. The span *tree* is the one sanctioned difference — the
    /// batch opens a single `invoke` span where the loop opens N — and
    /// that difference is asserted too, so a regression in either
    /// direction (batch re-growing per-payload spans, or diverging
    /// observable state) fails loudly.
    pub fn assert_batch_matches_loop(looped: &mut dyn Substrate, batched: &mut dyn Substrate) {
        let name = looped.profile().name.clone();
        let payloads: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 3 + i as usize * 17]).collect();

        let setup = |sub: &mut dyn Substrate| {
            let svc = sub
                .spawn(DomainSpec::named("batch-parity-svc"), Box::new(Echo))
                .unwrap();
            let client = sub
                .spawn(DomainSpec::named("batch-parity-client"), Box::new(Echo))
                .unwrap();
            let cap = sub.grant_channel(client, svc, Badge(7)).unwrap();
            (client, cap)
        };

        let (client_a, cap_a) = setup(looped);
        let loop_replies: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| looped.invoke(client_a, &cap_a, p).unwrap())
            .collect();

        let (client_b, cap_b) = setup(batched);
        let views: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let batch_replies = batched.invoke_batch(client_b, &cap_b, &views).unwrap();

        assert_eq!(
            loop_replies, batch_replies,
            "[{name}] batch replies must match the loop's"
        );
        assert_eq!(
            looped.fabric_ref().unwrap().trace_bytes(),
            batched.fabric_ref().unwrap().trace_bytes(),
            "[{name}] batch trace ring must be byte-identical to the loop's"
        );
        assert_eq!(
            looped.telemetry_ref().unwrap().metrics().digest(),
            batched.telemetry_ref().unwrap().metrics().digest(),
            "[{name}] batch metrics digest must match the loop's"
        );
        let invoke_spans = |sub: &dyn Substrate| {
            sub.telemetry_ref()
                .unwrap()
                .spans()
                .filter(|s| &*s.name == "invoke batch-parity-svc")
                .count()
        };
        assert_eq!(
            invoke_spans(looped),
            payloads.len(),
            "[{name}] the loop opens one span per payload"
        );
        assert_eq!(
            invoke_spans(batched),
            1,
            "[{name}] the batch opens exactly one span"
        );
    }

    /// Cross-shard parity: two same-seed instances of one backend
    /// become the shards of a [`crate::shard::ShardFabric`], and the
    /// explicit cross-shard crossing class must behave identically on
    /// every backend — the grant lands in the fabric-level slot range,
    /// the invocation dispatches on the remote shard while the caller's
    /// shard records a [`crate::fabric::CrossingKind::Shard`] event
    /// against the global callee with the [`crate::shard::xshard_cost`]
    /// charge, sealed storage still binds to the remote domain's
    /// identity, and a revoked cross-shard capability is refused with
    /// the denial attributed on the caller's shard.
    pub fn assert_cross_shard_crossing(instances: Vec<Box<dyn Substrate>>) {
        use crate::fabric::{CrossingKind, TraceOutcome};
        use crate::shard::{xshard_cost, ShardFabric, ShardId, XSHARD_SLOT_BASE};
        assert!(
            instances.len() >= 2,
            "cross-shard parity needs two instances of the backend"
        );
        let name = instances[0].profile().name.clone();
        let mut fab = ShardFabric::new(instances);
        fab.pin("xshard-client", ShardId(0));
        fab.pin("xshard-remote", ShardId(1));
        fab.pin("xshard-sealer", ShardId(1));
        let client = fab
            .spawn(DomainSpec::named("xshard-client"), Box::new(Echo))
            .unwrap_or_else(|e| panic!("[{name}] spawn client: {e}"));
        let remote = fab
            .spawn(DomainSpec::named("xshard-remote"), Box::new(Echo))
            .unwrap_or_else(|e| panic!("[{name}] spawn remote: {e}"));
        assert_eq!(fab.shard_of(client), Some(ShardId(0)));
        assert_eq!(fab.shard_of(remote), Some(ShardId(1)));

        let cap = fab
            .grant_channel(client, remote, Badge(0x5AD))
            .unwrap_or_else(|e| panic!("[{name}] cross-shard grant: {e}"));
        assert!(
            cap.slot >= XSHARD_SLOT_BASE,
            "[{name}] cross-shard grants use the fabric-level slot range"
        );
        let reply = fab
            .invoke(client, &cap, b"across")
            .unwrap_or_else(|e| panic!("[{name}] cross-shard invoke: {e}"));
        assert_eq!(reply, b"across", "[{name}] cross-shard echo reply");
        {
            let f0 = fab
                .shard(ShardId(0))
                .fabric_ref()
                .unwrap_or_else(|| panic!("[{name}] shard 0 must expose its fabric"));
            let last = f0
                .trace()
                .last()
                .unwrap_or_else(|| panic!("[{name}] caller shard recorded no event"));
            assert_eq!(
                last.crossing,
                CrossingKind::Shard,
                "[{name}] the caller's shard records the xshard crossing"
            );
            assert_eq!(
                last.callee, remote,
                "[{name}] the event names the global callee"
            );
            assert_eq!(
                last.cost,
                xshard_cost(6),
                "[{name}] the crossing charges the shard cost ladder"
            );
            assert_eq!(last.outcome, TraceOutcome::Ok);
        }

        // Seal across shards: the blob binds to the remote sealer's
        // identity on its own shard, and round-trips through the
        // fabric-level capability.
        let sealer = fab
            .spawn(DomainSpec::named("xshard-sealer"), Box::new(Sealer))
            .unwrap_or_else(|e| panic!("[{name}] spawn sealer: {e}"));
        let cap_seal = fab
            .grant_channel(client, sealer, Badge(0x5EA1))
            .unwrap_or_else(|e| panic!("[{name}] grant sealer: {e}"));
        let blob = fab
            .invoke(client, &cap_seal, b"s:xshard secret")
            .unwrap_or_else(|e| panic!("[{name}] cross-shard seal: {e}"));
        let mut unseal_req = b"u:".to_vec();
        unseal_req.extend_from_slice(&blob);
        assert_eq!(
            fab.invoke(client, &cap_seal, &unseal_req)
                .unwrap_or_else(|e| panic!("[{name}] cross-shard unseal: {e}")),
            b"xshard secret",
            "[{name}] sealed data round-trips across the shard boundary"
        );

        // Revocation crosses shards correctly: the capability dies, the
        // refusal is a denial on the caller's shard.
        let denials_before = fab
            .shard(ShardId(0))
            .fabric_ref()
            .map_or(0, |f| f.stats().total_denials());
        fab.revoke_channel(&cap)
            .unwrap_or_else(|e| panic!("[{name}] cross-shard revoke: {e}"));
        assert!(
            fab.invoke(client, &cap, b"dead").is_err(),
            "[{name}] revoked cross-shard cap must be refused"
        );
        let denials_after = fab
            .shard(ShardId(0))
            .fabric_ref()
            .map_or(0, |f| f.stats().total_denials());
        assert_eq!(
            denials_after,
            denials_before + 1,
            "[{name}] the refusal counts as a denial on the caller's shard"
        );
    }

    /// Regression for the destroy/respawn hole: a capability granted
    /// into a domain that is destroyed and then respawned (same name,
    /// same image) must stay dead — domain ids are never reused and
    /// `destroy` revokes every capability targeting the victim.
    pub fn assert_stale_cap_rejected(sub: &mut dyn Substrate) {
        let name = sub.profile().name.clone();
        let spec = || DomainSpec::named("parity-respawn").with_image(b"respawn image");
        let client = sub
            .spawn(DomainSpec::named("parity-holder"), Box::new(Echo))
            .unwrap();
        let victim = sub.spawn(spec(), Box::new(Echo)).unwrap();
        let stale = sub.grant_channel(client, victim, Badge(9)).unwrap();
        assert_eq!(sub.invoke(client, &stale, b"pre").unwrap(), b"pre");
        sub.destroy(victim).unwrap();
        assert!(
            sub.invoke(client, &stale, b"gone").is_err(),
            "[{name}] cap into destroyed domain must fail"
        );
        let respawned = sub.spawn(spec(), Box::new(Echo)).unwrap();
        assert_ne!(
            respawned, victim,
            "[{name}] domain ids must never be reused"
        );
        assert!(
            sub.invoke(client, &stale, b"still gone").is_err(),
            "[{name}] stale cap must not reach the respawned domain"
        );
        let fresh = sub.grant_channel(client, respawned, Badge(9)).unwrap();
        assert_eq!(
            sub.invoke(client, &fresh, b"fresh").unwrap(),
            b"fresh",
            "[{name}] a freshly granted cap works"
        );
        sub.destroy(client).unwrap();
        sub.destroy(respawned).unwrap();
    }

    /// The recovery scenario at substrate level, driven by deterministic
    /// fault injection: a [`crate::fault::FaultPlan`] crashes the victim
    /// on its 2nd invocation; callers see a fail-stop window
    /// ([`SubstrateError::DomainCrashed`]); the victim is destroyed and
    /// respawned from the same image; the successor re-measures
    /// identically to the original, the stale capability stays dead, and
    /// a fresh grant restores service — the supervisor's restart cycle,
    /// checked backend by backend.
    pub fn assert_crash_respawn_supervised(sub: &mut dyn Substrate) {
        use crate::fault::{FaultPlan, FaultSpec};
        let name = sub.profile().name.clone();
        let spec = || DomainSpec::named("parity-crash-victim").with_image(b"crash victim image");
        let client = sub
            .spawn(DomainSpec::named("parity-crash-client"), Box::new(Echo))
            .unwrap();
        let victim = sub.spawn(spec(), Box::new(Echo)).unwrap();
        let baseline = sub.measurement(victim).unwrap();
        let cap = sub.grant_channel(client, victim, Badge(7)).unwrap();

        let fabric = sub
            .fabric_mut_ref()
            .unwrap_or_else(|| panic!("[{name}] backend must expose its fabric for injection"));
        fabric
            .install_fault_plan(FaultPlan::new().with(FaultSpec::crash("parity-crash-victim", 2)));

        assert_eq!(
            sub.invoke(client, &cap, b"one").unwrap(),
            b"one",
            "[{name}] call before the fault point is healthy"
        );
        let crash = sub
            .invoke(client, &cap, b"two")
            .expect_err("second call must hit the injected crash");
        assert!(
            matches!(crash, SubstrateError::DomainCrashed(_)),
            "[{name}] expected DomainCrashed, got: {crash}"
        );
        assert!(
            matches!(
                sub.invoke(client, &cap, b"three"),
                Err(SubstrateError::DomainCrashed(_))
            ),
            "[{name}] crashed domain fail-stops until restarted"
        );

        // The supervisor's restart cycle: destroy, respawn from the same
        // image, re-measure, re-grant.
        sub.destroy(victim).unwrap();
        let successor = sub.spawn(spec(), Box::new(Echo)).unwrap();
        assert_ne!(
            successor, victim,
            "[{name}] the successor gets a fresh domain id"
        );
        assert_eq!(
            sub.measurement(successor).unwrap(),
            baseline,
            "[{name}] respawn from the same image re-measures identically"
        );
        assert!(
            sub.invoke(client, &cap, b"stale").is_err(),
            "[{name}] the pre-crash cap must not reach the successor"
        );
        let fresh = sub.grant_channel(client, successor, Badge(7)).unwrap();
        assert_eq!(
            sub.invoke(client, &fresh, b"served").unwrap(),
            b"served",
            "[{name}] service resumes on the re-granted channel"
        );
        sub.destroy(client).unwrap();
        sub.destroy(successor).unwrap();
    }

    /// Admission-gate parity: an image served through a
    /// [`lateral_registry::Registry`] spawns while certified and is
    /// refused once revoked — identically on every backend. The gate
    /// itself lives above the substrate; what this asserts per backend
    /// is the content-addressing contract it relies on: the digest the
    /// registry certifies is exactly the measurement the spawned domain
    /// reports, and after revocation the resolver refuses before any
    /// domain is created.
    pub fn assert_revoked_image_rejected(
        sub: &mut dyn Substrate,
        registry: &mut lateral_registry::Registry,
    ) {
        use lateral_crypto::sign::SigningKey;
        use lateral_registry::{ManifestDraft, RegistryError};

        let name = sub.profile().name.clone();
        let publisher = SigningKey::from_seed(b"parity registry publisher");
        registry.trust_root(&publisher.verifying_key());
        let image: &[u8] = b"parity gated image v1";
        let manifest = ManifestDraft::new("parity-gated", image).sign(&publisher, None);
        let digest = registry
            .publish(image, manifest)
            .unwrap_or_else(|e| panic!("[{name}] publish: {e}"));

        // Certified: resolution succeeds and the spawned domain measures
        // as exactly the digest the registry certified.
        let resolved = registry
            .resolve("parity-gated")
            .unwrap_or_else(|e| panic!("[{name}] certified image must resolve: {e}"));
        let gated = sub
            .spawn(
                DomainSpec::named("parity-gated").with_image(&resolved.image),
                Box::new(Echo),
            )
            .unwrap_or_else(|e| panic!("[{name}] spawn of certified image: {e}"));
        assert_eq!(
            sub.measurement(gated).unwrap(),
            resolved.digest,
            "[{name}] domain measurement must equal the registry digest"
        );
        sub.destroy(gated).unwrap();

        // Revoked: resolution refuses, so the admission gate never
        // reaches the substrate — no new domain for this image.
        registry.revoke(digest, "parity revocation").unwrap();
        let refused = registry
            .resolve("parity-gated")
            .expect_err("revoked image must not resolve");
        assert!(
            matches!(refused, RegistryError::Revoked { .. }),
            "[{name}] expected Revoked refusal, got: {refused}"
        );
        assert!(
            registry.resolve_digest(digest).is_err(),
            "[{name}] exact-digest resolution of a revoked image must refuse"
        );
    }

    /// Web-of-trust demotion parity: an image admitted because its
    /// review score clears the registry's threshold is refused — and a
    /// running instance flagged for same-tick quarantine — once a
    /// distrust wave drops the score, identically on every backend.
    /// Like [`assert_revoked_image_rejected`], the gate lives above the
    /// substrate; what each backend must uphold is that the digest the
    /// trust graph scores is exactly the measurement the spawned domain
    /// reports, so demotion decisions transfer to running instances.
    pub fn assert_wot_demotion_quarantined(
        sub: &mut dyn Substrate,
        registry: &mut lateral_registry::Registry,
    ) {
        use lateral_crypto::sign::SigningKey;
        use lateral_registry::{ManifestDraft, RegistryError, WOT_PASS};
        use lateral_wot::{Proof, Rating, ReviewProof, TrustGraph};

        let name = sub.profile().name.clone();
        let publisher = SigningKey::from_seed(b"parity wot publisher");
        registry.trust_root(&publisher.verifying_key());
        let reviewer = SigningKey::from_seed(b"parity wot reviewer");
        let mut graph = TrustGraph::new();
        graph.seed_root(&reviewer.verifying_key().to_bytes());
        registry.attach_wot(graph, 100);

        let image: &[u8] = b"parity wot-gated image v1";
        let manifest = ManifestDraft::new("parity-wot-gated", image).sign(&publisher, None);
        let digest = registry
            .publish(image, manifest)
            .unwrap_or_else(|e| panic!("[{name}] publish: {e}"));

        // Unreviewed: the wot-threshold pass refuses before any domain
        // is created.
        let refused = registry
            .resolve("parity-wot-gated")
            .expect_err("unreviewed image must not resolve");
        assert!(
            matches!(refused, RegistryError::Uncertified { ref pass, .. } if pass == WOT_PASS),
            "[{name}] expected a wot-threshold refusal, got: {refused}"
        );

        // A high review from the trust root clears the threshold: the
        // image resolves and the spawned domain measures as certified.
        let review = ReviewProof::issue(&reviewer, digest, Rating::High, 1);
        registry
            .ingest_proof(&Proof::Review(review))
            .unwrap_or_else(|e| panic!("[{name}] review ingest: {e}"));
        let resolved = registry
            .resolve("parity-wot-gated")
            .unwrap_or_else(|e| panic!("[{name}] reviewed image must resolve: {e}"));
        let gated = sub
            .spawn(
                DomainSpec::named("parity-wot-gated").with_image(&resolved.image),
                Box::new(Echo),
            )
            .unwrap_or_else(|e| panic!("[{name}] spawn of admitted image: {e}"));
        assert_eq!(
            sub.measurement(gated).unwrap(),
            resolved.digest,
            "[{name}] domain measurement must equal the scored digest"
        );
        assert!(
            !registry.wot_demoted(digest),
            "[{name}] a clearing score must not read as demoted"
        );

        // Distrust wave: the same root's later review supersedes its
        // `high`, dragging the score negative. The running instance is
        // now flagged for the health sweep, and re-resolution refuses
        // through the wot pass — the pre-wave verdict is never served.
        let wave = ReviewProof::issue(&reviewer, digest, Rating::Distrust, 2);
        registry
            .ingest_proof(&Proof::Review(wave))
            .unwrap_or_else(|e| panic!("[{name}] wave ingest: {e}"));
        assert!(
            registry.wot_demoted(digest),
            "[{name}] demotion must be visible to the health sweep"
        );
        let refused = registry
            .resolve("parity-wot-gated")
            .expect_err("demoted image must not resolve");
        assert!(
            matches!(refused, RegistryError::Uncertified { ref pass, .. } if pass == WOT_PASS),
            "[{name}] expected a post-wave wot-threshold refusal, got: {refused}"
        );
        sub.destroy(gated).unwrap();
    }

    /// Live migration parity: a component with sealed state moves from
    /// `source` to `target` through the seal-escrow cycle — unseal while
    /// live, destroy, respawn from the same image on the target,
    /// re-measure identically, re-seal — and comes out byte-identical.
    /// The stale capability into the source incarnation stays dead, a
    /// fresh grant restores service on the target, and (where the target
    /// can attest) the evidence carries the unchanged measurement.
    pub fn assert_migration_preserves_state(
        source: &mut dyn Substrate,
        target: &mut dyn Substrate,
    ) {
        let src = source.profile().name.clone();
        let dst = target.profile().name.clone();
        let leg = format!("{src}->{dst}");
        let spec = || DomainSpec::named("parity-migrant").with_image(b"parity migrant image");
        let secret: &[u8] = b"parity migration secret";

        // Source incarnation: serving, with sealed state.
        let driver = source
            .spawn(DomainSpec::named("parity-migrant-driver"), Box::new(Echo))
            .unwrap();
        let migrant = source.spawn(spec(), Box::new(Echo)).unwrap();
        let baseline = source.measurement(migrant).unwrap();
        let stale = source.grant_channel(driver, migrant, Badge(7)).unwrap();
        assert_eq!(
            source.invoke(driver, &stale, b"pre").unwrap(),
            b"pre",
            "[{leg}] source incarnation serves before migration"
        );
        let sealed = source
            .seal(migrant, secret)
            .unwrap_or_else(|e| panic!("[{leg}] seal on source: {e}"));

        // Escrow leg: sealing is keyed per backend, so the blob is opened
        // while the source incarnation is still alive and carried across
        // in plaintext under the supervisor's custody.
        let escrow = source
            .unseal(migrant, &sealed)
            .unwrap_or_else(|e| panic!("[{leg}] escrow unseal on source: {e}"));
        assert_eq!(escrow, secret, "[{leg}] escrow must open the sealed state");

        source.destroy(migrant).unwrap();
        assert!(
            source.invoke(driver, &stale, b"gone").is_err(),
            "[{leg}] cap into the destroyed incarnation must fail"
        );

        // Target incarnation: same image, same measurement — the code
        // identity is backend-invariant, which is what lets admission and
        // attestation decisions transfer across the migration.
        let successor = target.spawn(spec(), Box::new(Echo)).unwrap();
        assert_eq!(
            target.measurement(successor).unwrap(),
            baseline,
            "[{leg}] the successor re-measures identically on the target"
        );
        let resealed = target
            .seal(successor, &escrow)
            .unwrap_or_else(|e| panic!("[{leg}] re-seal on target: {e}"));
        assert_eq!(
            target.unseal(successor, &resealed).unwrap(),
            secret,
            "[{leg}] sealed state survives migration byte-identically"
        );
        assert!(
            source.invoke(driver, &stale, b"still gone").is_err(),
            "[{leg}] the stale cap must never reach the migrated incarnation"
        );
        let fresh_driver = target
            .spawn(DomainSpec::named("parity-migrant-driver"), Box::new(Echo))
            .unwrap();
        let fresh = target
            .grant_channel(fresh_driver, successor, Badge(7))
            .unwrap();
        assert_eq!(
            target.invoke(fresh_driver, &fresh, b"served").unwrap(),
            b"served",
            "[{leg}] service resumes on the re-granted channel"
        );
        match target.attest(successor, b"parity migration") {
            Ok(evidence) => assert_eq!(
                evidence.measurement, baseline,
                "[{leg}] post-migration evidence carries the unchanged measurement"
            ),
            Err(SubstrateError::Unsupported(_)) => {}
            Err(e) => panic!("[{leg}] attest on target: {e}"),
        }
        source.destroy(driver).unwrap();
        target.destroy(fresh_driver).unwrap();
        target.destroy(successor).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::Badge;
    use crate::software::SoftwareSubstrate;
    use crate::substrate::{DomainSpec, Substrate};

    #[test]
    fn counter_accumulates_across_calls() {
        let mut s = SoftwareSubstrate::new("tk counter");
        let c = s
            .spawn(DomainSpec::named("counter"), Box::new(Counter::default()))
            .unwrap();
        let d = s
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let cap = s.grant_channel(d, c, Badge(0)).unwrap();
        for expected in 1u64..=3 {
            let r = s.invoke(d, &cap, b"").unwrap();
            assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), expected);
        }
    }

    #[test]
    fn sealer_roundtrip_on_software_substrate() {
        let mut s = SoftwareSubstrate::new("tk sealer");
        let sealer = s
            .spawn(DomainSpec::named("sealer"), Box::new(Sealer))
            .unwrap();
        let d = s
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let cap = s.grant_channel(d, sealer, Badge(0)).unwrap();
        let sealed = s.invoke(d, &cap, b"s:top secret").unwrap();
        let mut req = b"u:".to_vec();
        req.extend_from_slice(&sealed);
        assert_eq!(s.invoke(d, &cap, &req).unwrap(), b"top secret");
    }

    #[test]
    fn memory_scribe_roundtrips() {
        let mut s = SoftwareSubstrate::new("tk scribe");
        let m = s
            .spawn(DomainSpec::named("scribe"), Box::new(MemoryScribe))
            .unwrap();
        let d = s
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let cap = s.grant_channel(d, m, Badge(0)).unwrap();
        assert_eq!(s.invoke(d, &cap, b"hello memory").unwrap(), b"hello memory");
    }

    #[test]
    fn forwarder_relays_through_discovered_cap() {
        let mut s = SoftwareSubstrate::new("tk fwd");
        let dest = s.spawn(DomainSpec::named("dest"), Box::new(Echo)).unwrap();
        let proxy = s
            .spawn(DomainSpec::named("proxy"), Box::new(Forwarder))
            .unwrap();
        s.grant_channel(proxy, dest, Badge(5)).unwrap();
        let driver = s
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let drive_cap = s.grant_channel(driver, proxy, Badge(1)).unwrap();
        assert_eq!(
            s.invoke(driver, &drive_cap, b"two hops").unwrap(),
            b"two hops"
        );
    }

    #[test]
    fn forwarder_without_channel_reports_cleanly() {
        let mut s = SoftwareSubstrate::new("tk fwd2");
        let proxy = s
            .spawn(DomainSpec::named("proxy"), Box::new(Forwarder))
            .unwrap();
        let driver = s
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let cap = s.grant_channel(driver, proxy, Badge(1)).unwrap();
        assert!(matches!(
            s.invoke(driver, &cap, b"x"),
            Err(crate::SubstrateError::ComponentFailure(_))
        ));
    }
}
