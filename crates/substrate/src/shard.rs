//! The sharded multi-core fabric: N per-shard engines behind one
//! [`Substrate`] surface.
//!
//! A [`ShardFabric`] partitions protection domains across N shards,
//! each owning its *own* fabric engine — its own [`TraceEvent`] ring,
//! interned-label metrics registry, and clock epoch. Placement is
//! deterministic: a manifest pin ([`ShardFabric::pin`]) wins, then a
//! sticky by-name assignment (so a supervisor respawn lands on the same
//! shard), then round-robin over spawn order. Intra-shard invocations
//! delegate straight to the owning shard's engine and keep today's
//! allocation-free path byte for byte; cross-shard invocations are an
//! explicit new crossing class ([`CrossingKind::Shard`]) with its own
//! cost-ladder entry ([`xshard_cost`]), dispatched through a lazily
//! spawned per-shard ingress domain and charged on the *caller's* shard
//! clock.
//!
//! Shard traces and metrics merge deterministically: events order by
//! `(epoch, shard, seq)` where epochs are explicit global barriers
//! ([`ShardFabric::advance_epoch`]), metric families merge by canonical
//! name ([`MetricsRegistry::absorb`]), and span trees concatenate in
//! shard order ([`lateral_telemetry::merged_tree_digest`]). With N=1
//! the merge degenerates to the single engine's own encoding, so a
//! one-shard fabric is byte-identical to running the inner substrate
//! directly — pinned by a test below.
//!
//! For running shards on real OS threads, [`shard_channels`] builds
//! bounded per-shard inboxes ([`ShardInbox`] / [`ShardPost`]) over
//! `std::sync::mpsc`, so cross-shard calls become blocking bounded
//! round trips: a sender waits while the target's inbox is full — no
//! new dependencies. A single-threaded caller that wants to shed load
//! instead bounds its own batches (as `apps::fleet` does per tick).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc;

use lateral_crypto::sign::VerifyingKey;
use lateral_crypto::Digest;
use lateral_telemetry::{outcome as span_outcome, LabelId, MetricsRegistry};

use crate::attacker::SubstrateProfile;
use crate::attest::AttestationEvidence;
use crate::cap::{Badge, ChannelCap};
use crate::component::Component;
use crate::fabric::{CrossingKind, TraceEvent, TraceOutcome};
use crate::substrate::{DomainSpec, Substrate};
use crate::testkit::Echo;
use crate::{DomainId, SubstrateError};

/// Identifies one shard (one engine) within a [`ShardFabric`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// First capability slot of the cross-shard range. Slots below this are
/// the owning shard engine's own slots passed through unchanged; slots
/// at or above designate entries in the fabric-level cross-shard grant
/// table. The split keeps intra-shard caps bit-identical to the
/// single-engine fabric (the N=1 byte-identity guarantee).
pub const XSHARD_SLOT_BASE: u32 = 1 << 31;

/// Base cycle cost of a cross-shard hop, before the per-byte copy term.
/// Sits above every intra-substrate software crossing (local = 5 + b/64)
/// and below the heavyweight enclave-class transitions — a core-to-core
/// bounded-inbox round trip, not a privilege transition.
pub const XSHARD_BASE_COST: u64 = 250;

/// Cycle cost of a cross-shard invocation carrying `bytes` of payload.
/// A property of the shard runtime, not of the isolation mechanism
/// below it, so it is identical on every backend — which keeps merged
/// traces backend-invariant in the digests E14 checks.
#[must_use]
pub fn xshard_cost(bytes: usize) -> u64 {
    XSHARD_BASE_COST + bytes as u64 / 32
}

/// Where a global domain lives: which shard, and under which id in that
/// shard's local id space.
#[derive(Clone, Copy, Debug)]
struct Route {
    shard: u32,
    local: DomainId,
}

/// One cross-shard channel grant. The `inner` capability designates the
/// target from the target shard's ingress domain; the caller never
/// holds a raw capability into a foreign shard.
#[derive(Clone, Copy, Debug)]
struct XGrant {
    from: DomainId,
    to: DomainId,
    badge: Badge,
    nonce: u64,
    inner: ChannelCap,
    /// Caller-shard interned `xshard invoke {target}` span label,
    /// cached at grant time so the invoke hot path stays allocation
    /// free.
    label: Option<LabelId>,
    revoked: bool,
}

/// One merged trace entry: a shard-local [`TraceEvent`] tagged with the
/// global epoch it was recorded in and the shard that recorded it — the
/// sort key of the deterministic merge.
#[derive(Clone, Debug)]
pub struct MergedEvent {
    /// Global epoch ([`ShardFabric::advance_epoch`] barriers) the event
    /// falls in.
    pub epoch: u64,
    /// The shard whose engine recorded the event.
    pub shard: ShardId,
    /// The event, exactly as the shard engine recorded it (sequence
    /// numbers are shard-local).
    pub event: TraceEvent,
}

/// N per-shard engines behind one [`Substrate`] surface.
///
/// Surface-level domain ids are global (dense, spawn-ordered, never
/// reused); the fabric routes each operation to the owning shard and
/// translates ids at the boundary. Surface-level `profile()`, `now()`,
/// `fabric_ref()`, and `telemetry_ref()` anchor on shard 0 — exact for
/// N=1 and the fault-plan/supervision anchor for N>1.
pub struct ShardFabric {
    shards: Vec<Box<dyn Substrate>>,
    /// Global id → route; index is the global id, `None` after destroy.
    routes: Vec<Option<Route>>,
    /// Sticky name → shard assignment (respawns stay shard-local).
    by_name: BTreeMap<String, u32>,
    /// Manifest pins (override sticky and round-robin).
    pins: BTreeMap<String, u32>,
    next_shard: u32,
    xgrants: Vec<XGrant>,
    /// Lazily spawned per-shard ingress domain (local id), the stand-in
    /// caller for inbound cross-shard dispatches.
    ingress: Vec<Option<DomainId>>,
    epoch: u64,
    /// Per-shard epoch watermarks: `marks[s][e]` is the first sequence
    /// number belonging to epoch `e` on shard `s`.
    marks: Vec<Vec<u64>>,
}

impl ShardFabric {
    /// Builds a shard fabric over `shards` (one engine per shard).
    /// Shard ids follow vector order.
    ///
    /// # Panics
    ///
    /// If `shards` is empty.
    #[must_use]
    pub fn new(shards: Vec<Box<dyn Substrate>>) -> ShardFabric {
        assert!(
            !shards.is_empty(),
            "a shard fabric needs at least one shard"
        );
        let n = shards.len();
        ShardFabric {
            shards,
            routes: Vec::new(),
            by_name: BTreeMap::new(),
            pins: BTreeMap::new(),
            next_shard: 0,
            xgrants: Vec::new(),
            ingress: vec![None; n],
            epoch: 0,
            marks: vec![vec![0]; n],
        }
    }

    /// Manifest hint: domains spawned under `name` are placed on
    /// `shard`, overriding sticky and round-robin placement.
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn pin(&mut self, name: &str, shard: ShardId) {
        assert!(
            (shard.0 as usize) < self.shards.len(),
            "pin target {shard} out of range"
        );
        self.pins.insert(name.to_string(), shard.0);
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current global epoch (starts at 0).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Global epoch barrier: events recorded after this call sort after
    /// every event recorded before it, on every shard — the explicit
    /// cross-shard ordering points of the deterministic merge.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        for s in 0..self.shards.len() {
            let watermark = self.shards[s]
                .fabric_ref()
                .map_or(0, |f| f.events_recorded());
            self.marks[s].push(watermark);
        }
    }

    /// The shard hosting `domain`, or `None` if it never existed or was
    /// destroyed.
    #[must_use]
    pub fn shard_of(&self, domain: DomainId) -> Option<ShardId> {
        self.routes
            .get(domain.0 as usize)
            .copied()
            .flatten()
            .map(|r| ShardId(r.shard))
    }

    /// Read access to one shard's substrate.
    ///
    /// # Panics
    ///
    /// If `id` is out of range.
    #[must_use]
    pub fn shard(&self, id: ShardId) -> &dyn Substrate {
        self.shards[id.0 as usize].as_ref()
    }

    /// Write access to one shard's substrate (fault plans, telemetry).
    ///
    /// # Panics
    ///
    /// If `id` is out of range.
    pub fn shard_mut(&mut self, id: ShardId) -> &mut dyn Substrate {
        self.shards[id.0 as usize].as_mut()
    }

    /// The deterministic trace merge: every retained event of every
    /// shard, ordered by `(epoch, shard, seq)`. Epochs are the explicit
    /// global barriers; within an epoch shards concatenate in id order;
    /// within a shard the engine's own sequence order holds. The order
    /// is a pure function of the per-shard event streams — independent
    /// of how shard executions interleaved in wall-clock time.
    #[must_use]
    pub fn merged_trace(&self) -> Vec<MergedEvent> {
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(fabric) = shard.fabric_ref() {
                for event in fabric.trace() {
                    out.push(MergedEvent {
                        epoch: epoch_of(&self.marks[s], event.seq),
                        shard: ShardId(s as u32),
                        event: event.clone(),
                    });
                }
            }
        }
        out.sort_by_key(|m| (m.epoch, m.shard, m.event.seq));
        out
    }

    /// Canonical byte serialization of the merged trace — the sharded
    /// twin of [`crate::fabric::Fabric::trace_bytes`], and byte-equal
    /// to it for N=1. Two identical runs must produce identical output.
    #[must_use]
    pub fn merged_trace_bytes(&self) -> Vec<u8> {
        let merged = self.merged_trace();
        let mut out = Vec::with_capacity(merged.len() * 50);
        for m in &merged {
            m.event.encode_into(&mut out);
        }
        out
    }

    /// Backend-invariant digest of the merged trace: folds in the merge
    /// key and the who/what/outcome of every event while excluding the
    /// clock readings, crossing kinds, and costs that legitimately
    /// differ between backends — the digest E14 asserts is identical
    /// across all six.
    #[must_use]
    pub fn merged_invariant_digest(&self) -> Digest {
        let mut canon = Vec::new();
        for m in self.merged_trace() {
            canon.extend_from_slice(&m.epoch.to_le_bytes());
            canon.extend_from_slice(&m.shard.0.to_le_bytes());
            canon.extend_from_slice(&m.event.seq.to_le_bytes());
            canon.extend_from_slice(&m.event.caller.0.to_le_bytes());
            canon.extend_from_slice(&m.event.callee.0.to_le_bytes());
            canon.extend_from_slice(&m.event.badge.0.to_le_bytes());
            canon.extend_from_slice(&m.event.bytes.to_le_bytes());
            canon.push(m.event.outcome.code());
            canon.push(0x1e);
        }
        Digest::of_parts(&[b"lateral.shard.merged-trace", &canon])
    }

    /// All shard metric registries merged by canonical family name
    /// (counters add, histograms merge bucket-wise) — registration
    /// order on any shard does not matter.
    #[must_use]
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for shard in &self.shards {
            if let Some(telemetry) = shard.telemetry_ref() {
                merged.absorb(telemetry.metrics());
            }
        }
        merged
    }

    /// Canonical digest of every shard's span-tree shape, concatenated
    /// in shard order. For N=1 this equals the inner collector's own
    /// [`lateral_telemetry::Telemetry::tree_digest`].
    #[must_use]
    pub fn merged_tree_digest(&self) -> Digest {
        lateral_telemetry::merged_tree_digest(self.shards.iter().filter_map(|s| s.telemetry_ref()))
    }

    /// Every shard's crossing profile merged edge-wise (see
    /// [`lateral_telemetry::profile::CrossingProfile::absorb`]). The
    /// merge is order-invariant, so this is a well-defined fleet-wide
    /// view of where the crossing ticks went; cross-shard hops appear
    /// as the `xshard` kind on the caller's shard.
    #[must_use]
    pub fn merged_crossing_profile(&self) -> lateral_telemetry::profile::CrossingProfile {
        let mut merged = lateral_telemetry::profile::CrossingProfile::new();
        for shard in &self.shards {
            if let Some(p) = shard.crossing_profile() {
                merged.absorb(&p);
            }
        }
        merged
    }

    fn route(&self, id: DomainId) -> Result<Route, SubstrateError> {
        self.routes
            .get(id.0 as usize)
            .copied()
            .flatten()
            .ok_or(SubstrateError::NoSuchDomain(id))
    }

    /// Deterministic placement: pin, then sticky name, then round-robin
    /// over spawn order.
    fn place_shard(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.pins.get(name) {
            return s;
        }
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = self.next_shard;
        self.next_shard = (self.next_shard + 1) % self.shards.len() as u32;
        s
    }

    /// The shard's ingress domain, spawning it on first use. Spawned
    /// directly on the inner shard (no global id): it is shard runtime,
    /// not an application domain. Lazy so an N=1 fabric (which can
    /// never cross shards) spawns nothing extra — the byte-identity
    /// guarantee.
    fn ingress_domain(&mut self, shard: u32) -> Result<DomainId, SubstrateError> {
        if let Some(id) = self.ingress[shard as usize] {
            return Ok(id);
        }
        let id = self.shards[shard as usize]
            .spawn(DomainSpec::named("xshard-ingress"), Box::new(Echo))?;
        self.ingress[shard as usize] = Some(id);
        Ok(id)
    }

    /// Reverse route lookup: the global id of shard-local `local`.
    fn global_of(&self, shard: u32, local: DomainId) -> Option<DomainId> {
        self.routes.iter().enumerate().find_map(|(i, r)| {
            r.filter(|r| r.shard == shard && r.local == local)
                .map(|_| DomainId(i as u32))
        })
    }

    /// Maps shard-local domain ids inside an engine error back into the
    /// global id space (identity for N=1, where the spaces coincide).
    fn globalize(&self, shard: u32, e: SubstrateError) -> SubstrateError {
        let map = |l: DomainId| self.global_of(shard, l).unwrap_or(l);
        match e {
            SubstrateError::NoSuchDomain(d) => SubstrateError::NoSuchDomain(map(d)),
            SubstrateError::Reentrancy(d) => SubstrateError::Reentrancy(map(d)),
            SubstrateError::DomainCrashed(d) => SubstrateError::DomainCrashed(map(d)),
            other => other,
        }
    }

    fn note_denial_on(&mut self, r: Route) {
        if let Some(fabric) = self.shards[r.shard as usize].fabric_mut_ref() {
            fabric.note_denial(r.local);
        }
    }

    /// The cross-shard invocation path: validate the fabric-level
    /// grant, charge [`xshard_cost`] on the caller's shard clock, open
    /// the cached caller-side span, dispatch through the target shard's
    /// ingress, and record a [`CrossingKind::Shard`] event with full
    /// engine accounting on the caller's shard.
    fn invoke_cross(
        &mut self,
        r: Route,
        caller: DomainId,
        cap: &ChannelCap,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        let idx = (cap.slot - XSHARD_SLOT_BASE) as usize;
        let grant = match self.xgrants.get(idx).copied() {
            None => {
                self.note_denial_on(r);
                return Err(SubstrateError::InvalidCapability(format!(
                    "empty cross-shard slot {}",
                    cap.slot
                )));
            }
            Some(g) if g.from != caller => {
                self.note_denial_on(r);
                return Err(SubstrateError::InvalidCapability(format!(
                    "{caller} presented a cross-shard capability owned by {}",
                    g.from
                )));
            }
            Some(g) if g.revoked || g.nonce != cap.nonce => {
                self.note_denial_on(r);
                return Err(SubstrateError::InvalidCapability(
                    "stale cross-shard capability (revoked)".into(),
                ));
            }
            Some(g) => g,
        };
        let Ok(rt) = self.route(grant.to) else {
            self.note_denial_on(r);
            return Err(SubstrateError::InvalidCapability(format!(
                "cross-shard target {} is gone",
                grant.to
            )));
        };
        // Fail-stop window, mirrored from the engine: a call into an
        // already-crashed remote domain is refused on the caller's
        // shard, with a zero-cost Crashed event and an instant span.
        let target_crashed = self.shards[rt.shard as usize]
            .fabric_ref()
            .is_some_and(|f| f.is_crashed(rt.local));
        if target_crashed {
            let at = self.shards[r.shard as usize].now();
            if let Some(fabric) = self.shards[r.shard as usize].fabric_mut_ref() {
                fabric.note_denial(r.local);
                let event = TraceEvent {
                    seq: fabric.next_seq(),
                    at,
                    caller: r.local,
                    callee: grant.to,
                    badge: grant.badge,
                    bytes: data.len() as u64,
                    crossing: CrossingKind::Shard,
                    cost: 0,
                    outcome: TraceOutcome::Crashed,
                };
                fabric.record_fault(event);
                if let Some(label) = grant.label {
                    fabric.telemetry_mut().instant_label(
                        label,
                        "fabric",
                        at,
                        span_outcome::CRASHED,
                    );
                }
            }
            return Err(SubstrateError::DomainCrashed(grant.to));
        }
        let cost = xshard_cost(data.len());
        self.shards[r.shard as usize].charge_cycles(cost);
        let at = self.shards[r.shard as usize].now();
        let span = match grant.label {
            Some(label) => self.shards[r.shard as usize]
                .telemetry_mut_ref()
                .map(|t| t.begin_span_label(label, "fabric", at)),
            None => None,
        };
        let ingress = self.ingress[rt.shard as usize].ok_or_else(|| {
            SubstrateError::Platform(format!("{} has no ingress domain", ShardId(rt.shard)))
        })?;
        let result = self.shards[rt.shard as usize].invoke(ingress, &grant.inner, data);
        let (outcome, reply_bytes, span_code) = match &result {
            Ok(reply) => (TraceOutcome::Ok, reply.len() as u64, span_outcome::OK),
            Err(SubstrateError::Reentrancy(_)) => {
                (TraceOutcome::Reentrancy, 0, span_outcome::REENTRANCY)
            }
            Err(SubstrateError::DomainCrashed(_)) => {
                (TraceOutcome::Crashed, 0, span_outcome::CRASHED)
            }
            Err(_) => (TraceOutcome::Failed, 0, span_outcome::FAILED),
        };
        let span_end = self.shards[r.shard as usize].now();
        if let Some(span) = span {
            if let Some(telemetry) = self.shards[r.shard as usize].telemetry_mut_ref() {
                telemetry.end_span(span, span_end, span_code);
            }
        }
        if let Some(fabric) = self.shards[r.shard as usize].fabric_mut_ref() {
            let event = TraceEvent {
                seq: fabric.next_seq(),
                at,
                caller: r.local,
                callee: grant.to,
                badge: grant.badge,
                bytes: data.len() as u64,
                crossing: CrossingKind::Shard,
                cost,
                outcome,
            };
            match outcome {
                TraceOutcome::Crashed => fabric.record_fault(event),
                TraceOutcome::Reentrancy => {
                    fabric.note_reentrancy(r.local);
                    fabric.record(event, cap.slot, reply_bytes);
                }
                _ => fabric.record(event, cap.slot, reply_bytes),
            }
        }
        // Remote-side errors carry target-shard-local ids; remap onto
        // the global target the caller named.
        result.map_err(|e| match e {
            SubstrateError::DomainCrashed(_) => SubstrateError::DomainCrashed(grant.to),
            SubstrateError::Reentrancy(_) => SubstrateError::Reentrancy(grant.to),
            other => other,
        })
    }
}

impl Substrate for ShardFabric {
    fn profile(&self) -> &SubstrateProfile {
        self.shards[0].profile()
    }

    fn spawn(
        &mut self,
        spec: DomainSpec,
        component: Box<dyn Component>,
    ) -> Result<DomainId, SubstrateError> {
        let shard = self.place_shard(&spec.name);
        let name = spec.name.clone();
        let local = self.shards[shard as usize]
            .spawn(spec, component)
            .map_err(|e| self.globalize(shard, e))?;
        self.by_name.insert(name, shard);
        let gid = DomainId(self.routes.len() as u32);
        self.routes.push(Some(Route { shard, local }));
        Ok(gid)
    }

    fn destroy(&mut self, domain: DomainId) -> Result<(), SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .destroy(r.local)
            .map_err(|e| self.globalize(r.shard, e))?;
        self.routes[domain.0 as usize] = None;
        for g in &mut self.xgrants {
            if g.from == domain || g.to == domain {
                g.revoked = true;
            }
        }
        Ok(())
    }

    fn grant_channel(
        &mut self,
        from: DomainId,
        to: DomainId,
        badge: Badge,
    ) -> Result<ChannelCap, SubstrateError> {
        let rf = self.route(from)?;
        let rt = self.route(to)?;
        if rf.shard == rt.shard {
            let cap = self.shards[rf.shard as usize]
                .grant_channel(rf.local, rt.local, badge)
                .map_err(|e| self.globalize(rf.shard, e))?;
            return Ok(ChannelCap {
                owner: from,
                slot: cap.slot,
                nonce: cap.nonce,
            });
        }
        let ingress = self.ingress_domain(rt.shard)?;
        let inner = self.shards[rt.shard as usize]
            .grant_channel(ingress, rt.local, badge)
            .map_err(|e| self.globalize(rt.shard, e))?;
        let to_name = self.shards[rt.shard as usize]
            .domain_name(rt.local)
            .unwrap_or_else(|_| to.to_string());
        let label = self.shards[rf.shard as usize]
            .telemetry_mut_ref()
            .map(|t| t.intern(&format!("xshard invoke {to_name}")));
        let idx = self.xgrants.len();
        let nonce = idx as u64 + 1;
        self.xgrants.push(XGrant {
            from,
            to,
            badge,
            nonce,
            inner,
            label,
            revoked: false,
        });
        Ok(ChannelCap {
            owner: from,
            slot: XSHARD_SLOT_BASE + idx as u32,
            nonce,
        })
    }

    fn revoke_channel(&mut self, cap: &ChannelCap) -> Result<(), SubstrateError> {
        if cap.slot >= XSHARD_SLOT_BASE {
            self.route(cap.owner)?;
            let idx = (cap.slot - XSHARD_SLOT_BASE) as usize;
            let Some(grant) = self.xgrants.get(idx).copied() else {
                return Ok(());
            };
            if grant.from != cap.owner || grant.nonce != cap.nonce || grant.revoked {
                return Ok(());
            }
            self.xgrants[idx].revoked = true;
            if let Ok(rt) = self.route(grant.to) {
                let _ = self.shards[rt.shard as usize].revoke_channel(&grant.inner);
            }
            return Ok(());
        }
        let r = self.route(cap.owner)?;
        let inner = ChannelCap {
            owner: r.local,
            slot: cap.slot,
            nonce: cap.nonce,
        };
        self.shards[r.shard as usize]
            .revoke_channel(&inner)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn invoke(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        let r = self.route(caller)?;
        if cap.slot < XSHARD_SLOT_BASE {
            let inner = ChannelCap {
                owner: r.local,
                slot: cap.slot,
                nonce: cap.nonce,
            };
            return self.shards[r.shard as usize]
                .invoke(r.local, &inner, data)
                .map_err(|e| self.globalize(r.shard, e));
        }
        self.invoke_cross(r, caller, cap, data)
    }

    fn invoke_batch(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        payloads: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, SubstrateError> {
        let r = self.route(caller)?;
        if cap.slot < XSHARD_SLOT_BASE {
            let inner = ChannelCap {
                owner: r.local,
                slot: cap.slot,
                nonce: cap.nonce,
            };
            return self.shards[r.shard as usize]
                .invoke_batch(r.local, &inner, payloads)
                .map_err(|e| self.globalize(r.shard, e));
        }
        payloads
            .iter()
            .map(|data| self.invoke_cross(r, caller, cap, data))
            .collect()
    }

    fn measurement(&self, domain: DomainId) -> Result<Digest, SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .measurement(r.local)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn domain_name(&self, domain: DomainId) -> Result<String, SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .domain_name(r.local)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn seal(&mut self, domain: DomainId, data: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .seal(r.local, data)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn unseal(&mut self, domain: DomainId, sealed: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .unseal(r.local, sealed)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn attest(
        &mut self,
        domain: DomainId,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .attest(r.local, report_data)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn platform_verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        self.shards[0].platform_verifying_key()
    }

    fn mem_read(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .mem_read(r.local, offset, len)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn mem_write(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let r = self.route(domain)?;
        self.shards[r.shard as usize]
            .mem_write(r.local, offset, data)
            .map_err(|e| self.globalize(r.shard, e))
    }

    fn rng_u64(&mut self, domain: DomainId) -> u64 {
        match self.route(domain) {
            Ok(r) => self.shards[r.shard as usize].rng_u64(r.local),
            Err(_) => self.shards[0].rng_u64(domain),
        }
    }

    fn now(&self) -> u64 {
        self.shards[0].now()
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.shards[0].charge_cycles(cycles);
    }

    fn list_caps(&self, domain: DomainId) -> Result<Vec<ChannelCap>, SubstrateError> {
        let r = self.route(domain)?;
        let mut caps: Vec<ChannelCap> = self.shards[r.shard as usize]
            .list_caps(r.local)
            .map_err(|e| self.globalize(r.shard, e))?
            .into_iter()
            .map(|c| ChannelCap {
                owner: domain,
                slot: c.slot,
                nonce: c.nonce,
            })
            .collect();
        for (i, g) in self.xgrants.iter().enumerate() {
            if g.from == domain && !g.revoked {
                caps.push(ChannelCap {
                    owner: domain,
                    slot: XSHARD_SLOT_BASE + i as u32,
                    nonce: g.nonce,
                });
            }
        }
        Ok(caps)
    }

    fn fabric_ref(&self) -> Option<&crate::fabric::Fabric> {
        self.shards[0].fabric_ref()
    }

    fn fabric_mut_ref(&mut self) -> Option<&mut crate::fabric::Fabric> {
        self.shards[0].fabric_mut_ref()
    }

    fn cost_model(&self) -> Option<crate::fabric::CrossingCostModel> {
        // The intra-shard entries are the anchor backend's; the
        // `xshard` row is the shard runtime's backend-invariant hop
        // cost.
        let mut m = self.shards[0].cost_model()?;
        m.set(crate::fabric::CrossingKind::Shard, XSHARD_BASE_COST, 1, 32);
        Some(m)
    }

    fn crossing_profile(&self) -> Option<lateral_telemetry::profile::CrossingProfile> {
        Some(self.merged_crossing_profile())
    }
}

/// Epoch of sequence number `seq` given a shard's epoch watermarks
/// (`marks[e]` = first sequence number of epoch `e`; `marks[0]` = 0).
fn epoch_of(marks: &[u64], seq: u64) -> u64 {
    (marks.partition_point(|&w| w <= seq) - 1) as u64
}

/// One cross-shard invocation posted into a shard's bounded inbox.
pub struct XShardCall {
    /// Target domain, in the receiving shard's local id space.
    pub target: DomainId,
    /// Request payload.
    pub payload: Vec<u8>,
    /// One-shot reply channel back to the posting shard.
    pub reply: mpsc::SyncSender<Result<Vec<u8>, SubstrateError>>,
}

/// The posting half of the bounded cross-shard inboxes: one clonable
/// handle holding a bounded sender per shard. Posting into a full inbox
/// blocks — bounded-queue backpressure, never unbounded buffering.
#[derive(Clone)]
pub struct ShardPost {
    senders: Vec<mpsc::SyncSender<XShardCall>>,
}

impl ShardPost {
    /// Number of shards this handle can post to.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// Posts a call into shard `to`'s inbox and blocks for the reply —
    /// the synchronous cross-shard round trip of a threaded shard
    /// deployment.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Platform`] when the target shard's inbox has
    /// shut down; otherwise whatever the remote dispatch returned.
    pub fn call(
        &self,
        to: ShardId,
        target: DomainId,
        payload: Vec<u8>,
    ) -> Result<Vec<u8>, SubstrateError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.senders[to.0 as usize]
            .send(XShardCall {
                target,
                payload,
                reply: reply_tx,
            })
            .map_err(|_| SubstrateError::Platform(format!("{to} inbox is closed")))?;
        reply_rx
            .recv()
            .map_err(|_| SubstrateError::Platform(format!("{to} dropped the reply")))?
    }
}

/// The receiving half of one shard's bounded inbox, owned by the thread
/// running that shard's engine.
pub struct ShardInbox {
    rx: mpsc::Receiver<XShardCall>,
}

impl ShardInbox {
    /// Serves inbound calls through `dispatch` until every [`ShardPost`]
    /// clone is dropped. Returns the number of calls served.
    pub fn serve(
        &self,
        mut dispatch: impl FnMut(DomainId, &[u8]) -> Result<Vec<u8>, SubstrateError>,
    ) -> usize {
        let mut served = 0;
        while let Ok(call) = self.rx.recv() {
            let result = dispatch(call.target, &call.payload);
            let _ = call.reply.send(result);
            served += 1;
        }
        served
    }
}

/// Builds the bounded inbox fabric for `shards` shard threads, each
/// inbox holding at most `capacity` in-flight calls. Threads own their
/// [`ShardInbox`]; every thread (and the coordinator) may hold a clone
/// of the [`ShardPost`].
#[must_use]
pub fn shard_channels(shards: usize, capacity: usize) -> (Vec<ShardInbox>, ShardPost) {
    let mut inboxes = Vec::with_capacity(shards);
    let mut senders = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpsc::sync_channel(capacity);
        senders.push(tx);
        inboxes.push(ShardInbox { rx });
    }
    (inboxes, ShardPost { senders })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::software::SoftwareSubstrate;
    use crate::testkit::{Counter, Sealer};

    fn two_shards() -> ShardFabric {
        ShardFabric::new(vec![
            Box::new(SoftwareSubstrate::new("s0")),
            Box::new(SoftwareSubstrate::new("s1")),
        ])
    }

    /// A deterministic mixed workload driven through the object-safe
    /// surface — runs identically on a raw substrate and an N=1 shard
    /// fabric.
    fn workload(sub: &mut dyn Substrate) {
        let a = sub
            .spawn(DomainSpec::named("alpha"), Box::new(Echo))
            .unwrap();
        let b = sub
            .spawn(DomainSpec::named("beta"), Box::new(Counter::default()))
            .unwrap();
        let cap = sub.grant_channel(a, b, Badge(7)).unwrap();
        for i in 0..5u8 {
            sub.invoke(a, &cap, &[i]).unwrap();
        }
        // A forged capability presentation lands a denial.
        let forged = ChannelCap {
            owner: a,
            slot: 17,
            nonce: 99,
        };
        assert!(sub.invoke(a, &forged, b"x").is_err());
        let sealer = sub
            .spawn(DomainSpec::named("sealer"), Box::new(Sealer))
            .unwrap();
        let cap_s = sub.grant_channel(a, sealer, Badge(9)).unwrap();
        let blob = sub.invoke(a, &cap_s, b"s:secret").unwrap();
        let mut req = b"u:".to_vec();
        req.extend_from_slice(&blob);
        assert_eq!(sub.invoke(a, &cap_s, &req).unwrap(), b"secret");
        sub.revoke_channel(&cap).unwrap();
        assert!(sub.invoke(a, &cap, b"after revoke").is_err());
    }

    #[test]
    fn n1_fabric_is_byte_identical_to_single_engine() {
        let mut raw = SoftwareSubstrate::new("ref");
        workload(&mut raw);

        let mut sharded = ShardFabric::new(vec![Box::new(SoftwareSubstrate::new("ref"))]);
        workload(&mut sharded);

        let raw_fabric = raw.fabric_ref().unwrap();
        assert_eq!(
            sharded.merged_trace_bytes(),
            raw_fabric.trace_bytes(),
            "N=1 merged trace must be byte-identical to the single engine"
        );
        assert_eq!(
            sharded.merged_tree_digest(),
            raw_fabric.telemetry().tree_digest(),
            "N=1 merged span tree must digest identically"
        );
        assert_eq!(
            sharded.merged_metrics().digest(),
            raw_fabric.telemetry().metrics().digest(),
            "N=1 merged metrics must digest identically"
        );
    }

    #[test]
    fn placement_is_pinned_sticky_then_round_robin() {
        let mut fab = two_shards();
        fab.pin("pinned", ShardId(1));
        let p = fab
            .spawn(DomainSpec::named("pinned"), Box::new(Echo))
            .unwrap();
        assert_eq!(fab.shard_of(p), Some(ShardId(1)));
        // Round-robin for unpinned names starts at shard 0.
        let a = fab.spawn(DomainSpec::named("a"), Box::new(Echo)).unwrap();
        let b = fab.spawn(DomainSpec::named("b"), Box::new(Echo)).unwrap();
        assert_eq!(fab.shard_of(a), Some(ShardId(0)));
        assert_eq!(fab.shard_of(b), Some(ShardId(1)));
        // Sticky: respawning a destroyed name lands on the same shard,
        // so supervisor respawn stays shard-local.
        fab.destroy(b).unwrap();
        let b2 = fab.spawn(DomainSpec::named("b"), Box::new(Echo)).unwrap();
        assert_eq!(fab.shard_of(b2), Some(ShardId(1)));
        assert_ne!(b, b2, "global ids are never reused");
    }

    #[test]
    fn cross_shard_invoke_is_an_explicit_crossing() {
        let mut fab = two_shards();
        fab.pin("client", ShardId(0));
        fab.pin("svc", ShardId(1));
        let client = fab
            .spawn(DomainSpec::named("client"), Box::new(Echo))
            .unwrap();
        let svc = fab.spawn(DomainSpec::named("svc"), Box::new(Echo)).unwrap();
        let cap = fab.grant_channel(client, svc, Badge(3)).unwrap();
        assert!(cap.slot >= XSHARD_SLOT_BASE);

        let reply = fab.invoke(client, &cap, b"ping").unwrap();
        assert_eq!(reply, b"ping");

        // Caller shard recorded the Shard crossing against the global
        // callee id, with the cross-shard cost-ladder charge.
        let f0 = fab.shard(ShardId(0)).fabric_ref().unwrap();
        let last = f0.trace().last().unwrap();
        assert_eq!(last.crossing, CrossingKind::Shard);
        assert_eq!(last.callee, svc);
        assert_eq!(last.cost, xshard_cost(4));
        assert_eq!(last.outcome, TraceOutcome::Ok);
        let xstats = f0.stats().crossing(CrossingKind::Shard).unwrap();
        assert_eq!(xstats.count, 1);
        // Target shard dispatched it as a local ingress call.
        let f1 = fab.shard(ShardId(1)).fabric_ref().unwrap();
        assert!(f1.trace().any(|e| e.crossing == CrossingKind::Local));
        // Metrics carry the new crossing family.
        let merged = fab.merged_metrics();
        assert_eq!(merged.counter("crossing.xshard"), 1);
    }

    #[test]
    fn revoked_cross_shard_cap_is_refused_with_denial() {
        let mut fab = two_shards();
        fab.pin("client", ShardId(0));
        fab.pin("svc", ShardId(1));
        let client = fab
            .spawn(DomainSpec::named("client"), Box::new(Echo))
            .unwrap();
        let svc = fab.spawn(DomainSpec::named("svc"), Box::new(Echo)).unwrap();
        let cap = fab.grant_channel(client, svc, Badge(3)).unwrap();
        fab.revoke_channel(&cap).unwrap();
        let err = fab.invoke(client, &cap, b"x").unwrap_err();
        assert!(matches!(err, SubstrateError::InvalidCapability(_)));
        let f0 = fab.shard(ShardId(0)).fabric_ref().unwrap();
        assert_eq!(
            f0.stats().total_denials(),
            1,
            "the denial is attributed on the caller's shard"
        );
        // Destroying the target also kills remaining grants.
        let cap2 = fab.grant_channel(client, svc, Badge(4)).unwrap();
        fab.destroy(svc).unwrap();
        assert!(fab.invoke(client, &cap2, b"x").is_err());
    }

    #[test]
    fn merge_is_invariant_under_interleaving() {
        let run = |interleaved: bool| {
            let mut fab = two_shards();
            fab.pin("a", ShardId(0));
            fab.pin("a2", ShardId(0));
            fab.pin("b", ShardId(1));
            fab.pin("b2", ShardId(1));
            let a = fab.spawn(DomainSpec::named("a"), Box::new(Echo)).unwrap();
            let a2 = fab.spawn(DomainSpec::named("a2"), Box::new(Echo)).unwrap();
            let b = fab.spawn(DomainSpec::named("b"), Box::new(Echo)).unwrap();
            let b2 = fab.spawn(DomainSpec::named("b2"), Box::new(Echo)).unwrap();
            let cap_a = fab.grant_channel(a, a2, Badge(1)).unwrap();
            let cap_b = fab.grant_channel(b, b2, Badge(2)).unwrap();
            if interleaved {
                for i in 0..4u8 {
                    fab.invoke(a, &cap_a, &[i]).unwrap();
                    fab.invoke(b, &cap_b, &[i]).unwrap();
                }
            } else {
                for i in 0..4u8 {
                    fab.invoke(a, &cap_a, &[i]).unwrap();
                }
                for i in 0..4u8 {
                    fab.invoke(b, &cap_b, &[i]).unwrap();
                }
            }
            (
                fab.merged_trace_bytes(),
                fab.merged_invariant_digest(),
                fab.merged_tree_digest(),
            )
        };
        assert_eq!(
            run(false),
            run(true),
            "the merge is a function of per-shard streams, not interleaving"
        );
    }

    #[test]
    fn epochs_order_the_merge_across_shards() {
        let mut fab = two_shards();
        fab.pin("a", ShardId(0));
        fab.pin("a2", ShardId(0));
        fab.pin("b", ShardId(1));
        fab.pin("b2", ShardId(1));
        let a = fab.spawn(DomainSpec::named("a"), Box::new(Echo)).unwrap();
        let a2 = fab.spawn(DomainSpec::named("a2"), Box::new(Echo)).unwrap();
        let b = fab.spawn(DomainSpec::named("b"), Box::new(Echo)).unwrap();
        let b2 = fab.spawn(DomainSpec::named("b2"), Box::new(Echo)).unwrap();
        let cap_a = fab.grant_channel(a, a2, Badge(1)).unwrap();
        let cap_b = fab.grant_channel(b, b2, Badge(2)).unwrap();
        // Epoch 0: only shard 1 works. Epoch 1: only shard 0 works.
        fab.invoke(b, &cap_b, b"epoch0").unwrap();
        fab.advance_epoch();
        fab.invoke(a, &cap_a, b"epoch1").unwrap();
        let merged = fab.merged_trace();
        let pos_b = merged
            .iter()
            .position(|m| m.shard == ShardId(1) && m.event.bytes == 6)
            .unwrap();
        let pos_a = merged
            .iter()
            .position(|m| m.shard == ShardId(0) && m.event.bytes == 6)
            .unwrap();
        assert_eq!(merged[pos_b].epoch, 0);
        assert_eq!(merged[pos_a].epoch, 1);
        assert!(
            pos_b < pos_a,
            "the epoch-0 event on the higher shard sorts before the epoch-1 event"
        );
    }

    #[test]
    fn list_caps_spans_both_slot_ranges() {
        let mut fab = two_shards();
        fab.pin("client", ShardId(0));
        fab.pin("peer", ShardId(0));
        fab.pin("svc", ShardId(1));
        let client = fab
            .spawn(DomainSpec::named("client"), Box::new(Echo))
            .unwrap();
        let peer = fab
            .spawn(DomainSpec::named("peer"), Box::new(Echo))
            .unwrap();
        let svc = fab.spawn(DomainSpec::named("svc"), Box::new(Echo)).unwrap();
        let local = fab.grant_channel(client, peer, Badge(1)).unwrap();
        let cross = fab.grant_channel(client, svc, Badge(2)).unwrap();
        let caps = fab.list_caps(client).unwrap();
        assert!(caps.contains(&local));
        assert!(caps.contains(&cross));
        assert!(caps.iter().all(|c| c.owner == client));
        fab.revoke_channel(&cross).unwrap();
        assert!(!fab.list_caps(client).unwrap().contains(&cross));
    }

    #[test]
    fn bounded_inboxes_round_trip_across_threads() {
        let (mut inboxes, post) = shard_channels(2, 4);
        let inbox1 = inboxes.pop().unwrap();
        let _inbox0 = inboxes.pop().unwrap();
        let served = std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                // Shard 1's thread: its own engine, its own domains.
                let mut sub = SoftwareSubstrate::new("shard1");
                let svc = sub.spawn(DomainSpec::named("svc"), Box::new(Echo)).unwrap();
                let ingress = sub
                    .spawn(DomainSpec::named("xshard-ingress"), Box::new(Echo))
                    .unwrap();
                let cap = sub.grant_channel(ingress, svc, Badge(1)).unwrap();
                inbox1.serve(|_target, payload| sub.invoke(ingress, &cap, payload))
            });
            let client_post = post.clone();
            let client = scope.spawn(move || {
                for i in 0..8u8 {
                    let reply = client_post.call(ShardId(1), DomainId(0), vec![i]).unwrap();
                    assert_eq!(reply, vec![i]);
                }
            });
            client.join().unwrap();
            drop(post);
            server.join().unwrap()
        });
        assert_eq!(served, 8);
    }
}
