//! The substrate **fabric**: one engine owning every mechanism of the
//! unified interface — domain lifecycle, capability/badge checks,
//! reentrancy guards, channel grant/revoke, crossing classification and
//! pricing, sealing dispatch, and attestation-evidence assembly. A
//! backend is a [`BackendPolicy`] and nothing else: it contributes only
//! *policy* (placement, the spawn charge, the invoke gate, its clock,
//! memory access, seal/attest keys and its verifying key), and the
//! blanket `impl<B: BackendPolicy> Substrate for B` in this module gives
//! it the whole [`Substrate`]. What every backend merely *holds* — its
//! profile and its DRBG — it hands its [`Fabric`] at construction.
//!
//! The paper's §III-A demand is a *single* unified isolation interface,
//! and its TCB argument (§I) asks for that interface's implementation to
//! be as small as it can be. The mechanism therefore exists once: a
//! backend that type-checks against [`BackendPolicy`] is uniform by
//! construction. Its cost ladder is data too — one
//! [`CrossingCostModel`] per backend, handed to its [`Fabric`] at
//! construction, from which the engine takes both the crossing kind of
//! every invoke (the model's [`InvokeKindRule`] over the endpoints'
//! recorded [`DomainKind`]s) and its price.
//!
//! The engine also threads a deterministic observability layer through
//! every invocation, and keeps each fact once: a [`TraceEvent`] on the
//! logical clock (caller, callee, badge, payload size, crossing kind,
//! cost, outcome) lands in a bounded ring buffer, and the counts land
//! in the `fabric.*` / `crossing.*` families of its telemetry's metrics
//! registry ([`FabricStats`] is a view of four of them). Because the
//! simulator is fully deterministic, two identical runs produce
//! byte-identical trace buffers ([`Fabric::trace_bytes`]) — the uniform
//! measurement layer the E4 cost ladder and the repro tables read from.

use std::collections::{BTreeMap, VecDeque};

use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::VerifyingKey;
use lateral_crypto::Digest;
use lateral_telemetry::profile::CrossingProfile;
use lateral_telemetry::{outcome as span_outcome, CounterId, HistogramId, LabelId, Telemetry};

use crate::attacker::SubstrateProfile;
use crate::attest::AttestationEvidence;
use crate::cap::{Badge, CapEntry, CapTable, ChannelCap};
use crate::component::{Component, ComponentError, Invocation};
use crate::fault::{FaultKind, FaultPlan};
use crate::substrate::{CallCtx, DomainRecord, DomainSpec, DomainTable, Substrate};
use crate::{DomainId, SubstrateError};

/// Default number of trace events retained in the ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Where a domain is placed: inside the backend's trusted environment
/// (secure world, enclave, coprocessor, PAL) or alongside the untrusted
/// legacy software (normal world, host process).
///
/// Backends without a trusted/untrusted split ignore the distinction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainKind {
    /// The backend's protected environment (the default for
    /// [`Substrate::spawn`]).
    Trusted,
    /// The untrusted side — normal world, host process, legacy OS.
    Untrusted,
}

/// How an invocation crosses (or does not cross) an isolation boundary.
/// The engine classifies every invoke by its backend's
/// [`InvokeKindRule`], then prices and traces it by this kind.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CrossingKind {
    /// Same protection context — a (dynamic) function call.
    Local,
    /// Kernel-mediated synchronous IPC round trip.
    Ipc,
    /// Secure-monitor world switch (TrustZone SMC pair).
    WorldSwitch,
    /// Enclave boundary (EENTER/EEXIT pair).
    EnclaveTransition,
    /// Coprocessor mailbox round trip (SEP).
    Mailbox,
    /// DRTM late-launch session entry/exit (Flicker).
    LateLaunch,
    /// Hop between two shard engines of a [`crate::shard::ShardFabric`]:
    /// a bounded-inbox round trip between per-core fabrics, charged on
    /// the *caller's* shard clock. The cost is a property of the shard
    /// runtime, not of the intra-shard isolation mechanism, so it is
    /// identical on every backend (see [`crate::shard::xshard_cost`]).
    Shard,
}

impl CrossingKind {
    /// Stable short name (table rendering, serialization).
    pub fn name(self) -> &'static str {
        match self {
            CrossingKind::Local => "local",
            CrossingKind::Ipc => "ipc",
            CrossingKind::WorldSwitch => "smc",
            CrossingKind::EnclaveTransition => "enclave",
            CrossingKind::Mailbox => "mailbox",
            CrossingKind::LateLaunch => "late-launch",
            CrossingKind::Shard => "xshard",
        }
    }

    fn code(self) -> u8 {
        // Codes are append-only so the 50-byte TraceEvent encoding
        // stays stable across PRs.
        match self {
            CrossingKind::Local => 0,
            CrossingKind::Ipc => 1,
            CrossingKind::WorldSwitch => 2,
            CrossingKind::EnclaveTransition => 3,
            CrossingKind::Mailbox => 4,
            CrossingKind::LateLaunch => 5,
            CrossingKind::Shard => 6,
        }
    }

    /// Number of crossing kinds (sizes the fabric's metric-handle cache).
    const COUNT: usize = 7;

    /// Static metric key for this kind's crossing counter — the same
    /// string `format!("crossing.{}", kind.name())` used to build on
    /// every recorded event, now a compile-time constant the fabric
    /// interns once.
    pub fn counter_metric(self) -> &'static str {
        match self {
            CrossingKind::Local => "crossing.local",
            CrossingKind::Ipc => "crossing.ipc",
            CrossingKind::WorldSwitch => "crossing.smc",
            CrossingKind::EnclaveTransition => "crossing.enclave",
            CrossingKind::Mailbox => "crossing.mailbox",
            CrossingKind::LateLaunch => "crossing.late-launch",
            CrossingKind::Shard => "crossing.xshard",
        }
    }

    /// Static metric key for this kind's cost histogram
    /// (`crossing.<name>.cost`).
    pub fn cost_metric(self) -> &'static str {
        match self {
            CrossingKind::Local => "crossing.local.cost",
            CrossingKind::Ipc => "crossing.ipc.cost",
            CrossingKind::WorldSwitch => "crossing.smc.cost",
            CrossingKind::EnclaveTransition => "crossing.enclave.cost",
            CrossingKind::Mailbox => "crossing.mailbox.cost",
            CrossingKind::LateLaunch => "crossing.late-launch.cost",
            CrossingKind::Shard => "crossing.xshard.cost",
        }
    }
}

impl std::fmt::Display for CrossingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a backend classifies an ordinary cross-domain invoke, expressed
/// as *data*: the engine classifies every invoke with it, from the two
/// endpoints' recorded [`DomainKind`] placements, and an optimizer
/// predicts the crossing kind of a hypothetical placement with the same
/// rule without spawning anything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvokeKindRule {
    /// Every invoke is the same kind (software, microkernel, flicker).
    Always(CrossingKind),
    /// Endpoints on the same side (both trusted or both untrusted) use
    /// `same`; crossing the boundary uses `cross` (trustzone worlds,
    /// SEP processor sides).
    SameSideElse {
        /// Kind charged when both endpoints share a side.
        same: CrossingKind,
        /// Kind charged when the invoke crosses the boundary.
        cross: CrossingKind,
    },
    /// Any trusted endpoint (either side) forces `trusted`; a purely
    /// untrusted pair uses `none` (SGX enclave transitions).
    AnyTrusted {
        /// Kind charged when either endpoint is trusted.
        trusted: CrossingKind,
        /// Kind charged when neither endpoint is trusted.
        none: CrossingKind,
    },
}

impl InvokeKindRule {
    /// The crossing kind an invoke between domains of the given
    /// placements would be charged.
    #[must_use]
    pub fn kind(self, caller: DomainKind, target: DomainKind) -> CrossingKind {
        let trusted = |k: DomainKind| matches!(k, DomainKind::Trusted);
        match self {
            InvokeKindRule::Always(kind) => kind,
            InvokeKindRule::SameSideElse { same, cross } => {
                if trusted(caller) == trusted(target) {
                    same
                } else {
                    cross
                }
            }
            InvokeKindRule::AnyTrusted { trusted: t, none } => {
                if trusted(caller) || trusted(target) {
                    t
                } else {
                    none
                }
            }
        }
    }
}

/// One crossing kind's price: `base + bytes * per_byte_num /
/// per_byte_den` cycles — the affine shape every crossing the engine
/// charges takes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostEntry {
    /// Fixed cycles per crossing (world switch, IPC round trip, …).
    pub base: u64,
    /// Numerator of the per-byte copy cost.
    pub per_byte_num: u64,
    /// Denominator of the per-byte copy cost (non-zero).
    pub per_byte_den: u64,
}

impl CostEntry {
    /// The price of one crossing carrying `bytes` payload bytes.
    #[inline]
    #[must_use]
    pub fn price(&self, bytes: u64) -> u64 {
        self.base + bytes * self.per_byte_num / self.per_byte_den.max(1)
    }

    /// The exact price of `calls` crossings carrying `total_bytes`
    /// between them — the bulk form an optimizer uses to price a
    /// profiled edge without the rounding loss of a per-call average.
    #[must_use]
    pub fn price_bulk(&self, calls: u64, total_bytes: u64) -> u64 {
        calls * self.base + total_bytes * self.per_byte_num / self.per_byte_den.max(1)
    }
}

/// A backend's crossing-cost table *as data*: one [`CostEntry`] per
/// [`CrossingKind`] plus the [`InvokeKindRule`] describing which kind
/// an ordinary invoke is charged. It is the backend's one cost
/// description: the backend hands it to its [`Fabric`], the engine
/// classifies and prices every crossing from it, and
/// `Substrate::cost_model` exposes the same table to the placement
/// optimizer, which prices hypothetical placements without running
/// anything.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrossingCostModel {
    entries: [CostEntry; CrossingKind::COUNT],
    rule: InvokeKindRule,
}

/// Every crossing kind, in code order (the iteration order of
/// [`CrossingCostModel::entries`]).
pub const ALL_CROSSING_KINDS: [CrossingKind; CrossingKind::COUNT] = [
    CrossingKind::Local,
    CrossingKind::Ipc,
    CrossingKind::WorldSwitch,
    CrossingKind::EnclaveTransition,
    CrossingKind::Mailbox,
    CrossingKind::LateLaunch,
    CrossingKind::Shard,
];

impl CrossingCostModel {
    /// A model charging every kind the same entry — backends start
    /// here and [`CrossingCostModel::set`] the exceptions.
    #[must_use]
    pub fn uniform(
        base: u64,
        per_byte_num: u64,
        per_byte_den: u64,
        rule: InvokeKindRule,
    ) -> CrossingCostModel {
        CrossingCostModel {
            entries: [CostEntry {
                base,
                per_byte_num,
                per_byte_den: per_byte_den.max(1),
            }; CrossingKind::COUNT],
            rule,
        }
    }

    /// Overrides the entry for one kind.
    pub fn set(&mut self, kind: CrossingKind, base: u64, per_byte_num: u64, per_byte_den: u64) {
        self.entries[kind.code() as usize] = CostEntry {
            base,
            per_byte_num,
            per_byte_den: per_byte_den.max(1),
        };
    }

    /// The invoke-kind classification rule.
    #[must_use]
    pub fn rule(&self) -> InvokeKindRule {
        self.rule
    }

    /// The entry for one kind.
    #[inline]
    #[must_use]
    pub fn entry(&self, kind: CrossingKind) -> &CostEntry {
        &self.entries[kind.code() as usize]
    }

    /// All entries in kind-code order, paired with their kinds.
    pub fn entries(&self) -> impl Iterator<Item = (CrossingKind, &CostEntry)> {
        ALL_CROSSING_KINDS.iter().map(move |&k| (k, self.entry(k)))
    }

    /// The price of one `kind` crossing with `bytes` payload bytes.
    #[inline]
    #[must_use]
    pub fn price(&self, kind: CrossingKind, bytes: u64) -> u64 {
        self.entry(kind).price(bytes)
    }

    /// Prices `calls` ordinary invokes carrying `total_bytes` between
    /// domains of the given placements.
    #[must_use]
    pub fn price_invokes(
        &self,
        caller: DomainKind,
        target: DomainKind,
        calls: u64,
        total_bytes: u64,
    ) -> u64 {
        self.entry(self.rule.kind(caller, target))
            .price_bulk(calls, total_bytes)
    }

    /// Fixed-width introspection table: one line per kind.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (kind, e) in self.entries() {
            let _ = writeln!(
                out,
                "{:12} base {:>8} per-byte {}/{}",
                kind.name(),
                e.base,
                e.per_byte_num,
                e.per_byte_den
            );
        }
        out
    }
}

/// Outcome of a traced invocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceOutcome {
    /// The component handled the call and replied.
    Ok,
    /// The target was already executing (synchronous re-entry).
    Reentrancy,
    /// The component (or the dispatch below it) failed.
    Failed,
    /// The engine injected a scheduled fault at this point (the
    /// [`crate::fault::FaultPlan`] fired). The event pins the exact
    /// logical position of the injection, which is what makes two
    /// identical runs produce byte-identical fault traces.
    Injected,
    /// The call targeted a domain that already fail-stopped — the
    /// bounded `Unavailable` window callers see until the supervisor
    /// respawns the victim.
    Crashed,
}

impl TraceOutcome {
    /// Stable wire code of this outcome, the last byte of the 50-byte
    /// [`TraceEvent`] encoding. Codes are append-only (new variants
    /// take the next number) so the encoding stays stable across PRs;
    /// the shard merge digest folds them in directly.
    pub fn code(self) -> u8 {
        match self {
            TraceOutcome::Ok => 0,
            TraceOutcome::Reentrancy => 1,
            TraceOutcome::Failed => 2,
            TraceOutcome::Injected => 3,
            TraceOutcome::Crashed => 4,
        }
    }
}

/// One invocation as observed by the engine. Events are recorded when
/// the dispatch completes, so nested calls appear before their parent
/// (completion order) — deterministically so.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number (never wraps with the ring).
    pub seq: u64,
    /// Logical clock reading right after the crossing cost was charged.
    pub at: u64,
    /// Invoking domain.
    pub caller: DomainId,
    /// Target domain the capability designated.
    pub callee: DomainId,
    /// Badge delivered with the invocation.
    pub badge: Badge,
    /// Request payload size in bytes.
    pub bytes: u64,
    /// How the invocation crossed (or didn't cross) an isolation
    /// boundary.
    pub crossing: CrossingKind,
    /// Cycles charged for the crossing (payload copy included).
    pub cost: u64,
    /// What happened.
    pub outcome: TraceOutcome,
}

impl TraceEvent {
    /// Appends the canonical little-endian encoding of this event to
    /// `out` — the unit of [`Fabric::trace_bytes`] determinism checks.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.at.to_le_bytes());
        out.extend_from_slice(&self.caller.0.to_le_bytes());
        out.extend_from_slice(&self.callee.0.to_le_bytes());
        out.extend_from_slice(&self.badge.0.to_le_bytes());
        out.extend_from_slice(&self.bytes.to_le_bytes());
        out.extend_from_slice(&self.cost.to_le_bytes());
        out.push(self.crossing.code());
        out.push(self.outcome.code());
    }
}

/// The engine's four dispatch totals as they stood when
/// [`Fabric::stats`] read them from its metrics registry; it keeps no
/// counter of its own.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FabricStats {
    invocations: u64,
    bytes: u64,
    denials: u64,
    reentrancy_faults: u64,
}

impl FabricStats {
    /// Invocations that reached dispatch (`fabric.invocations`).
    pub fn total_invocations(&self) -> u64 {
        self.invocations
    }

    /// Request plus reply bytes those dispatches moved (`fabric.bytes`).
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Refused capability presentations (`fabric.denials`).
    pub fn total_denials(&self) -> u64 {
        self.denials
    }

    /// Refused synchronous re-entries (`fabric.reentrancy`).
    pub fn total_reentrancy_faults(&self) -> u64 {
        self.reentrancy_faults
    }
}

/// Interned span labels for one domain, precomputed once at spawn so
/// the per-invocation path never formats a span name. `Copy` — handing
/// one out does not borrow the fabric.
#[derive(Clone, Copy, Debug)]
struct DomainLabels {
    invoke: LabelId,
    destroy: LabelId,
    seal: LabelId,
    unseal: LabelId,
}

/// Cached metric handles for the `fabric.*` / `crossing.*` families.
/// Each is registered on first use (exactly when the old string-keyed
/// path would have created the row) and reused forever after, so the
/// steady-state hot path is two `Vec` index bumps instead of two
/// `format!` allocations plus four map probes.
#[derive(Clone, Copy, Default, Debug)]
struct FabricMetricIds {
    invocations: Option<CounterId>,
    bytes: Option<CounterId>,
    denials: Option<CounterId>,
    reentrancy: Option<CounterId>,
    crossings: [Option<(CounterId, HistogramId)>; CrossingKind::COUNT],
}

/// Registers-on-first-use lookup for a cached counter handle. A free
/// function (not a method) so callers can hold disjoint borrows of the
/// telemetry and the handle slot.
fn cached_counter(
    telemetry: &mut Telemetry,
    slot: &mut Option<CounterId>,
    name: &'static str,
) -> CounterId {
    match *slot {
        Some(id) => id,
        None => {
            let id = telemetry.metrics_mut().counter_id(name);
            *slot = Some(id);
            id
        }
    }
}

/// The per-substrate fabric state: the domain table (the single copy,
/// crash flags included), the backend's cost model, profile and DRBG,
/// the trace ring buffer, and the telemetry whose metrics registry
/// holds every count. Each backend owns exactly one `Fabric`.
pub struct Fabric {
    table: DomainTable,
    cost_model: CrossingCostModel,
    profile: SubstrateProfile,
    /// Forked once per [`Fabric::rng_u64`] draw; nothing else reads it.
    rng: Drbg,
    trace: VecDeque<TraceEvent>,
    trace_capacity: usize,
    next_seq: u64,
    faults: FaultPlan,
    telemetry: Telemetry,
    /// Per-domain interned labels, indexed by the dense `DomainId`
    /// (ids are never reused, so a slot is written at most twice:
    /// once at spawn, cleared at destroy).
    domain_labels: Vec<Option<DomainLabels>>,
    /// Interned `grant {from}->{to}` labels keyed by endpoint pair.
    grant_labels: BTreeMap<(DomainId, DomainId), LabelId>,
    metric_ids: FabricMetricIds,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Fabric({} domains, {} traced events)",
            self.table.len(),
            self.next_seq
        )
    }
}

impl Fabric {
    /// An empty fabric for a backend described by `profile`, charging
    /// crossings by `cost_model` and drawing domain randomness from
    /// `rng`, with the default trace capacity. A backend that derives
    /// keys from its DRBG draws them before handing it over.
    pub fn new(cost_model: CrossingCostModel, profile: SubstrateProfile, rng: Drbg) -> Fabric {
        Fabric {
            table: DomainTable::new(),
            cost_model,
            profile,
            rng,
            trace: VecDeque::with_capacity(DEFAULT_TRACE_CAPACITY),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            next_seq: 0,
            faults: FaultPlan::new(),
            telemetry: Telemetry::new(),
            domain_labels: Vec::new(),
            grant_labels: BTreeMap::new(),
            metric_ids: FabricMetricIds::default(),
        }
    }

    /// The same fabric retaining up to `capacity` trace events.
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Fabric {
        self.trace = VecDeque::with_capacity(capacity.min(DEFAULT_TRACE_CAPACITY));
        self.trace_capacity = capacity.max(1);
        self
    }

    /// The backend's self-description, served as [`Substrate::profile`].
    pub fn profile(&self) -> &SubstrateProfile {
        &self.profile
    }

    /// The profile, writable — for a backend whose features change
    /// after construction (a microkernel provisioned with an attestation
    /// identity).
    pub fn profile_mut(&mut self) -> &mut SubstrateProfile {
        &mut self.profile
    }

    /// Domain-scoped randomness, served as [`Substrate::rng_u64`]: the
    /// first word of a fresh `domain-{id}` fork of the fabric's DRBG.
    pub fn rng_u64(&mut self, domain: DomainId) -> u64 {
        self.rng.fork(&format!("domain-{}", domain.0)).next_u64()
    }

    /// The domain table (read side).
    pub fn table(&self) -> &DomainTable {
        &self.table
    }

    /// The domain table (write side) — for backend placement hooks and
    /// tests; normal operation goes through the engine.
    pub fn table_mut(&mut self) -> &mut DomainTable {
        &mut self.table
    }

    /// The four dispatch totals, read from the metrics registry (a read
    /// registers nothing, so no metrics digest moves).
    pub fn stats(&self) -> FabricStats {
        let metrics = self.telemetry.metrics();
        FabricStats {
            invocations: metrics.counter("fabric.invocations"),
            bytes: metrics.counter("fabric.bytes"),
            denials: metrics.counter("fabric.denials"),
            reentrancy_faults: metrics.counter("fabric.reentrancy"),
        }
    }

    /// The cost model every crossing is classified and priced by.
    pub fn cost_model(&self) -> &CrossingCostModel {
        &self.cost_model
    }

    /// The crossing an invoke `caller → target` makes: the cost model's
    /// [`InvokeKindRule`] over the endpoints' recorded placements.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`] for a missing endpoint, where
    /// the rule consults placements.
    #[inline]
    fn crossing(&self, caller: DomainId, target: DomainId) -> Result<CrossingKind, SubstrateError> {
        let rule = self.cost_model.rule();
        if let InvokeKindRule::Always(kind) = rule {
            // No placement lookups on the per-invoke path of backends
            // whose every invoke is the same kind.
            return Ok(kind);
        }
        let kind_of = |id| self.table.get(id).map(|rec| rec.kind);
        Ok(rule.kind(kind_of(caller)?, kind_of(target)?))
    }

    /// The causal telemetry collector: every engine operation lands as
    /// a span here, and higher layers (composer, supervisor) open their
    /// enclosing spans on the same collector so one flow is one tree.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The telemetry collector, writable — for opening enclosing spans
    /// and reading/merging metrics.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// The retained trace events, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEvent> {
        self.trace.iter()
    }

    /// Number of events currently retained (≤ capacity).
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Total events ever recorded (monotonic, unaffected by the ring).
    pub fn events_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Canonical byte serialization of the retained trace — two
    /// identical runs must produce identical output (the determinism
    /// acceptance check).
    pub fn trace_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.trace.len() * 50);
        for ev in &self.trace {
            ev.encode_into(&mut out);
        }
        out
    }

    /// Folds the retained trace into a [`CrossingProfile`]: one edge
    /// per `(caller name, callee name, crossing kind)` triple, holding
    /// the per-call cost histogram and total payload bytes. Every
    /// retained event contributes — the cost was charged whatever the
    /// outcome. Domains the table no longer knows (destroyed since the
    /// event was recorded) fold under the stable placeholder
    /// `domain-<id>` so the profile never silently drops traffic.
    #[must_use]
    pub fn crossing_profile(&self) -> CrossingProfile {
        let mut profile = CrossingProfile::new();
        let name_of = |id: DomainId| match self.table.get(id) {
            Ok(rec) => rec.spec.name.clone(),
            Err(_) => format!("domain-{}", id.0),
        };
        for ev in &self.trace {
            profile.observe(
                &name_of(ev.caller),
                &name_of(ev.callee),
                ev.crossing.name(),
                ev.cost,
                ev.bytes,
            );
        }
        profile
    }

    /// Installs (replacing any previous) deterministic fault schedule.
    /// The engine consults it on every spawn, invoke, grant, and seal.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Whether `id` has fail-stopped (an injected crash not yet cleared
    /// by destroying the domain, which drops its record and the flag).
    pub fn is_crashed(&self, id: DomainId) -> bool {
        self.table.get(id).is_ok_and(|rec| rec.crashed)
    }

    /// Advances the fault plan for one observed operation on `id` and
    /// reports whether a fault fires now. Returns `false` for ids not
    /// in the table (nothing to match a name against).
    #[inline]
    fn fault_fires(&mut self, id: DomainId, kind: FaultKind) -> bool {
        let Ok(rec) = self.table.get(id) else {
            return false;
        };
        self.faults.observe(&rec.spec.name, kind)
    }

    /// The interned span labels for `id`, computed (four interns, one
    /// name clone) the first time a domain is seen and a `Copy` cache
    /// hit ever after. `None` when the domain is not in the table.
    #[inline]
    fn domain_labels(&mut self, id: DomainId) -> Option<DomainLabels> {
        let idx = id.0 as usize;
        if let Some(Some(labels)) = self.domain_labels.get(idx) {
            return Some(*labels);
        }
        let name = match self.table.get(id) {
            Ok(rec) => rec.spec.name.clone(),
            Err(_) => return None,
        };
        let labels = DomainLabels {
            invoke: self.telemetry.intern(&format!("invoke {name}")),
            destroy: self.telemetry.intern(&format!("destroy {name}")),
            seal: self.telemetry.intern(&format!("seal {name}")),
            unseal: self.telemetry.intern(&format!("unseal {name}")),
        };
        if self.domain_labels.len() <= idx {
            self.domain_labels.resize(idx + 1, None);
        }
        self.domain_labels[idx] = Some(labels);
        Some(labels)
    }

    /// Drops the cached labels for a destroyed domain so later lookups
    /// fall back to the missing-domain path (ids are never reused).
    fn clear_domain_labels(&mut self, id: DomainId) {
        if let Some(slot) = self.domain_labels.get_mut(id.0 as usize) {
            *slot = None;
        }
    }

    /// The interned `grant {from}->{to}` label. Endpoints are
    /// re-validated on every call — in the same `to` then `from` order
    /// as the original formatting code — so a cached label never masks
    /// a missing domain.
    fn grant_label(&mut self, from: DomainId, to: DomainId) -> Result<LabelId, SubstrateError> {
        let to_name = &self.table.get(to)?.spec.name;
        if let Some(&label) = self.grant_labels.get(&(from, to)) {
            self.table.get(from)?;
            return Ok(label);
        }
        let name = format!("grant {}->{}", self.table.get(from)?.spec.name, to_name);
        let label = self.telemetry.intern(&name);
        self.grant_labels.insert((from, to), label);
        Ok(label)
    }

    /// Cached `(counter, cost histogram)` handles for one crossing
    /// kind, registered on first use.
    fn crossing_ids(&mut self, kind: CrossingKind) -> (CounterId, HistogramId) {
        let idx = kind.code() as usize;
        if let Some(ids) = self.metric_ids.crossings[idx] {
            return ids;
        }
        let metrics = self.telemetry.metrics_mut();
        let ids = (
            metrics.counter_id(kind.counter_metric()),
            metrics.histogram_id(kind.cost_metric()),
        );
        self.metric_ids.crossings[idx] = Some(ids);
        ids
    }

    /// Appends a fault-path event ([`TraceOutcome::Injected`] or
    /// [`TraceOutcome::Crashed`]) to the ring without counting it —
    /// injections are not dispatches.
    /// Public so the shard layer ([`crate::shard`]) can record its
    /// caller-side cross-shard fault events with engine semantics.
    pub fn record_fault(&mut self, event: TraceEvent) {
        if self.trace.len() == self.trace_capacity {
            self.trace.pop_front();
        }
        self.trace.push_back(event);
        self.next_seq += 1;
    }

    /// Counts a refused capability presentation (the `fabric.denials`
    /// metric). Public so the shard layer can count cross-shard denials
    /// on the caller's shard exactly as the engine counts intra-shard
    /// ones.
    pub fn note_denial(&mut self) {
        let id = cached_counter(
            &mut self.telemetry,
            &mut self.metric_ids.denials,
            "fabric.denials",
        );
        self.telemetry.metrics_mut().incr_by_id(id, 1);
    }

    /// Counts a refused synchronous re-entry (the `fabric.reentrancy`
    /// metric) — the shard layer's cross-shard twin of the engine's own
    /// accounting.
    pub fn note_reentrancy(&mut self) {
        let id = cached_counter(
            &mut self.telemetry,
            &mut self.metric_ids.reentrancy,
            "fabric.reentrancy",
        );
        self.telemetry.metrics_mut().incr_by_id(id, 1);
    }

    /// Appends a completed-dispatch event to the ring and counts it in
    /// the metrics registry — the `fabric.invocations` and
    /// `fabric.bytes` (request plus `reply_bytes`) counters, and the
    /// crossing counter and cost histogram of `event.crossing`. Those
    /// are the only two places a dispatch is written. Public so the
    /// shard layer records cross-shard dispatches with byte-identical
    /// accounting to intra-shard ones.
    #[inline]
    pub fn record(&mut self, event: TraceEvent, reply_bytes: u64) {
        let invocations = cached_counter(
            &mut self.telemetry,
            &mut self.metric_ids.invocations,
            "fabric.invocations",
        );
        let bytes = cached_counter(
            &mut self.telemetry,
            &mut self.metric_ids.bytes,
            "fabric.bytes",
        );
        let (count, cost) = self.crossing_ids(event.crossing);
        let metrics = self.telemetry.metrics_mut();
        metrics.incr_by_id(invocations, 1);
        metrics.incr_by_id(bytes, event.bytes + reply_bytes);
        metrics.incr_by_id(count, 1);
        metrics.observe_by_id(cost, event.cost);
        if self.trace.len() == self.trace_capacity {
            self.trace.pop_front();
        }
        self.trace.push_back(event);
        self.next_seq += 1;
    }

    /// The sequence number the next recorded event must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// What a backend contributes — the policy that really differs between
/// isolation mechanisms — and nothing else: placement, the spawn
/// charge, the invoke gate, its clock, memory access, seal/attest keys
/// and its verifying key. The blanket `impl<B: BackendPolicy> Substrate
/// for B` below is the engine that turns these hooks into the whole
/// [`Substrate`]; crossing kinds and prices come from the
/// [`CrossingCostModel`] the backend gave its [`Fabric`], and the
/// profile and domain randomness from the fabric too.
///
/// Hook names differ from the [`Substrate`] methods they serve
/// (`clock` for `now`, `read_mem` for `mem_read`, …). `fabric` and
/// `fabric_mut` are the exception: the engine serves the `Substrate`
/// accessors of the same names from them, so on a concrete backend
/// with both traits in scope, name the trait (`Substrate::fabric(&b)`).
pub trait BackendPolicy: Send {
    /// The backend's fabric (domain table, trace, telemetry and its
    /// metrics, cost model, profile, DRBG), served as
    /// [`Substrate::fabric`].
    fn fabric(&self) -> &Fabric;

    /// Mutable access to the backend's fabric.
    fn fabric_mut(&mut self) -> &mut Fabric;

    /// Allocates backend resources (memory, address space, world or
    /// enclave assignment) for the freshly inserted domain `id`. The
    /// domain's [`DomainSpec`] is already in the table:
    /// `self.fabric().table().get(id)`.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::OutOfResources`] and friends; the engine rolls
    /// the table insertion back.
    fn place(&mut self, id: DomainId, kind: DomainKind) -> Result<(), SubstrateError>;

    /// Releases everything [`BackendPolicy::place`] allocated (and
    /// scrubs memory). Called with `id` already removed from the table.
    fn unplace(&mut self, id: DomainId);

    /// Charges the backend's domain-creation cost and performs any
    /// post-placement work (e.g. Flicker's registration launch). Runs
    /// after [`BackendPolicy::place`], before the component's
    /// `on_start`.
    ///
    /// # Errors
    ///
    /// Backend-specific; the engine rolls the spawn back.
    fn charge_spawn(&mut self, id: DomainId) -> Result<(), SubstrateError> {
        let _ = id;
        Ok(())
    }

    /// Gate executed after capability validation, before the crossing is
    /// charged — world/transition rules live here (e.g. Flicker's
    /// single-session limit, which also *enters* the session).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Reentrancy`] (counted as a fault) or any veto.
    fn begin_invoke(&mut self, caller: DomainId, target: DomainId) -> Result<(), SubstrateError> {
        let _ = (caller, target);
        Ok(())
    }

    /// Teardown mirroring [`BackendPolicy::begin_invoke`]; runs whether
    /// or not the dispatch succeeded.
    fn end_invoke(&mut self, caller: DomainId, target: DomainId) {
        let _ = (caller, target);
    }

    /// The backend's logical clock in cycles, served as
    /// [`Substrate::now`].
    fn clock(&self) -> u64;

    /// Advances the backend's logical clock by `cycles` — every crossing
    /// charge, and [`Substrate::charge_cycles`].
    fn advance_clock(&mut self, cycles: u64);

    /// Reads `len` bytes at `offset` of `domain`'s private memory,
    /// served as [`Substrate::mem_read`].
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`]; [`SubstrateError::AccessDenied`]
    /// for accesses outside the domain's memory.
    fn read_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError>;

    /// Writes `data` at `offset` of `domain`'s private memory, served as
    /// [`Substrate::mem_write`].
    ///
    /// # Errors
    ///
    /// As [`BackendPolicy::read_mem`].
    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError>;

    /// Seals `data` to `measurement` for `domain` — key derivation is
    /// the backend's (EGETKEY, fused root, TPM session, …).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Unsupported`] where the domain cannot seal.
    fn seal_blob(
        &mut self,
        domain: DomainId,
        measurement: &Digest,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError>;

    /// Reverses [`BackendPolicy::seal_blob`].
    ///
    /// # Errors
    ///
    /// [`SubstrateError::CryptoFailure`] on identity mismatch or
    /// tampering; [`SubstrateError::Unsupported`] where sealing is.
    fn unseal_blob(
        &mut self,
        domain: DomainId,
        measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError>;

    /// Assembles signed attestation evidence for `domain`.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Unsupported`] without a hardware secret or for
    /// unattestable domains.
    fn attest_evidence(
        &mut self,
        domain: DomainId,
        measurement: Digest,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError>;

    /// The platform's attestation verifying key, served as
    /// [`Substrate::platform_verifying_key`].
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Unsupported`] when the platform cannot attest.
    fn verifying_key(&self) -> Result<VerifyingKey, SubstrateError>;
}

/// Bytes in one page of heap domain memory.
const PAGE: usize = 4096;

/// Each domain's private memory as one zeroed heap buffer, indexed by
/// domain id: placement, scrubbing and range-checked access for the
/// backends without an MMU (software and Flicker), as
/// `hw::mmu::DomainMemory` is for the other four. The backend checks
/// that the domain is live before reading or writing.
#[derive(Default)]
pub struct HeapMemory {
    buffers: Vec<Vec<u8>>,
}

impl HeapMemory {
    /// [`BackendPolicy::place`] for heap memory: appends domain `id`'s
    /// buffer of `pages` pages (at least one, as on every backend).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::OutOfResources`] when the byte size overflows or
    /// the allocator refuses it. An empty buffer is appended even then:
    /// the engine consumes the id of a refused spawn, and the buffers
    /// must stay aligned with the ids.
    pub fn place(&mut self, id: DomainId, pages: usize) -> Result<(), SubstrateError> {
        // Ids are dense and never reused.
        debug_assert_eq!(id.0 as usize, self.buffers.len());
        let mut mem = Vec::new();
        let placed = match pages.max(1).checked_mul(PAGE) {
            Some(bytes) if mem.try_reserve_exact(bytes).is_ok() => {
                mem.resize(bytes, 0);
                Ok(())
            }
            _ => Err(SubstrateError::OutOfResources(format!(
                "no heap memory for {pages} pages"
            ))),
        };
        self.buffers.push(mem);
        placed
    }

    /// [`BackendPolicy::unplace`] for heap memory: zeroes domain `id`'s
    /// buffer.
    pub fn scrub(&mut self, id: DomainId) {
        if let Some(mem) = self.buffers.get_mut(id.0 as usize) {
            mem.fill(0);
        }
    }

    /// Copies `len` bytes at `offset` out of domain `id`'s buffer.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::AccessDenied`] for a range outside the buffer;
    /// [`SubstrateError::NoSuchDomain`] for an id never placed.
    #[inline]
    pub fn read(&self, id: DomainId, offset: usize, len: usize) -> Result<Vec<u8>, SubstrateError> {
        let mem = self
            .buffers
            .get(id.0 as usize)
            .ok_or(SubstrateError::NoSuchDomain(id))?;
        Ok(mem[heap_range(mem, offset, len)?].to_vec())
    }

    /// Copies `data` into domain `id`'s buffer at `offset`.
    ///
    /// # Errors
    ///
    /// As [`HeapMemory::read`].
    #[inline]
    pub fn write(
        &mut self,
        id: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let mem = self
            .buffers
            .get_mut(id.0 as usize)
            .ok_or(SubstrateError::NoSuchDomain(id))?;
        let range = heap_range(mem, offset, data.len())?;
        mem[range].copy_from_slice(data);
        Ok(())
    }
}

/// `offset..offset + len` when that lies within `mem`.
#[inline]
fn heap_range(
    mem: &[u8],
    offset: usize,
    len: usize,
) -> Result<std::ops::Range<usize>, SubstrateError> {
    offset
        .checked_add(len)
        .filter(|&end| end <= mem.len())
        .map(|end| offset..end)
        .ok_or_else(|| SubstrateError::AccessDenied("heap memory access out of range".into()))
}

/// Engine: creates a domain of placement `kind` — inserts the record,
/// places it via the backend, charges the spawn cost, and runs
/// `on_start` through the normal dispatch machinery (rolling everything
/// back on failure). [`Substrate::spawn`] places on the trusted side;
/// backends call this directly for their untrusted spawns.
///
/// # Errors
///
/// See [`Substrate::spawn`].
pub fn spawn<B: BackendPolicy>(
    backend: &mut B,
    spec: DomainSpec,
    component: Box<dyn Component>,
    kind: DomainKind,
) -> Result<DomainId, SubstrateError> {
    let spawn_label = backend
        .fabric_mut()
        .telemetry
        .intern(&format!("spawn {}", spec.name));
    let measurement = spec.measurement();
    let id = backend.fabric_mut().table_mut().insert(DomainRecord {
        spec,
        measurement,
        kind,
        caps: CapTable::new(),
        component: Some(component),
        crashed: false,
    });
    if let Err(e) = backend.place(id, kind) {
        let _ = backend.fabric_mut().table_mut().remove(id);
        return Err(e);
    }
    if let Err(e) = backend.charge_spawn(id) {
        let _ = backend.fabric_mut().table_mut().remove(id);
        backend.unplace(id);
        return Err(e);
    }
    // An injected spawn fault behaves exactly like a late platform
    // failure: resources were placed and charged, then the launch
    // fail-stops and everything rolls back (the id stays consumed —
    // ids are never reused, fault or no fault).
    if backend.fabric_mut().fault_fires(id, FaultKind::FailSpawn) {
        let at = backend.clock();
        let fabric = backend.fabric_mut();
        let event = TraceEvent {
            seq: fabric.next_seq(),
            at,
            caller: id,
            callee: id,
            badge: Badge(0),
            bytes: 0,
            crossing: CrossingKind::Local,
            cost: 0,
            outcome: TraceOutcome::Injected,
        };
        fabric.record_fault(event);
        fabric
            .telemetry
            .instant_label(spawn_label, "fabric", at, span_outcome::INJECTED);
        let _ = fabric.table_mut().remove(id);
        backend.unplace(id);
        return Err(SubstrateError::Platform(
            "injected fault: fail-stop on spawn".into(),
        ));
    }
    // Precompute the domain's invoke/destroy/seal/unseal labels now so
    // no later hot-path operation ever formats a span name for it.
    backend.fabric_mut().domain_labels(id);
    let at = backend.clock();
    let span = backend
        .fabric_mut()
        .telemetry
        .begin_span_label(spawn_label, "fabric", at);
    let mut comp = match backend.fabric_mut().table_mut().take_component(id) {
        Ok(c) => c,
        Err(e) => {
            let at = backend.clock();
            backend
                .fabric_mut()
                .telemetry
                .end_span(span, at, span_outcome::FAILED);
            return Err(e);
        }
    };
    let result = {
        let mut ctx = CallCtx::new(backend as &mut dyn Substrate, id, measurement);
        comp.on_start(&mut ctx)
    };
    backend.fabric_mut().table_mut().put_component(id, comp);
    let outcome = match result {
        Ok(()) => span_outcome::OK,
        Err(_) => {
            backend.destroy(id)?;
            span_outcome::FAILED
        }
    };
    let at = backend.clock();
    backend.fabric_mut().telemetry.end_span(span, at, outcome);
    result
        .map(|()| id)
        .map_err(|ComponentError(msg)| SubstrateError::ComponentFailure(msg))
}

/// The shared front of [`Substrate::invoke`] and
/// [`Substrate::invoke_batch`]: validates the capability (counting a
/// denial) and interns the span label. Calls into an already-crashed
/// target fail fast here and land in the trace — E10 counts these as
/// lost invocations. The event records the crossing the call *would*
/// have made (a crashed SGX domain is still behind an enclave boundary)
/// with zero cost, since nothing was dispatched.
fn admit_invoke<B: BackendPolicy>(
    backend: &mut B,
    caller: DomainId,
    cap: &ChannelCap,
    bytes: u64,
) -> Result<(CapEntry, LabelId), SubstrateError> {
    let lookup = backend
        .fabric()
        .table()
        .get(caller)?
        .caps
        .lookup(caller, cap);
    let entry = match lookup {
        Ok(entry) => entry,
        Err(e) => {
            backend.fabric_mut().note_denial();
            return Err(e);
        }
    };
    let target = entry.target;
    let span_label = invoke_label(backend, target);
    if backend.fabric().is_crashed(target) {
        let crossing = backend
            .fabric()
            .crossing(caller, target)
            .unwrap_or(CrossingKind::Local);
        let at = backend.clock();
        let fabric = backend.fabric_mut();
        fabric.note_denial();
        let event = TraceEvent {
            seq: fabric.next_seq(),
            at,
            caller,
            callee: target,
            badge: entry.badge,
            bytes,
            crossing,
            cost: 0,
            outcome: TraceOutcome::Crashed,
        };
        fabric.record_fault(event);
        fabric
            .telemetry
            .instant_label(span_label, "fabric", at, span_outcome::CRASHED);
        return Err(SubstrateError::DomainCrashed(target));
    }
    Ok((entry, span_label))
}

/// Records a scheduled crash firing on the dispatch of `bytes` through
/// `entry`: the component never runs, and the target fail-stops until
/// destroyed and respawned.
fn record_injected_crash<B: BackendPolicy>(
    backend: &mut B,
    caller: DomainId,
    entry: &CapEntry,
    bytes: u64,
    crossing: CrossingKind,
) -> SubstrateError {
    let at = backend.clock();
    let fabric = backend.fabric_mut();
    if let Ok(rec) = fabric.table_mut().get_mut(entry.target) {
        rec.crashed = true;
    }
    let event = TraceEvent {
        seq: fabric.next_seq(),
        at,
        caller,
        callee: entry.target,
        badge: entry.badge,
        bytes,
        crossing,
        cost: 0,
        outcome: TraceOutcome::Injected,
    };
    fabric.record_fault(event);
    SubstrateError::DomainCrashed(entry.target)
}

/// Runs the backend's invoke gate (counting a refused re-entry) and
/// classifies the crossing, closing the gate again if that fails.
fn enter_invoke<B: BackendPolicy>(
    backend: &mut B,
    caller: DomainId,
    target: DomainId,
    span_label: LabelId,
) -> Result<CrossingKind, SubstrateError> {
    if let Err(e) = backend.begin_invoke(caller, target) {
        if matches!(e, SubstrateError::Reentrancy(_)) {
            let at = backend.clock();
            let fabric = backend.fabric_mut();
            fabric.note_reentrancy();
            fabric
                .telemetry
                .instant_label(span_label, "fabric", at, span_outcome::REENTRANCY);
        }
        return Err(e);
    }
    let crossing = backend.fabric().crossing(caller, target);
    if crossing.is_err() {
        backend.end_invoke(caller, target);
    }
    crossing
}

/// The trace outcome and reply size of one dispatch, counting a refused
/// re-entry.
fn classify<B: BackendPolicy>(
    backend: &mut B,
    result: &Result<Vec<u8>, SubstrateError>,
) -> (TraceOutcome, u64) {
    match result {
        Ok(reply) => (TraceOutcome::Ok, reply.len() as u64),
        Err(SubstrateError::Reentrancy(_)) => {
            backend.fabric_mut().note_reentrancy();
            (TraceOutcome::Reentrancy, 0)
        }
        Err(_) => (TraceOutcome::Failed, 0),
    }
}

/// The interned `invoke {name}` label for `target`, falling back to
/// `invoke domain{N}` when the domain is gone (stale-cap window).
fn invoke_label<B: BackendPolicy>(backend: &mut B, target: DomainId) -> LabelId {
    match backend.fabric_mut().domain_labels(target) {
        Some(labels) => labels.invoke,
        None => {
            let name = format!("invoke domain{}", target.0);
            backend.fabric_mut().telemetry.intern(&name)
        }
    }
}

/// Take-out/put-back dispatch of the target component (re-entry shows
/// up as the component being absent and becomes a clean
/// [`SubstrateError::Reentrancy`]).
fn run_component<B: BackendPolicy>(
    backend: &mut B,
    target: DomainId,
    badge: Badge,
    data: &[u8],
) -> Result<Vec<u8>, SubstrateError> {
    let (mut component, measurement) = {
        let table = backend.fabric_mut().table_mut();
        let m = table.get(target)?.measurement;
        (table.take_component(target)?, m)
    };
    let result = {
        let mut ctx = CallCtx::new(backend as &mut dyn Substrate, target, measurement);
        component.on_call(&mut ctx, Invocation { badge, data })
    };
    backend
        .fabric_mut()
        .table_mut()
        .put_component(target, component);
    result.map_err(|ComponentError(msg)| SubstrateError::ComponentFailure(msg))
}

/// The engine: every backend's [`Substrate`], built once from its
/// [`BackendPolicy`] hooks. Being generic, it is compiled into each crate
/// that makes a `dyn Substrate` of a backend; the per-invoke helpers it
/// calls here, in [`DomainTable`] and in [`FaultPlan`] are `#[inline]` so
/// they inline there too.
impl<B: BackendPolicy> Substrate for B {
    fn spawn(
        &mut self,
        spec: DomainSpec,
        component: Box<dyn Component>,
    ) -> Result<DomainId, SubstrateError> {
        spawn(self, spec, component, DomainKind::Trusted)
    }

    /// The table removal revokes every capability *targeting* the
    /// domain in all other domains — identical semantics on every
    /// backend (a respawned successor gets a fresh id and fresh nonces,
    /// so stale caps stay dead) — and drops the record's crash flag;
    /// then the backend frees placement resources.
    fn destroy(&mut self, id: DomainId) -> Result<(), SubstrateError> {
        self.fabric().table().get(id)?;
        let labels = self
            .fabric_mut()
            .domain_labels(id)
            .expect("domain exists: just validated");
        self.fabric_mut().table_mut().remove(id)?;
        self.unplace(id);
        let at = self.clock();
        let fabric = self.fabric_mut();
        fabric.clear_domain_labels(id);
        fabric
            .telemetry
            .instant_label(labels.destroy, "fabric", at, span_outcome::OK);
        Ok(())
    }

    fn grant_channel(
        &mut self,
        from: DomainId,
        to: DomainId,
        badge: Badge,
    ) -> Result<ChannelCap, SubstrateError> {
        let span_label = self.fabric_mut().grant_label(from, to)?;
        if self.fabric_mut().fault_fires(to, FaultKind::DenyGrant) {
            let at = self.clock();
            let fabric = self.fabric_mut();
            fabric.note_denial();
            let event = TraceEvent {
                seq: fabric.next_seq(),
                at,
                caller: from,
                callee: to,
                badge,
                bytes: 0,
                crossing: CrossingKind::Local,
                cost: 0,
                outcome: TraceOutcome::Injected,
            };
            fabric.record_fault(event);
            fabric
                .telemetry
                .instant_label(span_label, "fabric", at, span_outcome::INJECTED);
            return Err(SubstrateError::AccessDenied(
                "injected fault: channel grant denied".into(),
            ));
        }
        let at = self.clock();
        self.fabric_mut()
            .telemetry
            .instant_label(span_label, "fabric", at, span_outcome::OK);
        let rec = self.fabric_mut().table_mut().get_mut(from)?;
        Ok(rec.caps.install(from, to, badge))
    }

    /// Revokes `cap` only while it is live: a stale cap, whose slot may
    /// since hold a fresh grant, revokes nothing.
    fn revoke_channel(&mut self, cap: &ChannelCap) -> Result<(), SubstrateError> {
        let rec = self.fabric_mut().table_mut().get_mut(cap.owner)?;
        rec.caps.revoke(cap);
        Ok(())
    }

    /// Validates the capability (recording denials), runs the backend
    /// gate (recording reentrancy faults), classifies and charges the
    /// crossing from the cost model, dispatches take-out/put-back, and
    /// records the trace event and its metrics.
    fn invoke(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        let bytes = data.len() as u64;
        let (entry, span_label) = admit_invoke(self, caller, cap, bytes)?;
        let target = entry.target;
        // Scheduled crash: this dispatch attempt is the Nth — the
        // component never runs, the domain fail-stops until destroyed
        // and respawned.
        if self.fabric_mut().fault_fires(target, FaultKind::Crash) {
            let crossing = self
                .fabric()
                .crossing(caller, target)
                .unwrap_or(CrossingKind::Local);
            let err = record_injected_crash(self, caller, &entry, bytes, crossing);
            let at = self.clock();
            self.fabric_mut().telemetry.instant_label(
                span_label,
                "fabric",
                at,
                span_outcome::INJECTED,
            );
            return Err(err);
        }
        let crossing = enter_invoke(self, caller, target, span_label)?;
        let cost = self.fabric().cost_model.price(crossing, bytes);
        self.advance_clock(cost);
        let at = self.clock();
        let span = self
            .fabric_mut()
            .telemetry
            .begin_span_label(span_label, "fabric", at);
        let result = run_component(self, target, entry.badge, data);
        self.end_invoke(caller, target);
        let (outcome, reply_bytes) = classify(self, &result);
        let span_end = self.clock();
        self.fabric_mut()
            .telemetry
            .end_span(span, span_end, outcome.code());
        let fabric = self.fabric_mut();
        let event = TraceEvent {
            seq: fabric.next_seq(),
            at,
            caller,
            callee: target,
            badge: entry.badge,
            bytes,
            crossing,
            cost,
            outcome,
        };
        fabric.record(event, reply_bytes);
        result
    }

    /// Validates the capability once, runs the backend gate once,
    /// classifies the crossing once, and opens a *single* span for the
    /// whole batch — then dispatches each payload with exactly the
    /// per-payload effects of [`Substrate::invoke`]: the crossing cost
    /// is charged per payload, every dispatch lands in the trace ring
    /// and metrics byte-identically to the loop equivalent, and
    /// scheduled crash faults fire at the same dispatch attempt. On the
    /// first error the batch stops (exactly where a `for` loop would
    /// have stopped) and returns it. The only observable difference
    /// from the loop is the span tree: one `invoke {name}` span instead
    /// of N.
    fn invoke_batch(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        payloads: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, SubstrateError> {
        let Some(first) = payloads.first() else {
            return Ok(Vec::new());
        };
        let (entry, span_label) = admit_invoke(self, caller, cap, first.len() as u64)?;
        let target = entry.target;
        let crossing = enter_invoke(self, caller, target, span_label)?;
        let price = *self.fabric().cost_model.entry(crossing);
        let span_at = self.clock();
        let span = self
            .fabric_mut()
            .telemetry
            .begin_span_label(span_label, "fabric", span_at);
        let mut replies = Vec::with_capacity(payloads.len());
        let mut batch_err = None;
        for data in payloads {
            let bytes = data.len() as u64;
            // Scheduled crash faults advance per dispatch attempt, so
            // the Nth payload of a batch fires the same fault the Nth
            // loop iteration would.
            if self.fabric_mut().fault_fires(target, FaultKind::Crash) {
                batch_err = Some(record_injected_crash(self, caller, &entry, bytes, crossing));
                break;
            }
            let cost = price.price(bytes);
            self.advance_clock(cost);
            let at = self.clock();
            let result = run_component(self, target, entry.badge, data);
            let (outcome, reply_bytes) = classify(self, &result);
            let fabric = self.fabric_mut();
            let event = TraceEvent {
                seq: fabric.next_seq(),
                at,
                caller,
                callee: target,
                badge: entry.badge,
                bytes,
                crossing,
                cost,
                outcome,
            };
            fabric.record(event, reply_bytes);
            match result {
                Ok(reply) => replies.push(reply),
                Err(e) => {
                    batch_err = Some(e);
                    break;
                }
            }
        }
        self.end_invoke(caller, target);
        let span_end = self.clock();
        let code = match &batch_err {
            None => span_outcome::OK,
            Some(SubstrateError::DomainCrashed(_)) => span_outcome::INJECTED,
            Some(SubstrateError::Reentrancy(_)) => span_outcome::REENTRANCY,
            Some(_) => span_outcome::FAILED,
        };
        self.fabric_mut().telemetry.end_span(span, span_end, code);
        match batch_err {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    }

    fn measurement(&self, domain: DomainId) -> Result<Digest, SubstrateError> {
        Ok(self.fabric().table().get(domain)?.measurement)
    }

    fn domain_name(&self, domain: DomainId) -> Result<String, SubstrateError> {
        Ok(self.fabric().table().get(domain)?.spec.name.clone())
    }

    /// Seals through the backend's key derivation; an injected
    /// `CorruptSeal` fault silently flips the blob's last byte, so the
    /// caller gets a blob whose integrity check fails at unseal time.
    fn seal(&mut self, domain: DomainId, data: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        let m = self.fabric().table().get(domain)?.measurement;
        let labels = self
            .fabric_mut()
            .domain_labels(domain)
            .expect("domain exists: just validated");
        let mut blob = self.seal_blob(domain, &m, data)?;
        let at = self.clock();
        self.fabric_mut()
            .telemetry
            .instant_label(labels.seal, "fabric", at, span_outcome::OK);
        if self
            .fabric_mut()
            .fault_fires(domain, FaultKind::CorruptSeal)
        {
            if let Some(byte) = blob.last_mut() {
                *byte ^= 0x01;
            }
            let at = self.clock();
            let fabric = self.fabric_mut();
            let event = TraceEvent {
                seq: fabric.next_seq(),
                at,
                caller: domain,
                callee: domain,
                badge: Badge(0),
                bytes: data.len() as u64,
                crossing: CrossingKind::Local,
                cost: 0,
                outcome: TraceOutcome::Injected,
            };
            fabric.record_fault(event);
        }
        Ok(blob)
    }

    fn unseal(&mut self, domain: DomainId, sealed: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        let m = self.fabric().table().get(domain)?.measurement;
        let labels = self
            .fabric_mut()
            .domain_labels(domain)
            .expect("domain exists: just validated");
        let result = self.unseal_blob(domain, &m, sealed);
        let at = self.clock();
        let outcome = if result.is_ok() {
            span_outcome::OK
        } else {
            span_outcome::FAILED
        };
        self.fabric_mut()
            .telemetry
            .instant_label(labels.unseal, "fabric", at, outcome);
        result
    }

    /// No span here: whether evidence assembly succeeds is a *backend
    /// capability* (software cannot attest, SGX can), and fabric spans
    /// must stay backend-invariant. Attestation shows up causally in
    /// the remote layer's `attest.verify` / `attest.evidence` spans
    /// instead.
    fn attest(
        &mut self,
        domain: DomainId,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        let m = self.fabric().table().get(domain)?.measurement;
        self.attest_evidence(domain, m, report_data)
    }

    fn platform_verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        self.verifying_key()
    }

    fn mem_read(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError> {
        self.read_mem(domain, offset, len)
    }

    fn mem_write(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        self.write_mem(domain, offset, data)
    }

    fn rng_u64(&mut self, domain: DomainId) -> u64 {
        self.fabric_mut().rng_u64(domain)
    }

    fn now(&self) -> u64 {
        self.clock()
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.advance_clock(cycles);
    }

    fn list_caps(&self, domain: DomainId) -> Result<Vec<ChannelCap>, SubstrateError> {
        let rec = self.fabric().table().get(domain)?;
        Ok(rec
            .caps
            .iter()
            .map(|(slot, e)| ChannelCap {
                owner: domain,
                slot,
                nonce: e.nonce,
            })
            .collect())
    }

    fn fabric(&self) -> &Fabric {
        BackendPolicy::fabric(self)
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        BackendPolicy::fabric_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_fabric() -> Fabric {
        let software = crate::software::SoftwareSubstrate::new("test");
        Fabric::new(
            CrossingCostModel::uniform(0, 0, 1, InvokeKindRule::Always(CrossingKind::Local)),
            software.profile().clone(),
            Drbg::from_seed(b"test"),
        )
    }

    #[test]
    fn trace_event_encoding_is_stable() {
        let ev = TraceEvent {
            seq: 1,
            at: 2,
            caller: DomainId(3),
            callee: DomainId(4),
            badge: Badge(5),
            bytes: 6,
            crossing: CrossingKind::Ipc,
            cost: 7,
            outcome: TraceOutcome::Ok,
        };
        let mut a = Vec::new();
        ev.encode_into(&mut a);
        let mut b = Vec::new();
        ev.encode_into(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn ring_buffer_caps_retention_but_not_seq() {
        let mut f = free_fabric().with_trace_capacity(2);
        for i in 0..5u64 {
            let seq = f.next_seq();
            f.record(
                TraceEvent {
                    seq,
                    at: i,
                    caller: DomainId(0),
                    callee: DomainId(1),
                    badge: Badge(0),
                    bytes: 0,
                    crossing: CrossingKind::Local,
                    cost: 0,
                    outcome: TraceOutcome::Ok,
                },
                0,
            );
        }
        assert_eq!(f.trace_len(), 2);
        assert_eq!(f.events_recorded(), 5);
        let seqs: Vec<u64> = f.trace().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn stats_are_totals_read_from_the_metrics_registry() {
        let mut f = free_fabric();
        let empty = f.telemetry().metrics().digest();
        assert_eq!(f.stats(), FabricStats::default());
        assert_eq!(
            f.telemetry().metrics().digest(),
            empty,
            "reading the totals registers no metric"
        );
        let seq = f.next_seq();
        f.record(
            TraceEvent {
                seq,
                at: 10,
                caller: DomainId(1),
                callee: DomainId(2),
                badge: Badge(9),
                bytes: 100,
                crossing: CrossingKind::Mailbox,
                cost: 500,
                outcome: TraceOutcome::Ok,
            },
            20,
        );
        f.note_denial();
        f.note_reentrancy();
        let stats = f.stats();
        assert_eq!(stats.total_invocations(), 1);
        assert_eq!(stats.total_bytes(), 120, "request plus reply bytes");
        assert_eq!(stats.total_denials(), 1);
        assert_eq!(stats.total_reentrancy_faults(), 1);
        let metrics = f.telemetry().metrics();
        assert_eq!(metrics.counter("crossing.mailbox"), 1);
        assert_eq!(
            metrics.histogram("crossing.mailbox.cost").unwrap().sum(),
            500
        );
    }
}
