//! The [`Substrate`] trait — the unified isolation interface itself —
//! plus the [`DomainContext`] service interface components program
//! against, and the [`DomainTable`] bookkeeping of the fabric engine.
//!
//! §III-A: *"Software components should be developed once against the
//! common pattern and then should run on any isolation implementation."*
//! Backends (`lateral-microkernel`, `lateral-trustzone`, `lateral-sgx`,
//! `lateral-sep`, `lateral-flicker`, and [`crate::software`]) implement
//! only [`crate::fabric::BackendPolicy`], and the fabric engine gives
//! each of them this trait; [`crate::shard::ShardFabric`] implements it
//! directly over per-shard backends. Everything above — the component
//! toolbox, the composer, the example applications — sees only this
//! interface.

use lateral_crypto::sign::VerifyingKey;
use lateral_crypto::Digest;
use lateral_telemetry::profile::CrossingProfile;
use lateral_telemetry::Telemetry;

use crate::attacker::SubstrateProfile;
use crate::attest::AttestationEvidence;
use crate::cap::{Badge, CapTable, ChannelCap};
use crate::component::Component;
use crate::fabric::{CrossingCostModel, DomainKind, Fabric};
use crate::{DomainId, SubstrateError};

/// Everything needed to create a protection domain hosting one component.
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Domain name (diagnostics; not part of the measurement).
    pub name: String,
    /// The component's "code image". Its digest is the domain's
    /// measurement — identical images measure identically on every
    /// substrate, which is what makes cross-substrate attestation
    /// policies possible.
    pub image: Vec<u8>,
    /// Private memory, in pages.
    pub mem_pages: usize,
    /// Declared implementation size in lines of code — input to the E7
    /// TCB accounting.
    pub loc: u64,
}

impl DomainSpec {
    /// A spec with defaults: image = name bytes, 4 pages, 1000 LoC.
    pub fn named(name: &str) -> DomainSpec {
        DomainSpec {
            name: name.to_string(),
            image: name.as_bytes().to_vec(),
            mem_pages: 4,
            loc: 1_000,
        }
    }

    /// Replaces the code image.
    #[must_use]
    pub fn with_image(mut self, image: &[u8]) -> DomainSpec {
        self.image = image.to_vec();
        self
    }

    /// Sets the private memory size in pages.
    #[must_use]
    pub fn with_mem_pages(mut self, pages: usize) -> DomainSpec {
        self.mem_pages = pages;
        self
    }

    /// Sets the declared lines of code.
    #[must_use]
    pub fn with_loc(mut self, loc: u64) -> DomainSpec {
        self.loc = loc;
        self
    }

    /// The code identity this spec will measure as.
    pub fn measurement(&self) -> Digest {
        Digest::of_parts(&[b"lateral.domain.image", &self.image])
    }
}

/// The unified isolation interface (the paper's "POSIX for isolation").
///
/// Object-safe: composers hold `Box<dyn Substrate>` and mix backends
/// freely, as the smart-meter appliance mixes a microkernel and TrustZone
/// on one machine. `Send`, so each shard of a
/// [`crate::shard::ShardFabric`] can be driven from a thread of its own.
pub trait Substrate: Send {
    /// The backend's self-description (defended attacker models,
    /// features, TCB size), held by its fabric.
    fn profile(&self) -> &SubstrateProfile {
        self.fabric().profile()
    }

    /// Creates an isolated domain running `component` and invokes its
    /// `on_start` hook.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::OutOfResources`] when domain or memory limits are
    /// hit (e.g. TrustZone's single secure world is full), or a
    /// [`SubstrateError::ComponentFailure`] from `on_start`.
    fn spawn(
        &mut self,
        spec: DomainSpec,
        component: Box<dyn Component>,
    ) -> Result<DomainId, SubstrateError>;

    /// Destroys a domain, scrubbing its memory and revoking all
    /// capabilities targeting it.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`] if it does not exist.
    fn destroy(&mut self, domain: DomainId) -> Result<(), SubstrateError>;

    /// Establishes a communication channel `from → to` with `badge`,
    /// returning the capability installed in `from`'s table. This is the
    /// *only* way communication comes into existence — everything not
    /// granted is denied (POLA, §III-A).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`] for missing endpoints.
    fn grant_channel(
        &mut self,
        from: DomainId,
        to: DomainId,
        badge: Badge,
    ) -> Result<ChannelCap, SubstrateError>;

    /// Revokes a previously granted channel.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`] if the owner is gone.
    fn revoke_channel(&mut self, cap: &ChannelCap) -> Result<(), SubstrateError>;

    /// Synchronously invokes the channel designated by `cap` on behalf of
    /// `caller`, delivering the badge and payload and returning the reply.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::InvalidCapability`] when `cap` is not a live
    /// capability of `caller`; [`SubstrateError::Reentrancy`] when the
    /// target is already executing; [`SubstrateError::ComponentFailure`]
    /// for application-level failures.
    fn invoke(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError>;

    /// Invokes the same channel once per payload, returning the replies
    /// in order. Semantically a `for` loop over [`Substrate::invoke`],
    /// but the fabric engine validates the capability, runs the
    /// invocation gate, and opens the telemetry span once for the whole
    /// batch — the allocation- and validation-free hot path E13
    /// measures. Trace events and metrics are byte-identical to the
    /// loop; only the span tree differs (one span instead of N).
    ///
    /// # Errors
    ///
    /// As [`Substrate::invoke`]; the first failing payload's error, with
    /// later payloads not attempted.
    fn invoke_batch(
        &mut self,
        caller: DomainId,
        cap: &ChannelCap,
        payloads: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, SubstrateError>;

    /// The code identity of a domain.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    fn measurement(&self, domain: DomainId) -> Result<Digest, SubstrateError>;

    /// The diagnostic name of a domain.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    fn domain_name(&self, domain: DomainId) -> Result<String, SubstrateError>;

    /// Seals `data` to the domain's code identity: only a domain with the
    /// same measurement (on the same platform) can unseal it.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Unsupported`] on substrates without sealed
    /// storage.
    fn seal(&mut self, domain: DomainId, data: &[u8]) -> Result<Vec<u8>, SubstrateError>;

    /// Reverses [`Substrate::seal`].
    ///
    /// # Errors
    ///
    /// [`SubstrateError::CryptoFailure`] when the sealed blob was produced
    /// for a different identity or tampered with.
    fn unseal(&mut self, domain: DomainId, sealed: &[u8]) -> Result<Vec<u8>, SubstrateError>;

    /// Produces attestation evidence for `domain`, binding `report_data`.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Unsupported`] on substrates without a hardware
    /// secret (e.g. the pure-software substrate).
    fn attest(
        &mut self,
        domain: DomainId,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError>;

    /// The platform's attestation verifying key — what a manufacturer
    /// would publish in an endorsement list for verifiers' trust policies.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Unsupported`] when the substrate cannot attest.
    fn platform_verifying_key(&self) -> Result<VerifyingKey, SubstrateError>;

    /// Reads from the domain's private memory.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::AccessDenied`] for out-of-range accesses.
    fn mem_read(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError>;

    /// Writes to the domain's private memory.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::AccessDenied`] for out-of-range accesses.
    fn mem_write(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError>;

    /// Domain-scoped randomness (deterministic per run): a fresh fork
    /// of the fabric's DRBG per draw.
    fn rng_u64(&mut self, domain: DomainId) -> u64;

    /// Current logical time in cycles.
    fn now(&self) -> u64;

    /// Advances the substrate's logical clock by `cycles` without
    /// dispatching anything — how the shard layer charges the
    /// cross-shard crossing cost on the *caller's* shard clock through
    /// the object-safe interface.
    fn charge_cycles(&mut self, cycles: u64);

    /// Lists the live capabilities of `domain` (the L4-style cap-space
    /// enumeration components use to discover channels the composer
    /// granted them after spawn).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    fn list_caps(&self, domain: DomainId) -> Result<Vec<ChannelCap>, SubstrateError>;

    /// The backend's [`crate::fabric::Fabric`] — domain table, trace
    /// buffer, profile and telemetry, whose metrics registry holds the
    /// counts. Experiments read crossings and byte volumes through this
    /// without giving up object safety.
    fn fabric(&self) -> &Fabric;

    /// Mutable access to the backend's fabric — how supervisors and
    /// fault-injection harnesses install a [`crate::fault::FaultPlan`]
    /// through the object-safe interface without knowing the concrete
    /// backend type.
    fn fabric_mut(&mut self) -> &mut Fabric;

    /// The backend's causal telemetry collector — spans for every
    /// engine operation plus the unified metrics registry.
    fn telemetry(&self) -> &Telemetry {
        self.fabric().telemetry()
    }

    /// Mutable telemetry access — how the composer, supervisor, and
    /// experiments open enclosing spans on a backend's collector
    /// through the object-safe interface.
    fn telemetry_mut(&mut self) -> &mut Telemetry {
        self.fabric_mut().telemetry_mut()
    }

    /// The backend's crossing-cost table as data (see
    /// [`CrossingCostModel`]) — the table the engine charges from, and
    /// what the placement optimizer prices hypothetical placements
    /// against.
    fn cost_model(&self) -> CrossingCostModel {
        self.fabric().cost_model().clone()
    }

    /// The crossing profile folded from the backend's retained trace —
    /// per-edge cost histograms and byte totals (see [`CrossingProfile`]).
    /// The sharded fabric overrides it with its merged profile.
    fn crossing_profile(&self) -> CrossingProfile {
        self.fabric().crossing_profile()
    }

    /// [`Substrate::fabric`] in a `Some`, with no logic of its own.
    /// perfbench still calls it; the next change to the benchmark moves
    /// it onto `fabric` and deletes it.
    fn fabric_ref(&self) -> Option<&Fabric> {
        Some(self.fabric())
    }

    /// [`Substrate::telemetry`] in a `Some`, with no logic of its own.
    /// perfbench still calls it; the next change to the benchmark moves
    /// it onto `telemetry` and deletes it.
    fn telemetry_ref(&self) -> Option<&Telemetry> {
        Some(self.telemetry())
    }
}

/// The services a component sees while executing. A thin, POLA-scoped
/// view onto the [`Substrate`]: everything is implicitly `self`-relative,
/// so a component cannot even express an access to another domain's
/// resources.
pub trait DomainContext {
    /// The executing domain's id.
    fn self_id(&self) -> DomainId;
    /// Invokes a granted channel.
    ///
    /// # Errors
    ///
    /// See [`Substrate::invoke`].
    fn call(&mut self, cap: &ChannelCap, data: &[u8]) -> Result<Vec<u8>, SubstrateError>;
    /// Reads own private memory.
    ///
    /// # Errors
    ///
    /// See [`Substrate::mem_read`].
    fn mem_read(&mut self, offset: usize, len: usize) -> Result<Vec<u8>, SubstrateError>;
    /// Writes own private memory.
    ///
    /// # Errors
    ///
    /// See [`Substrate::mem_write`].
    fn mem_write(&mut self, offset: usize, data: &[u8]) -> Result<(), SubstrateError>;
    /// Seals data to own identity.
    ///
    /// # Errors
    ///
    /// See [`Substrate::seal`].
    fn seal(&mut self, data: &[u8]) -> Result<Vec<u8>, SubstrateError>;
    /// Unseals data sealed to own identity.
    ///
    /// # Errors
    ///
    /// See [`Substrate::unseal`].
    fn unseal(&mut self, sealed: &[u8]) -> Result<Vec<u8>, SubstrateError>;
    /// Produces attestation evidence about self.
    ///
    /// # Errors
    ///
    /// See [`Substrate::attest`].
    fn attest(&mut self, report_data: &[u8]) -> Result<AttestationEvidence, SubstrateError>;
    /// Own code identity.
    fn measurement(&self) -> Digest;
    /// Logical time.
    fn now(&self) -> u64;
    /// Domain-scoped randomness.
    fn rng_u64(&mut self) -> u64;
    /// Enumerates own live capabilities.
    ///
    /// # Errors
    ///
    /// See [`Substrate::list_caps`].
    fn caps(&self) -> Result<Vec<ChannelCap>, SubstrateError>;
}

/// The standard [`DomainContext`] implementation over any [`Substrate`].
/// The fabric engine constructs one per dispatched call.
pub struct CallCtx<'a> {
    substrate: &'a mut dyn Substrate,
    domain: DomainId,
    measurement: Digest,
}

impl<'a> CallCtx<'a> {
    /// Builds a context for `domain` executing on `substrate`.
    pub fn new(substrate: &'a mut dyn Substrate, domain: DomainId, measurement: Digest) -> Self {
        CallCtx {
            substrate,
            domain,
            measurement,
        }
    }
}

impl DomainContext for CallCtx<'_> {
    fn self_id(&self) -> DomainId {
        self.domain
    }
    fn call(&mut self, cap: &ChannelCap, data: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        self.substrate.invoke(self.domain, cap, data)
    }
    fn mem_read(&mut self, offset: usize, len: usize) -> Result<Vec<u8>, SubstrateError> {
        self.substrate.mem_read(self.domain, offset, len)
    }
    fn mem_write(&mut self, offset: usize, data: &[u8]) -> Result<(), SubstrateError> {
        self.substrate.mem_write(self.domain, offset, data)
    }
    fn seal(&mut self, data: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        self.substrate.seal(self.domain, data)
    }
    fn unseal(&mut self, sealed: &[u8]) -> Result<Vec<u8>, SubstrateError> {
        self.substrate.unseal(self.domain, sealed)
    }
    fn attest(&mut self, report_data: &[u8]) -> Result<AttestationEvidence, SubstrateError> {
        self.substrate.attest(self.domain, report_data)
    }
    fn measurement(&self) -> Digest {
        self.measurement
    }
    fn now(&self) -> u64 {
        self.substrate.now()
    }
    fn rng_u64(&mut self) -> u64 {
        self.substrate.rng_u64(self.domain)
    }
    fn caps(&self) -> Result<Vec<ChannelCap>, SubstrateError> {
        self.substrate.list_caps(self.domain)
    }
}

/// Per-domain bookkeeping the fabric engine keeps for every backend.
pub struct DomainRecord {
    /// The spec the domain was created from.
    pub spec: DomainSpec,
    /// Cached measurement of `spec.image`.
    pub measurement: Digest,
    /// Where the domain was placed — what the engine classifies its
    /// crossings by.
    pub kind: DomainKind,
    /// The domain's capability table.
    pub caps: CapTable,
    /// The hosted component; `None` while it is executing (take-out /
    /// put-back dispatch, which also turns synchronous re-entry into a
    /// clean [`SubstrateError::Reentrancy`] instead of a deadlock).
    pub component: Option<Box<dyn Component>>,
    /// Whether an injected crash fail-stopped the domain. Calls into it
    /// are refused until it is destroyed, which drops the flag with the
    /// record.
    pub crashed: bool,
}

/// The fabric engine's domain table.
#[derive(Default)]
pub struct DomainTable {
    domains: Vec<Option<DomainRecord>>,
}

impl DomainTable {
    /// Creates an empty table.
    pub fn new() -> DomainTable {
        DomainTable::default()
    }

    /// Inserts a record, returning the new domain id.
    pub fn insert(&mut self, record: DomainRecord) -> DomainId {
        self.domains.push(Some(record));
        DomainId(self.domains.len() as u32 - 1)
    }

    /// Immutable access to a record.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    #[inline]
    pub fn get(&self, id: DomainId) -> Result<&DomainRecord, SubstrateError> {
        self.domains
            .get(id.0 as usize)
            .and_then(|d| d.as_ref())
            .ok_or(SubstrateError::NoSuchDomain(id))
    }

    /// Mutable access to a record.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    #[inline]
    pub fn get_mut(&mut self, id: DomainId) -> Result<&mut DomainRecord, SubstrateError> {
        self.domains
            .get_mut(id.0 as usize)
            .and_then(|d| d.as_mut())
            .ok_or(SubstrateError::NoSuchDomain(id))
    }

    /// Removes a record (domain teardown), revoking capabilities that
    /// target it in every other domain.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn remove(&mut self, id: DomainId) -> Result<DomainRecord, SubstrateError> {
        let rec = self
            .domains
            .get_mut(id.0 as usize)
            .and_then(|d| d.take())
            .ok_or(SubstrateError::NoSuchDomain(id))?;
        for d in self.domains.iter_mut().flatten() {
            d.caps.revoke_target(id);
        }
        Ok(rec)
    }

    /// Takes the component out for dispatch.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::Reentrancy`] when the component is already out.
    #[inline]
    pub fn take_component(&mut self, id: DomainId) -> Result<Box<dyn Component>, SubstrateError> {
        let rec = self.get_mut(id)?;
        rec.component.take().ok_or(SubstrateError::Reentrancy(id))
    }

    /// Puts a component back after dispatch.
    #[inline]
    pub fn put_component(&mut self, id: DomainId, component: Box<dyn Component>) {
        if let Ok(rec) = self.get_mut(id) {
            rec.component = Some(component);
        }
    }

    /// Iterates over live `(id, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, &DomainRecord)> {
        self.domains
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|r| (DomainId(i as u32), r)))
    }

    /// Number of live domains.
    pub fn len(&self) -> usize {
        self.domains.iter().flatten().count()
    }

    /// Whether no domains are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentError, Invocation};

    #[test]
    fn spec_measurement_depends_only_on_image() {
        let a = DomainSpec::named("a").with_image(b"same image");
        let b = DomainSpec::named("b").with_image(b"same image");
        assert_eq!(a.measurement(), b.measurement());
        let c = DomainSpec::named("a").with_image(b"other image");
        assert_ne!(a.measurement(), c.measurement());
    }

    #[test]
    fn domain_table_lifecycle() {
        let mut t = DomainTable::new();
        let spec = DomainSpec::named("x");
        let m = spec.measurement();
        let id = t.insert(DomainRecord {
            spec,
            measurement: m,
            kind: DomainKind::Trusted,
            caps: CapTable::new(),
            component: None,
            crashed: false,
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap().measurement, m);
        t.remove(id).unwrap();
        assert!(t.get(id).is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn remove_revokes_inbound_caps() {
        let mut t = DomainTable::new();
        let mk = |name: &str| DomainRecord {
            spec: DomainSpec::named(name),
            measurement: DomainSpec::named(name).measurement(),
            kind: DomainKind::Trusted,
            caps: CapTable::new(),
            component: None,
            crashed: false,
        };
        let a = t.insert(mk("a"));
        let b = t.insert(mk("b"));
        let cap = t.get_mut(a).unwrap().caps.install(a, b, Badge(1));
        t.remove(b).unwrap();
        assert!(t.get(a).unwrap().caps.lookup(a, &cap).is_err());
    }

    #[test]
    fn take_component_twice_is_reentrancy() {
        let mut t = DomainTable::new();
        struct Noop;
        impl Component for Noop {
            fn label(&self) -> &str {
                "noop"
            }
            fn on_call(
                &mut self,
                _ctx: &mut dyn DomainContext,
                _inv: Invocation<'_>,
            ) -> Result<Vec<u8>, ComponentError> {
                Ok(Vec::new())
            }
        }
        let id = t.insert(DomainRecord {
            spec: DomainSpec::named("n"),
            measurement: Digest::ZERO,
            kind: DomainKind::Trusted,
            caps: CapTable::new(),
            component: Some(Box::new(Noop)),
            crashed: false,
        });
        let c = t.take_component(id).unwrap();
        assert!(matches!(
            t.take_component(id),
            Err(SubstrateError::Reentrancy(_))
        ));
        t.put_component(id, c);
        assert!(t.take_component(id).is_ok());
    }
}
