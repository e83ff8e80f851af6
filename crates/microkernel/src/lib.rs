//! An L4-family microkernel as an isolation substrate.
//!
//! §II-B "Operating-System-Based Separation": *"microkernels … use the MMU
//! to isolate processes from one another … these processes can host
//! trusted components or legacy code alike."* This crate is the
//! reference MMU-based backend of the unified interface:
//!
//! * every domain is an address space of [`lateral_hw::mmu`] pages backed
//!   by `Normal` frames, so all component memory traffic passes the
//!   simulated MMU and bus;
//! * IPC is synchronous, capability-mediated, and badge-delivering
//!   (the `lateral-substrate` cap model);
//! * the [`sched`] module provides round-robin and time-partitioned
//!   scheduling — the latter with cache flushing, the paper's covert
//!   channel mitigation (§II-C);
//! * devices are assigned to driver domains and their DMA is filtered by
//!   the IOMMU (§II-D);
//! * attestation is available when the platform was provisioned with an
//!   identity key by a measured boot (see `Microkernel::with_attestation`).
//!
//! Like every backend, the kernel is a [`BackendPolicy`] and nothing
//! else: it places one [`DomainMemory`] per domain, charges spawns, and
//! owns the clock and sealing keys; the fabric engine in
//! `lateral_substrate::fabric` supplies the whole `Substrate` interface
//! and prices every IPC from the cost model the kernel hands its fabric,
//! with its profile and the DRBG its domains draw from.
//!
//! The kernel itself is the isolation substrate and thus every
//! component's TCB; its profile reports ~10 kLoC, the magnitude of seL4,
//! whose formal verification the paper cites as making software substrates
//! "at least as strong" as hardware ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sched;

use std::collections::BTreeMap;

use lateral_crypto::aead::Aead;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::{SigningKey, VerifyingKey};
use lateral_crypto::Digest;
use lateral_hw::cache::{CacheDomain, CacheOutcome};
use lateral_hw::machine::Machine;
use lateral_hw::mem::{Frame, FrameOwner};
use lateral_hw::mmu::DomainMemory;
use lateral_hw::{DeviceId, Initiator, World};
use lateral_substrate::attacker::{models, AttackerModel, Features, SubstrateProfile};
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::fabric::{
    BackendPolicy, CrossingCostModel, CrossingKind, DomainKind, Fabric, InvokeKindRule,
};
use lateral_substrate::{DomainId, SubstrateError};

pub use sched::{PartitionPlan, SchedPolicy, Scheduler};

/// Kernel-side state of one domain.
struct KDomain {
    mem: DomainMemory,
    cache_domain: CacheDomain,
    devices: Vec<DeviceId>,
}

/// The microkernel substrate.
pub struct Microkernel {
    machine: Machine,
    fabric: Fabric,
    kstate: BTreeMap<DomainId, KDomain>,
    sched: Scheduler,
    seal_secret: [u8; 32],
    attestation: Option<(SigningKey, Digest)>,
    next_cache_domain: u32,
}

impl std::fmt::Debug for Microkernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Microkernel({} domains on '{}')",
            self.fabric.table().len(),
            self.machine.name
        )
    }
}

impl Microkernel {
    /// Boots the microkernel on `machine`. The kernel enables the IOMMU —
    /// driving devices at arbitrary memory is exactly the attack §II-D
    /// warns about.
    pub fn new(mut machine: Machine, seed: &str) -> Microkernel {
        machine.iommu.enable();
        let mut rng = Drbg::from_seed(&[b"lateral.microkernel.", seed.as_bytes()].concat());
        let seal_secret = rng.gen_key();
        // Every crossing is a synchronous IPC round trip + payload copy.
        let c = &machine.costs;
        let cost_model = CrossingCostModel::uniform(
            c.ipc_round_trip,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
            InvokeKindRule::Always(CrossingKind::Ipc),
        );
        let profile = SubstrateProfile {
            name: "microkernel".to_string(),
            defends: models(&[
                AttackerModel::RemoteSoftware,
                AttackerModel::CompromisedOs,
                AttackerModel::MaliciousDevice,
            ]),
            features: Features {
                spatial_isolation: true,
                temporal_isolation: true,
                memory_encryption: false,
                trust_anchor: false,
                attestation: false,
                sealed_storage: true,
                max_trusted_domains: None,
                hosts_legacy_os: true,
            },
            tcb_loc: 10_000,
        };
        Microkernel {
            machine,
            fabric: Fabric::new(cost_model, profile, rng),
            kstate: BTreeMap::new(),
            sched: Scheduler::new(SchedPolicy::RoundRobin),
            seal_secret,
            attestation: None,
            next_cache_domain: 1,
        }
    }

    /// Provisions a platform attestation identity, as a measured boot
    /// chain (boot ROM + TPM) would. `platform_state` is the booted-stack
    /// identity included in evidence.
    #[must_use]
    pub fn with_attestation(mut self, key: SigningKey, platform_state: Digest) -> Microkernel {
        self.attestation = Some((key, platform_state));
        let features = &mut self.fabric.profile_mut().features;
        features.attestation = true;
        features.trust_anchor = true;
        self
    }

    /// Access to the underlying machine (experiments inject hardware-level
    /// attacks here).
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Immutable machine access.
    pub fn machine_ref(&self) -> &Machine {
        &self.machine
    }

    /// Replaces the scheduling policy.
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.sched.set_policy(policy);
    }

    /// Scheduler statistics (switches, mitigation flushes).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Schedules `domain` onto the CPU, applying the temporal-isolation
    /// policy (cache flush under time partitioning).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn schedule(&mut self, domain: DomainId) -> Result<(), SubstrateError> {
        let cd = self.kdomain(domain)?.cache_domain;
        self.sched.switch_to(&mut self.machine, cd);
        Ok(())
    }

    /// Performs one cache access on behalf of `domain` at address `addr`
    /// within its working set — the primitive the prime+probe covert
    /// channel experiment drives.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn cache_touch(
        &mut self,
        domain: DomainId,
        addr: u64,
    ) -> Result<CacheOutcome, SubstrateError> {
        let cd = self.kdomain(domain)?.cache_domain;
        Ok(self.machine.cache_access(cd, addr))
    }

    /// Assigns exclusive control of `device` to `domain`: the IOMMU is
    /// programmed so the device can only DMA into that domain's frames.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn assign_device(
        &mut self,
        domain: DomainId,
        device: DeviceId,
    ) -> Result<(), SubstrateError> {
        let frames = self.kdomain(domain)?.mem.frames().to_vec();
        for frame in frames {
            self.machine.iommu.grant(device, frame);
        }
        self.kdomain_mut(domain)?.devices.push(device);
        Ok(())
    }

    /// Simulates `device` DMA-writing `data` at byte `offset` into the
    /// address space of the domain it is assigned to. Unassigned devices
    /// are blocked by the IOMMU — the E9 malicious-DMA probe.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::AccessDenied`] when the IOMMU blocks the DMA or
    /// the range is unmapped.
    pub fn device_dma(
        &mut self,
        device: DeviceId,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let k = self
            .kstate
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        k.mem
            .write(&mut self.machine, Initiator::Device(device), offset, data)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    /// Physical frames backing a domain — used by the attack experiments
    /// to aim bus probes.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn domain_frames(&self, domain: DomainId) -> Result<Vec<Frame>, SubstrateError> {
        Ok(self.kdomain(domain)?.mem.frames().to_vec())
    }

    fn kdomain(&self, id: DomainId) -> Result<&KDomain, SubstrateError> {
        self.kstate.get(&id).ok_or(SubstrateError::NoSuchDomain(id))
    }

    fn kdomain_mut(&mut self, id: DomainId) -> Result<&mut KDomain, SubstrateError> {
        self.kstate
            .get_mut(&id)
            .ok_or(SubstrateError::NoSuchDomain(id))
    }

    fn seal_key(&self, measurement: &Digest) -> [u8; 32] {
        lateral_crypto::hmac::hkdf(
            b"lateral.microkernel.seal",
            &self.seal_secret,
            measurement.as_bytes(),
        )
    }
}

impl BackendPolicy for Microkernel {
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn place(&mut self, id: DomainId, _kind: DomainKind) -> Result<(), SubstrateError> {
        let pages = self.fabric.table().get(id)?.spec.mem_pages;
        let mem = DomainMemory::alloc(&mut self.machine.mem, FrameOwner::Normal, pages)
            .map_err(|e| SubstrateError::OutOfResources(e.to_string()))?;
        let cache_domain = CacheDomain(self.next_cache_domain);
        self.next_cache_domain += 1;
        self.kstate.insert(
            id,
            KDomain {
                mem,
                cache_domain,
                devices: Vec::new(),
            },
        );
        Ok(())
    }

    fn unplace(&mut self, id: DomainId) {
        if let Some(k) = self.kstate.remove(&id) {
            for dev in &k.devices {
                self.machine.iommu.revoke_all(*dev);
            }
            k.mem.free(&mut self.machine.mem);
            self.machine.cache.flush_domain(k.cache_domain);
        }
    }

    fn charge_spawn(&mut self, _id: DomainId) -> Result<(), SubstrateError> {
        // Creating an address space costs kernel work.
        self.machine
            .clock
            .advance(self.machine.costs.context_switch);
        Ok(())
    }

    fn clock(&self) -> u64 {
        self.machine.clock.now()
    }

    fn advance_clock(&mut self, cycles: u64) {
        self.machine.clock.advance(cycles);
    }

    fn read_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError> {
        let k = self
            .kstate
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        k.mem
            .read(
                &mut self.machine,
                Initiator::cpu(World::Normal),
                offset,
                len,
            )
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let k = self
            .kstate
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        k.mem
            .write(
                &mut self.machine,
                Initiator::cpu(World::Normal),
                offset,
                data,
            )
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn seal_blob(
        &mut self,
        _domain: DomainId,
        measurement: &Digest,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        Ok(Aead::new(&self.seal_key(measurement)).seal(0, b"microkernel.seal", data))
    }

    fn unseal_blob(
        &mut self,
        _domain: DomainId,
        measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        Aead::new(&self.seal_key(measurement))
            .open(0, b"microkernel.seal", sealed)
            .map_err(|_| {
                SubstrateError::CryptoFailure(
                    "unseal failed: wrong identity or tampered blob".into(),
                )
            })
    }

    fn attest_evidence(
        &mut self,
        _domain: DomainId,
        measurement: Digest,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        match &self.attestation {
            Some((key, platform_state)) => Ok(AttestationEvidence::sign(
                "microkernel",
                key,
                measurement,
                *platform_state,
                report_data,
            )),
            None => Err(SubstrateError::Unsupported(
                "platform has no attestation identity (boot without trust anchor)".into(),
            )),
        }
    }

    fn verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        self.attestation
            .as_ref()
            .map(|(k, _)| k.verifying_key())
            .ok_or_else(|| {
                SubstrateError::Unsupported("platform has no attestation identity".into())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_hw::device::DeviceKind;
    use lateral_hw::machine::MachineBuilder;
    use lateral_hw::PAGE_SIZE;
    use lateral_substrate::cap::Badge;
    use lateral_substrate::conformance;
    use lateral_substrate::substrate::{DomainSpec, Substrate};
    use lateral_substrate::testkit::{Echo, MemoryScribe};

    fn kernel() -> Microkernel {
        let machine = MachineBuilder::new().name("mk-test").frames(128).build();
        Microkernel::new(machine, "test")
    }

    fn kernel_with_attestation() -> Microkernel {
        kernel().with_attestation(
            SigningKey::from_seed(b"mk platform"),
            Digest::of(b"measured stack"),
        )
    }

    #[test]
    fn conformance_suite_passes() {
        let mut k = kernel_with_attestation();
        let report = conformance::run(&mut k);
        for c in &report.checks {
            assert!(
                c.outcome.acceptable(),
                "feature {} failed: {}",
                c.feature,
                c.outcome
            );
        }
        assert_eq!(
            report.outcome("attestation"),
            Some(&conformance::Outcome::Pass)
        );
    }

    #[test]
    fn conformance_without_trust_anchor_reports_attestation_unsupported() {
        let mut k = kernel();
        let report = conformance::run(&mut k);
        assert!(report.conforms());
        assert_eq!(
            report.outcome("attestation"),
            Some(&conformance::Outcome::Unsupported)
        );
    }

    #[test]
    fn memory_goes_through_mmu_and_is_isolated() {
        let mut k = kernel();
        let a = k
            .spawn(DomainSpec::named("a"), Box::new(MemoryScribe))
            .unwrap();
        let b = k.spawn(DomainSpec::named("b"), Box::new(Echo)).unwrap();
        k.mem_write(a, 0, b"component a data").unwrap();
        assert_eq!(k.mem_read(a, 0, 16).unwrap(), b"component a data");
        assert_eq!(k.mem_read(b, 0, 16).unwrap(), vec![0u8; 16]);
        // Out-of-range access faults at the MMU.
        let pages = 4;
        assert!(k.mem_read(a, pages * PAGE_SIZE, 1).is_err());
    }

    #[test]
    fn ipc_advances_clock_more_than_memory_access() {
        let mut k = kernel();
        let a = k.spawn(DomainSpec::named("a"), Box::new(Echo)).unwrap();
        let b = k.spawn(DomainSpec::named("b"), Box::new(Echo)).unwrap();
        let cap = k.grant_channel(a, b, Badge(0)).unwrap();
        let t0 = k.now();
        k.invoke(a, &cap, b"x").unwrap();
        let ipc_cost = k.now() - t0;
        assert!(ipc_cost >= k.machine_ref().costs.ipc_round_trip);
    }

    #[test]
    fn device_dma_requires_assignment() {
        let mut k = kernel();
        let driver = k
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let nic = k.machine().register_device(DeviceKind::Nic, "eth0");
        // Unassigned: the IOMMU blocks the DMA.
        assert!(k.device_dma(nic, driver, 0, b"packet").is_err());
        // After assignment the same DMA lands.
        k.assign_device(driver, nic).unwrap();
        k.device_dma(nic, driver, 0, b"packet").unwrap();
        assert_eq!(k.mem_read(driver, 0, 6).unwrap(), b"packet");
    }

    #[test]
    fn malicious_device_cannot_reach_other_domains() {
        let mut k = kernel();
        let driver = k
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let victim = k
            .spawn(DomainSpec::named("victim"), Box::new(Echo))
            .unwrap();
        let nic = k.machine().register_device(DeviceKind::Nic, "eth0");
        k.assign_device(driver, nic).unwrap();
        // DMA aimed at the victim's memory is blocked by the IOMMU.
        assert!(k.device_dma(nic, victim, 0, b"overwrite").is_err());
        assert_eq!(k.mem_read(victim, 0, 9).unwrap(), vec![0u8; 9]);
    }

    #[test]
    fn destroy_frees_frames_for_reuse() {
        let mut k = kernel();
        let free0 = k.machine_ref().mem.free_frames();
        let a = k
            .spawn(DomainSpec::named("a").with_mem_pages(8), Box::new(Echo))
            .unwrap();
        assert_eq!(k.machine_ref().mem.free_frames(), free0 - 8);
        k.destroy(a).unwrap();
        assert_eq!(k.machine_ref().mem.free_frames(), free0);
    }

    #[test]
    fn spawn_fails_cleanly_when_memory_exhausted() {
        let machine = MachineBuilder::new().frames(4).build();
        let mut k = Microkernel::new(machine, "tiny");
        assert!(k
            .spawn(DomainSpec::named("big").with_mem_pages(64), Box::new(Echo))
            .is_err());
    }

    #[test]
    fn covert_channel_blocked_by_time_partitioning() {
        // Miniature version of experiment E6: a 1-bit prime+probe round.
        let run = |policy: SchedPolicy, send_bit: bool| -> bool {
            let mut k = kernel();
            k.set_sched_policy(policy);
            let sender = k
                .spawn(DomainSpec::named("sender"), Box::new(Echo))
                .unwrap();
            let receiver = k
                .spawn(DomainSpec::named("receiver"), Box::new(Echo))
                .unwrap();
            let target = 0x4000u64;
            // Receiver primes its line.
            k.schedule(receiver).unwrap();
            k.cache_touch(receiver, target).unwrap();
            // Sender transmits: bit=1 → evict by touching the eviction set.
            k.schedule(sender).unwrap();
            if send_bit {
                let ev = k.machine_ref().cache.eviction_set(target);
                for a in ev {
                    k.cache_touch(sender, a).unwrap();
                }
            }
            // Receiver probes: a miss decodes as 1.
            k.schedule(receiver).unwrap();
            !k.cache_touch(receiver, target).unwrap().hit
        };
        // Round-robin: the channel works.
        assert!(!run(SchedPolicy::RoundRobin, false));
        assert!(run(SchedPolicy::RoundRobin, true));
        // Time partitioning with flush: receiver always misses —
        // the decoded value no longer depends on the sender's bit.
        let m0 = run(SchedPolicy::TimePartitioned { flush_cache: true }, false);
        let m1 = run(SchedPolicy::TimePartitioned { flush_cache: true }, true);
        assert_eq!(m0, m1, "mitigated channel carries no information");
    }
}
