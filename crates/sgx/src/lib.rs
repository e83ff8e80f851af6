//! An SGX-style enclave substrate.
//!
//! §II-B: SGX is "a more refined implementation of the late-launch
//! approach, where independent trusted components can run concurrently in
//! their own fully isolated enclaves". This backend models:
//!
//! * **Enclaves** backed by [`FrameOwner::Epc`] frames: the OS schedules
//!   them but cannot read or write their memory; the memory encryption
//!   engine shows a bus probe only ciphertext and detects its writes
//!   (integrity MAC) — hence the profile defends `PhysicalBus`.
//! * **Measurement**: an enclave's identity (MRENCLAVE analogue) is the
//!   digest of its initial image, recorded by hardware at launch.
//! * **EGETKEY / sealing**: keys derived inside the hardware from the
//!   fused root secret and the enclave measurement; the raw fuse is never
//!   readable by any software ([`lateral_hw::fuse::FuseAccess::SgxHardwareOnly`]).
//! * **Quoting enclave**: attestation evidence signed with a platform key
//!   derived from the same fuse (Intel's quoting enclave stand-in).
//! * **Host domains**: untrusted normal-world processes; the substrate
//!   provides them no trusted isolation — the paper's data-center story
//!   is that the *enclave* distrusts everything else.
//! * **No temporal isolation**: enclaves share the cache with everyone;
//!   experiment E6 shows the resulting covert channel, matching §II-C's
//!   "SGX suffers from … cache side-channel attacks".
//!
//! The crate is a [`BackendPolicy`] and nothing else: the fabric engine
//! charges an EENTER/EEXIT pair whenever either endpoint is an enclave
//! (the `AnyTrusted` rule of the cost model SGX hands its fabric).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use lateral_crypto::aead::Aead;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::{SigningKey, VerifyingKey};
use lateral_crypto::Digest;
use lateral_hw::fuse::FuseAccess;
use lateral_hw::machine::Machine;
use lateral_hw::mem::{Frame, FrameOwner};
use lateral_hw::mmu::DomainMemory;
use lateral_hw::{EnclaveId, Initiator, World};
use lateral_substrate::attacker::{models, AttackerModel, Features, SubstrateProfile};
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::component::Component;
use lateral_substrate::fabric::{
    self, BackendPolicy, CrossingCostModel, CrossingKind, DomainKind, Fabric, InvokeKindRule,
};
use lateral_substrate::substrate::DomainSpec;
use lateral_substrate::{DomainId, SubstrateError};

/// Name of the fused SGX root secret.
pub const SGX_ROOT_FUSE: &str = "sgx-root";

struct SgxDomain {
    mem: DomainMemory,
    /// `Some` for enclaves; `None` for untrusted host domains.
    enclave: Option<EnclaveId>,
}

/// The SGX-style substrate.
pub struct Sgx {
    machine: Machine,
    fabric: Fabric,
    kstate: BTreeMap<DomainId, SgxDomain>,
    next_enclave: u32,
    quoting_key: SigningKey,
    rng: Drbg,
    profile: SubstrateProfile,
}

impl std::fmt::Debug for Sgx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sgx({} domains on '{}')",
            self.fabric.table().len(),
            self.machine.name
        )
    }
}

impl Sgx {
    /// Initializes the SGX model on `machine`, burning the root fuse on
    /// fresh machines (the factory provisioning step).
    pub fn new(mut machine: Machine, seed: &str) -> Sgx {
        let mut rng = Drbg::from_seed(&[b"lateral.sgx.", seed.as_bytes()].concat());
        if !machine.fuses.is_locked() {
            let key = rng.gen_key();
            machine
                .fuses
                .burn(SGX_ROOT_FUSE, key, FuseAccess::SgxHardwareOnly)
                .expect("burning on an unlocked bank succeeds");
            machine.fuses.lock();
        }
        // The quoting enclave's key: derived inside the hardware from the
        // fused root; software never sees the fuse itself.
        let qk_seed = machine
            .fuses
            .derive(SGX_ROOT_FUSE, b"quoting-enclave")
            .expect("root fuse present");
        let quoting_key = SigningKey::from_seed(&qk_seed);
        // Touching an enclave on either side costs an EENTER/EEXIT pair;
        // host→host is an ordinary call.
        let c = &machine.costs;
        let mut cost_model = CrossingCostModel::uniform(
            c.function_call,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
            InvokeKindRule::AnyTrusted {
                trusted: CrossingKind::EnclaveTransition,
                none: CrossingKind::Local,
            },
        );
        cost_model.set(
            CrossingKind::EnclaveTransition,
            2 * c.enclave_transition,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
        );
        Sgx {
            machine,
            fabric: Fabric::new(cost_model),
            kstate: BTreeMap::new(),
            next_enclave: 1,
            quoting_key,
            rng,
            profile: SubstrateProfile {
                name: "sgx".to_string(),
                defends: models(&[
                    AttackerModel::RemoteSoftware,
                    AttackerModel::CompromisedOs,
                    AttackerModel::MaliciousDevice,
                    AttackerModel::PhysicalBus,
                    AttackerModel::PhysicalBoot,
                ]),
                features: Features {
                    spatial_isolation: true,
                    // §II-C: starvation issues and cache side channels.
                    temporal_isolation: false,
                    memory_encryption: true,
                    trust_anchor: true,
                    attestation: true,
                    sealed_storage: true,
                    max_trusted_domains: None,
                    hosts_legacy_os: true,
                },
                // "The equivalent of likely many thousands of lines of
                // code" of microcode plus the architectural enclaves.
                tcb_loc: 100_000,
            },
        }
    }

    /// Access to the underlying machine (attack injection).
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Immutable machine access.
    pub fn machine_ref(&self) -> &Machine {
        &self.machine
    }

    /// Spawns an *untrusted host* domain (normal memory, no enclave
    /// protection) — the legacy OS / process the enclave serves.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::OutOfResources`] on memory exhaustion.
    pub fn spawn_host(
        &mut self,
        spec: DomainSpec,
        component: Box<dyn Component>,
    ) -> Result<DomainId, SubstrateError> {
        fabric::spawn(self, spec, component, DomainKind::Untrusted)
    }

    /// The enclave id of a domain, if it is an enclave.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn enclave_of(&self, domain: DomainId) -> Result<Option<EnclaveId>, SubstrateError> {
        Ok(self.kdomain(domain)?.enclave)
    }

    /// Physical frames backing a domain (for probe experiments).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn domain_frames(&self, domain: DomainId) -> Result<Vec<Frame>, SubstrateError> {
        Ok(self.kdomain(domain)?.mem.frames().to_vec())
    }

    /// Performs one cache access attributed to `domain` — enclaves and
    /// host code share the CPU caches with no partitioning or flushing,
    /// which is precisely the §II-C side-channel surface experiment E6
    /// measures against the microkernel's time partitioning.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn cache_touch(
        &mut self,
        domain: DomainId,
        addr: u64,
    ) -> Result<lateral_hw::cache::CacheOutcome, SubstrateError> {
        self.fabric.table().get(domain)?;
        // Every domain has a distinct cache identity, but they all
        // contend in the one shared cache.
        let cd = lateral_hw::cache::CacheDomain(domain.0);
        Ok(self.machine.cache_access(cd, addr))
    }

    /// A compromised-OS read of arbitrary physical memory — what a
    /// malicious kernel can do on this substrate. Succeeds on normal
    /// frames, fails on EPC.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::AccessDenied`] when the bus blocks the access.
    pub fn os_probe_read(
        &mut self,
        addr: lateral_hw::PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError> {
        self.machine
            .bus_read(Initiator::cpu(World::Normal), addr, len)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn kdomain(&self, id: DomainId) -> Result<&SgxDomain, SubstrateError> {
        self.kstate.get(&id).ok_or(SubstrateError::NoSuchDomain(id))
    }

    fn initiator_for(&self, id: DomainId) -> Result<Initiator, SubstrateError> {
        Ok(match self.kdomain(id)?.enclave {
            Some(e) => Initiator::enclave(e),
            None => Initiator::cpu(World::Normal),
        })
    }

    /// EGETKEY: per-measurement sealing key derived in hardware.
    fn seal_key(&self, measurement: &Digest) -> [u8; 32] {
        self.machine
            .fuses
            .derive(
                SGX_ROOT_FUSE,
                &[b"seal".as_slice(), measurement.as_bytes()].concat(),
            )
            .expect("root fuse present")
    }
}

impl BackendPolicy for Sgx {
    fn backend_profile(&self) -> &SubstrateProfile {
        &self.profile
    }

    fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn place(&mut self, id: DomainId, kind: DomainKind) -> Result<(), SubstrateError> {
        let enclave_id = match kind {
            DomainKind::Trusted => {
                let e = EnclaveId(self.next_enclave);
                self.next_enclave += 1;
                Some(e)
            }
            DomainKind::Untrusted => None,
        };
        let owner = match enclave_id {
            Some(e) => FrameOwner::Epc(e),
            None => FrameOwner::Normal,
        };
        let pages = self.fabric.table().get(id)?.spec.mem_pages;
        let mem = DomainMemory::alloc(&mut self.machine.mem, owner, pages)
            .map_err(|e| SubstrateError::OutOfResources(e.to_string()))?;
        self.kstate.insert(
            id,
            SgxDomain {
                mem,
                enclave: enclave_id,
            },
        );
        Ok(())
    }

    fn unplace(&mut self, id: DomainId) {
        if let Some(k) = self.kstate.remove(&id) {
            k.mem.free(&mut self.machine.mem);
        }
    }

    fn charge_spawn(&mut self, _id: DomainId) -> Result<(), SubstrateError> {
        // ECREATE/EINIT work: measuring the image costs time.
        self.machine
            .clock
            .advance(self.machine.costs.enclave_transition);
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
        let initiator = self.initiator_for(domain)?;
        let k = self
            .kstate
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        k.mem
            .read(&mut self.machine, initiator, offset, len)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let initiator = self.initiator_for(domain)?;
        let k = self
            .kstate
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        k.mem
            .write(&mut self.machine, initiator, offset, data)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn domain_rng(&mut self, domain: DomainId) -> u64 {
        self.rng.fork(&format!("domain-{}", domain.0)).next_u64()
    }

    fn seal_blob(
        &mut self,
        domain: DomainId,
        measurement: &Digest,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        // Sealing is enclave-exclusive: host domains have no EGETKEY.
        if self.kdomain(domain)?.enclave.is_none() {
            return Err(SubstrateError::Unsupported(
                "sealing requires an enclave (EGETKEY)".into(),
            ));
        }
        Ok(Aead::new(&self.seal_key(measurement)).seal(0, b"sgx.seal", data))
    }

    fn unseal_blob(
        &mut self,
        domain: DomainId,
        measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        if self.kdomain(domain)?.enclave.is_none() {
            return Err(SubstrateError::Unsupported(
                "unsealing requires an enclave (EGETKEY)".into(),
            ));
        }
        Aead::new(&self.seal_key(measurement))
            .open(0, b"sgx.seal", sealed)
            .map_err(|_| {
                SubstrateError::CryptoFailure(
                    "unseal failed: wrong enclave identity or tampered blob".into(),
                )
            })
    }

    fn attest_evidence(
        &mut self,
        domain: DomainId,
        measurement: Digest,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        if self.kdomain(domain)?.enclave.is_none() {
            return Err(SubstrateError::Unsupported(
                "only enclaves can be attested (EREPORT)".into(),
            ));
        }
        // The quoting enclave converts the local report into a signed
        // quote; one extra enclave round trip.
        self.machine
            .clock
            .advance(2 * self.machine.costs.enclave_transition);
        Ok(AttestationEvidence::sign(
            "sgx",
            &self.quoting_key,
            measurement,
            Digest::ZERO,
            report_data,
        ))
    }

    fn verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        Ok(self.quoting_key.verifying_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_hw::machine::MachineBuilder;
    use lateral_hw::HwError;
    use lateral_substrate::attest::TrustPolicy;
    use lateral_substrate::cap::Badge;
    use lateral_substrate::conformance;
    use lateral_substrate::substrate::Substrate;
    use lateral_substrate::testkit::Echo;

    fn sgx() -> Sgx {
        let machine = MachineBuilder::new().name("sgx-test").frames(128).build();
        Sgx::new(machine, "test")
    }

    #[test]
    fn conformance_suite_passes() {
        let mut s = sgx();
        let report = conformance::run(&mut s);
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
    fn os_cannot_read_enclave_memory() {
        // The data-center property: "the cloud operator has no visibility
        // into the execution state."
        let mut s = sgx();
        let enclave = s
            .spawn(DomainSpec::named("customer-code"), Box::new(Echo))
            .unwrap();
        s.mem_write(enclave, 0, b"customer secret").unwrap();
        let frame = s.domain_frames(enclave).unwrap()[0];
        assert!(s.os_probe_read(frame.base(), 15).is_err());
        // But the OS reads host memory freely.
        let host = s
            .spawn_host(DomainSpec::named("host-proc"), Box::new(Echo))
            .unwrap();
        s.mem_write(host, 0, b"host data").unwrap();
        let host_frame = s.domain_frames(host).unwrap()[0];
        assert_eq!(s.os_probe_read(host_frame.base(), 9).unwrap(), b"host data");
    }

    #[test]
    fn bus_probe_sees_only_ciphertext_and_writes_are_detected() {
        let mut s = sgx();
        let enclave = s.spawn(DomainSpec::named("e"), Box::new(Echo)).unwrap();
        s.mem_write(enclave, 0, b"enclave secret").unwrap();
        let frame = s.domain_frames(enclave).unwrap()[0];
        let eid = s.enclave_of(enclave).unwrap().unwrap();
        let view = s
            .machine()
            .bus_read(Initiator::Probe, frame.base(), 14)
            .unwrap();
        assert_ne!(view, b"enclave secret");
        // A probe write corrupts; the enclave detects on next read.
        s.machine()
            .bus_write(Initiator::Probe, frame.base(), b"xx")
            .unwrap();
        let err = s
            .machine()
            .bus_read(Initiator::enclave(eid), frame.base(), 2)
            .unwrap_err();
        assert!(matches!(err, HwError::IntegrityViolation(_)));
    }

    #[test]
    fn enclaves_are_mutually_isolated() {
        let mut s = sgx();
        let e1 = s.spawn(DomainSpec::named("e1"), Box::new(Echo)).unwrap();
        let e2 = s.spawn(DomainSpec::named("e2"), Box::new(Echo)).unwrap();
        s.mem_write(e1, 0, b"e1 secret").unwrap();
        let f1 = s.domain_frames(e1).unwrap()[0];
        let id2 = s.enclave_of(e2).unwrap().unwrap();
        assert!(s
            .machine()
            .bus_read(Initiator::enclave(id2), f1.base(), 9)
            .is_err());
    }

    #[test]
    fn sealing_is_enclave_only_and_identity_bound() {
        let mut s = sgx();
        let e1 = s
            .spawn(DomainSpec::named("e1").with_image(b"img-1"), Box::new(Echo))
            .unwrap();
        let e2 = s
            .spawn(DomainSpec::named("e2").with_image(b"img-2"), Box::new(Echo))
            .unwrap();
        let host = s
            .spawn_host(DomainSpec::named("host"), Box::new(Echo))
            .unwrap();
        let sealed = s.seal(e1, b"persist me").unwrap();
        assert!(s.unseal(e2, &sealed).is_err());
        assert!(matches!(
            s.seal(host, b"x"),
            Err(SubstrateError::Unsupported(_))
        ));
        assert_eq!(s.unseal(e1, &sealed).unwrap(), b"persist me");
    }

    #[test]
    fn quote_verifies_and_host_cannot_attest() {
        let mut s = sgx();
        let enclave = s
            .spawn(
                DomainSpec::named("anonymizer").with_image(b"anonymizer v1"),
                Box::new(Echo),
            )
            .unwrap();
        let ev = s.attest(enclave, b"channel-binding").unwrap();
        let mut policy = TrustPolicy::new();
        policy.trust_platform(s.platform_verifying_key().unwrap());
        policy.expect_measurement(
            DomainSpec::named("anonymizer")
                .with_image(b"anonymizer v1")
                .measurement(),
        );
        assert!(policy.verify(&ev).is_ok());
        let host = s
            .spawn_host(DomainSpec::named("host"), Box::new(Echo))
            .unwrap();
        assert!(matches!(
            s.attest(host, b""),
            Err(SubstrateError::Unsupported(_))
        ));
    }

    #[test]
    fn enclave_transitions_cost_more_than_host_calls() {
        let mut s = sgx();
        let h1 = s
            .spawn_host(DomainSpec::named("h1"), Box::new(Echo))
            .unwrap();
        let h2 = s
            .spawn_host(DomainSpec::named("h2"), Box::new(Echo))
            .unwrap();
        let e = s.spawn(DomainSpec::named("e"), Box::new(Echo)).unwrap();
        let host_cap = s.grant_channel(h1, h2, Badge(0)).unwrap();
        let enclave_cap = s.grant_channel(h1, e, Badge(0)).unwrap();
        let t0 = s.now();
        s.invoke(h1, &host_cap, b"x").unwrap();
        let host_cost = s.now() - t0;
        let t1 = s.now();
        s.invoke(h1, &enclave_cap, b"x").unwrap();
        let enclave_cost = s.now() - t1;
        assert!(enclave_cost > host_cost, "{enclave_cost} vs {host_cost}");
    }

    #[test]
    fn sealed_data_survives_enclave_restart() {
        let mut s = sgx();
        let e1 = s
            .spawn(
                DomainSpec::named("svc").with_image(b"svc v1"),
                Box::new(Echo),
            )
            .unwrap();
        let sealed = s.seal(e1, b"state").unwrap();
        s.destroy(e1).unwrap();
        // Relaunch the same image → same measurement → unseals.
        let e2 = s
            .spawn(
                DomainSpec::named("svc").with_image(b"svc v1"),
                Box::new(Echo),
            )
            .unwrap();
        assert_eq!(s.unseal(e2, &sealed).unwrap(), b"state");
    }
}
