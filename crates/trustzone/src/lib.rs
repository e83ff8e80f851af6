//! ARM TrustZone as an isolation substrate.
//!
//! §II-B: TrustZone provides *two* execution contexts — a secure world
//! that "completely controls the software running in the normal world" —
//! with the hardware conveying an NS bit on every bus access. This
//! backend models:
//!
//! * **Two worlds, asymmetric**: trusted components spawn into the secure
//!   world (backed by [`FrameOwner::Secure`] frames the normal world
//!   cannot touch); exactly one legacy domain occupies the normal world,
//!   because "TrustZone itself does not support multiplexing" —
//!   [`TrustZone::spawn_normal`] enforces the limit.
//! * **Secondary isolation**: multiple secure-world components rely on
//!   the secure-world OS (this crate) to keep them apart — exactly the
//!   caveat the paper notes.
//! * **Secure monitor calls**: normal↔secure invocations cost an SMC
//!   world switch; secure-internal calls cost ordinary IPC.
//! * **Fused device key**: the per-device key of the smart-meter example,
//!   burned into [`lateral_hw::fuse::FuseBank`] with
//!   `SecureWorldOnly` access; attestation and sealing derive from it.
//! * **No memory encryption**: a physical bus probe reads secure-world
//!   DRAM in plaintext — the decisive difference from SGX/SEP in the E9
//!   attack matrix.
//!
//! The crate is a [`BackendPolicy`] and nothing else. A domain's world is
//! its recorded [`DomainKind`], and the fabric engine charges the SMC
//! pair or the secure-world IPC from the `SameSideElse` rule of the cost
//! model TrustZone hands its fabric.

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
use lateral_hw::{Initiator, World};
use lateral_substrate::attacker::{models, AttackerModel, Features, SubstrateProfile};
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::component::Component;
use lateral_substrate::fabric::{
    self, BackendPolicy, CrossingCostModel, CrossingKind, DomainKind, Fabric, InvokeKindRule,
};
use lateral_substrate::substrate::DomainSpec;
use lateral_substrate::{DomainId, SubstrateError};

/// Name of the fused per-device key (smart-meter example, §III-C).
pub const DEVICE_KEY_FUSE: &str = "tz-device-key";

/// The TrustZone substrate: secure-world OS + secure monitor.
pub struct TrustZone {
    machine: Machine,
    fabric: Fabric,
    mems: BTreeMap<DomainId, DomainMemory>,
    normal_domain: Option<DomainId>,
    attest_key: SigningKey,
    seal_root: [u8; 32],
    platform_state: Digest,
}

impl std::fmt::Debug for TrustZone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TrustZone({} domains on '{}')",
            self.fabric.table().len(),
            self.machine.name
        )
    }
}

impl TrustZone {
    /// Initializes TrustZone on `machine`. If the device-key fuse is not
    /// yet burned (fresh machine), it is burned from `seed` and the bank
    /// locked — the factory step of the smart-meter scenario.
    pub fn new(mut machine: Machine, seed: &str) -> TrustZone {
        let mut rng = Drbg::from_seed(&[b"lateral.trustzone.", seed.as_bytes()].concat());
        if !machine.fuses.is_locked() {
            let key = rng.gen_key();
            machine
                .fuses
                .burn(DEVICE_KEY_FUSE, key, FuseAccess::SecureWorldOnly)
                .expect("burning on an unlocked bank succeeds");
            machine.fuses.lock();
        }
        // The secure world reads the fused key at boot and derives its
        // identities — the boot-ROM attestation component of Figure 3.
        let device_key = machine
            .fuses
            .read(Initiator::cpu(World::Secure), DEVICE_KEY_FUSE)
            .expect("secure world reads its fuse");
        let attest_key =
            SigningKey::from_seed(&[b"tz-attest".as_slice(), device_key.as_slice()].concat());
        let seal_root = lateral_crypto::hmac::hkdf(b"lateral.trustzone.sealroot", &device_key, b"");
        // Same world → IPC through the secure-world OS; crossing the NS
        // boundary → an SMC pair.
        let c = &machine.costs;
        let mut cost_model = CrossingCostModel::uniform(
            c.ipc_round_trip,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
            InvokeKindRule::SameSideElse {
                same: CrossingKind::Ipc,
                cross: CrossingKind::WorldSwitch,
            },
        );
        cost_model.set(
            CrossingKind::WorldSwitch,
            2 * c.smc,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
        );
        let profile = SubstrateProfile {
            name: "trustzone".to_string(),
            defends: models(&[
                AttackerModel::RemoteSoftware,
                AttackerModel::CompromisedOs,
                AttackerModel::MaliciousDevice,
                AttackerModel::PhysicalBoot,
            ]),
            features: Features {
                spatial_isolation: true,
                temporal_isolation: false,
                memory_encryption: false,
                trust_anchor: true,
                attestation: true,
                sealed_storage: true,
                // One secure world; components inside share it under
                // secondary isolation. We report the architectural
                // limit of one *hardware* trusted domain.
                max_trusted_domains: Some(1),
                hosts_legacy_os: true,
            },
            // Monitor + secure-world OS; QSEE-class systems are small.
            tcb_loc: 25_000,
        };
        TrustZone {
            machine,
            fabric: Fabric::new(cost_model, profile, rng),
            mems: BTreeMap::new(),
            normal_domain: None,
            attest_key,
            seal_root,
            platform_state: Digest::ZERO,
        }
    }

    /// Records the measured identity of the booted software stack,
    /// included in attestation evidence.
    #[must_use]
    pub fn with_platform_state(mut self, state: Digest) -> TrustZone {
        self.platform_state = state;
        self
    }

    /// Access to the underlying machine (experiments inject
    /// hardware-level attacks here).
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Immutable machine access.
    pub fn machine_ref(&self) -> &Machine {
        &self.machine
    }

    /// Spawns the single normal-world legacy domain.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::OutOfResources`] when a normal-world domain
    /// already exists — "TrustZone itself does not support multiplexing"
    /// (§II-B). Combine with a hypervisor (the microkernel substrate) to
    /// host several.
    pub fn spawn_normal(
        &mut self,
        spec: DomainSpec,
        component: Box<dyn Component>,
    ) -> Result<DomainId, SubstrateError> {
        if self.normal_domain.is_some() {
            return Err(SubstrateError::OutOfResources(
                "the normal world already hosts a legacy codebase (no multiplexing)".into(),
            ));
        }
        let id = fabric::spawn(self, spec, component, DomainKind::Untrusted)?;
        self.normal_domain = Some(id);
        Ok(id)
    }

    /// The world a domain executes in.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn world_of(&self, domain: DomainId) -> Result<World, SubstrateError> {
        Ok(match self.fabric.table().get(domain)?.kind {
            DomainKind::Trusted => World::Secure,
            DomainKind::Untrusted => World::Normal,
        })
    }

    /// Physical frames backing a domain — used by the attack experiments
    /// to aim bus probes.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn domain_frames(&self, domain: DomainId) -> Result<Vec<Frame>, SubstrateError> {
        let mem = self
            .mems
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        Ok(mem.frames().to_vec())
    }

    fn seal_key(&self, measurement: &Digest) -> [u8; 32] {
        lateral_crypto::hmac::hkdf(
            b"lateral.trustzone.seal",
            &self.seal_root,
            measurement.as_bytes(),
        )
    }
}

impl BackendPolicy for TrustZone {
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn place(&mut self, id: DomainId, kind: DomainKind) -> Result<(), SubstrateError> {
        let owner = match kind {
            DomainKind::Trusted => FrameOwner::Secure,
            DomainKind::Untrusted => FrameOwner::Normal,
        };
        let pages = self.fabric.table().get(id)?.spec.mem_pages;
        let mem = DomainMemory::alloc(&mut self.machine.mem, owner, pages)
            .map_err(|e| SubstrateError::OutOfResources(e.to_string()))?;
        self.mems.insert(id, mem);
        Ok(())
    }

    fn unplace(&mut self, id: DomainId) {
        if let Some(mem) = self.mems.remove(&id) {
            mem.free(&mut self.machine.mem);
        }
        if self.normal_domain == Some(id) {
            self.normal_domain = None;
        }
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
        let cpu = Initiator::cpu(self.world_of(domain)?);
        let mem = self
            .mems
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        mem.read(&mut self.machine, cpu, offset, len)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let cpu = Initiator::cpu(self.world_of(domain)?);
        let mem = self
            .mems
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        mem.write(&mut self.machine, cpu, offset, data)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn seal_blob(
        &mut self,
        _domain: DomainId,
        measurement: &Digest,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        // Sealing is a secure-world service rooted in the fused key.
        Ok(Aead::new(&self.seal_key(measurement)).seal(0, b"trustzone.seal", data))
    }

    fn unseal_blob(
        &mut self,
        _domain: DomainId,
        measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        Aead::new(&self.seal_key(measurement))
            .open(0, b"trustzone.seal", sealed)
            .map_err(|_| {
                SubstrateError::CryptoFailure(
                    "unseal failed: wrong identity or tampered blob".into(),
                )
            })
    }

    fn attest_evidence(
        &mut self,
        domain: DomainId,
        measurement: Digest,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        // Only secure-world components can be attested: the attestation
        // component has no basis for statements about normal-world state.
        if self.world_of(domain)? != World::Secure {
            return Err(SubstrateError::Unsupported(
                "TrustZone attests secure-world components only".into(),
            ));
        }
        Ok(AttestationEvidence::sign(
            "trustzone",
            &self.attest_key,
            measurement,
            self.platform_state,
            report_data,
        ))
    }

    fn verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        Ok(self.attest_key.verifying_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_hw::machine::MachineBuilder;
    use lateral_substrate::attest::TrustPolicy;
    use lateral_substrate::cap::Badge;
    use lateral_substrate::conformance;
    use lateral_substrate::substrate::Substrate;
    use lateral_substrate::testkit::Echo;

    fn tz() -> TrustZone {
        let machine = MachineBuilder::new().name("tz-test").frames(128).build();
        TrustZone::new(machine, "test")
    }

    #[test]
    fn conformance_suite_passes() {
        let mut t = tz();
        let report = conformance::run(&mut t);
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
    fn only_one_normal_world_domain() {
        let mut t = tz();
        t.spawn_normal(DomainSpec::named("android"), Box::new(Echo))
            .unwrap();
        assert!(matches!(
            t.spawn_normal(DomainSpec::named("second-os"), Box::new(Echo)),
            Err(SubstrateError::OutOfResources(_))
        ));
    }

    #[test]
    fn normal_world_cpu_cannot_read_secure_component_memory() {
        let mut t = tz();
        let tc = t
            .spawn(DomainSpec::named("keystore"), Box::new(Echo))
            .unwrap();
        t.mem_write(tc, 0, b"DRM keys").unwrap();
        let frame = t.domain_frames(tc).unwrap()[0];
        // The compromised normal-world OS issues a raw read at the secure
        // frame — blocked by the NS-bit check.
        let err = t
            .machine()
            .bus_read(Initiator::cpu(World::Normal), frame.base(), 8)
            .unwrap_err();
        assert!(err.to_string().contains("normal world"));
    }

    #[test]
    fn physical_probe_reads_secure_world_plaintext() {
        // TrustZone does not encrypt DRAM: the bus probe leaks secrets —
        // why the profile excludes AttackerModel::PhysicalBus.
        let mut t = tz();
        let tc = t
            .spawn(DomainSpec::named("keystore"), Box::new(Echo))
            .unwrap();
        t.mem_write(tc, 0, b"DRM keys").unwrap();
        let frame = t.domain_frames(tc).unwrap()[0];
        let leaked = t
            .machine()
            .bus_read(Initiator::Probe, frame.base(), 8)
            .unwrap();
        assert_eq!(leaked, b"DRM keys");
        assert!(!t.profile().defends_against(AttackerModel::PhysicalBus));
    }

    #[test]
    fn smc_costs_more_than_secure_internal_ipc() {
        let mut t = tz();
        let s1 = t.spawn(DomainSpec::named("s1"), Box::new(Echo)).unwrap();
        let s2 = t.spawn(DomainSpec::named("s2"), Box::new(Echo)).unwrap();
        let legacy = t
            .spawn_normal(DomainSpec::named("android"), Box::new(Echo))
            .unwrap();
        let cap_internal = t.grant_channel(s1, s2, Badge(0)).unwrap();
        let cap_smc = t.grant_channel(legacy, s1, Badge(0)).unwrap();
        let t0 = t.now();
        t.invoke(s1, &cap_internal, b"x").unwrap();
        let internal = t.now() - t0;
        let t1 = t.now();
        t.invoke(legacy, &cap_smc, b"x").unwrap();
        let crossing = t.now() - t1;
        assert!(crossing > internal, "{crossing} vs {internal}");
    }

    #[test]
    fn attestation_verifies_and_binds_device_identity() {
        let mut t = tz().with_platform_state(Digest::of(b"meter stack v1"));
        let meter = t
            .spawn(
                DomainSpec::named("meter").with_image(b"meter v1"),
                Box::new(Echo),
            )
            .unwrap();
        let ev = t.attest(meter, b"reading batch 7").unwrap();
        let mut policy = TrustPolicy::new();
        policy.trust_platform(t.platform_verifying_key().unwrap());
        policy.expect_measurement(
            DomainSpec::named("meter")
                .with_image(b"meter v1")
                .measurement(),
        );
        policy.expect_platform_state(Digest::of(b"meter stack v1"));
        assert!(policy.verify(&ev).is_ok());
    }

    #[test]
    fn normal_world_cannot_be_attested() {
        let mut t = tz();
        let legacy = t
            .spawn_normal(DomainSpec::named("android"), Box::new(Echo))
            .unwrap();
        assert!(matches!(
            t.attest(legacy, b""),
            Err(SubstrateError::Unsupported(_))
        ));
    }

    #[test]
    fn same_device_same_identity_key() {
        // The fused key makes device identity stable across reboots.
        let m1 = MachineBuilder::new().name("meter-1").frames(64).build();
        let t1 = TrustZone::new(m1, "device-seed");
        let k1 = t1.platform_verifying_key().unwrap();
        // "Reboot": new TrustZone over a machine with the same fuse.
        let mut m2 = MachineBuilder::new().name("meter-1").frames(64).build();
        let mut rng = Drbg::from_seed(&[b"lateral.trustzone.", b"device-seed".as_slice()].concat());
        m2.fuses
            .burn(DEVICE_KEY_FUSE, rng.gen_key(), FuseAccess::SecureWorldOnly)
            .unwrap();
        m2.fuses.lock();
        let t2 = TrustZone::new(m2, "ignored-after-lock");
        assert_eq!(
            k1.to_bytes(),
            t2.platform_verifying_key().unwrap().to_bytes()
        );
    }

    #[test]
    fn normal_domain_slot_frees_on_destroy() {
        let mut t = tz();
        let legacy = t
            .spawn_normal(DomainSpec::named("android"), Box::new(Echo))
            .unwrap();
        t.destroy(legacy).unwrap();
        assert!(t
            .spawn_normal(DomainSpec::named("android2"), Box::new(Echo))
            .is_ok());
    }
}
