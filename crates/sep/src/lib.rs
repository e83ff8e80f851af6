//! A Secure Enclave Processor (SEP) substrate.
//!
//! §II-B: Apple's SEP "is separated from the main application CPU,
//! accesses DRAM with inline encryption and runs an L4-style microkernel
//! … By using a dedicated processor, this construction offers strong
//! isolation with reduced side channel opportunities … But similar to
//! TrustZone, SEP is inflexible and offers only two separated execution
//! environments." The model:
//!
//! * Trusted components spawn *on the coprocessor*, backed by
//!   [`FrameOwner::SepPrivate`] frames: the main CPU and all devices are
//!   blocked, and the inline encryption shows a bus probe only
//!   ciphertext (writes are integrity-detected).
//! * The main CPU hosts untrusted domains; every call crossing the
//!   processor boundary pays a mailbox round trip — the most expensive
//!   local invocation in the E4 cost ladder.
//! * Because the SEP has its own caches, components on it do not share
//!   the application CPU's cache — no cross-boundary prime+probe, hence
//!   `temporal_isolation: true` ("reduced side channel opportunities").
//! * A fused key ([`lateral_hw::fuse::FuseAccess::SepOnly`]) roots
//!   sealing and attestation, like the on-device HSM the paper compares
//!   the SEP to.
//!
//! The crate is a [`BackendPolicy`] and nothing else. Which processor a
//! domain runs on is its recorded [`DomainKind`], and the fabric engine
//! charges the mailbox round trip from the `SameSideElse` rule of the
//! cost model the SEP hands its fabric.

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

/// Name of the fused SEP root key (the UID fused at manufacture).
pub const SEP_KEY_FUSE: &str = "sep-uid";

/// The SEP substrate: coprocessor services + application-CPU hosts.
pub struct Sep {
    machine: Machine,
    fabric: Fabric,
    mems: BTreeMap<DomainId, DomainMemory>,
    attest_key: SigningKey,
    rng: Drbg,
    profile: SubstrateProfile,
}

impl std::fmt::Debug for Sep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sep({} domains on '{}')",
            self.fabric.table().len(),
            self.machine.name
        )
    }
}

impl Sep {
    /// Initializes the SEP on `machine`, burning the UID fuse on fresh
    /// machines.
    pub fn new(mut machine: Machine, seed: &str) -> Sep {
        let mut rng = Drbg::from_seed(&[b"lateral.sep.", seed.as_bytes()].concat());
        if !machine.fuses.is_locked() {
            let key = rng.gen_key();
            machine
                .fuses
                .burn(SEP_KEY_FUSE, key, FuseAccess::SepOnly)
                .expect("burning on an unlocked bank succeeds");
            machine.fuses.lock();
        }
        let uid = machine
            .fuses
            .read(Initiator::Sep, SEP_KEY_FUSE)
            .expect("SEP reads its fuse");
        let attest_key =
            SigningKey::from_seed(&[b"sep-attest".as_slice(), uid.as_slice()].concat());
        // Same processor side → IPC; crossing to/from the SEP → a mailbox
        // round trip.
        let c = &machine.costs;
        let mut cost_model = CrossingCostModel::uniform(
            c.ipc_round_trip,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
            InvokeKindRule::SameSideElse {
                same: CrossingKind::Ipc,
                cross: CrossingKind::Mailbox,
            },
        );
        cost_model.set(
            CrossingKind::Mailbox,
            2 * c.sep_mailbox,
            c.copy_per_byte_num,
            c.copy_per_byte_den,
        );
        Sep {
            machine,
            fabric: Fabric::new(cost_model),
            mems: BTreeMap::new(),
            attest_key,
            rng,
            profile: SubstrateProfile {
                name: "sep".to_string(),
                defends: models(&[
                    AttackerModel::RemoteSoftware,
                    AttackerModel::CompromisedOs,
                    AttackerModel::MaliciousDevice,
                    AttackerModel::PhysicalBus,
                    AttackerModel::PhysicalBoot,
                ]),
                features: Features {
                    spatial_isolation: true,
                    temporal_isolation: true,
                    memory_encryption: true,
                    trust_anchor: true,
                    attestation: true,
                    sealed_storage: true,
                    // "Only two separated execution environments": the
                    // coprocessor is one fixed trusted environment.
                    max_trusted_domains: Some(1),
                    hosts_legacy_os: true,
                },
                // An L4-style microkernel plus fixed services.
                tcb_loc: 15_000,
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

    /// Spawns an untrusted domain on the application CPU.
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

    /// Whether a domain runs on the coprocessor.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::NoSuchDomain`].
    pub fn on_sep(&self, domain: DomainId) -> Result<bool, SubstrateError> {
        Ok(self.fabric.table().get(domain)?.kind == DomainKind::Trusted)
    }

    /// Physical frames backing a domain (for probe experiments).
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

    fn initiator_for(&self, id: DomainId) -> Result<Initiator, SubstrateError> {
        Ok(if self.on_sep(id)? {
            Initiator::Sep
        } else {
            Initiator::cpu(World::Normal)
        })
    }

    fn seal_key(&self, measurement: &Digest) -> [u8; 32] {
        self.machine
            .fuses
            .derive(
                SEP_KEY_FUSE,
                &[b"seal".as_slice(), measurement.as_bytes()].concat(),
            )
            .expect("UID fuse present")
    }
}

impl BackendPolicy for Sep {
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
        let owner = match kind {
            DomainKind::Trusted => FrameOwner::SepPrivate,
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
        let mem = self
            .mems
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        mem.read(&mut self.machine, initiator, offset, len)
            .map_err(|e| SubstrateError::AccessDenied(e.to_string()))
    }

    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        let initiator = self.initiator_for(domain)?;
        let mem = self
            .mems
            .get(&domain)
            .ok_or(SubstrateError::NoSuchDomain(domain))?;
        mem.write(&mut self.machine, initiator, offset, data)
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
        if !self.on_sep(domain)? {
            return Err(SubstrateError::Unsupported(
                "sealing is a coprocessor service".into(),
            ));
        }
        Ok(Aead::new(&self.seal_key(measurement)).seal(0, b"sep.seal", data))
    }

    fn unseal_blob(
        &mut self,
        domain: DomainId,
        measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        if !self.on_sep(domain)? {
            return Err(SubstrateError::Unsupported(
                "unsealing is a coprocessor service".into(),
            ));
        }
        Aead::new(&self.seal_key(measurement))
            .open(0, b"sep.seal", sealed)
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
        if !self.on_sep(domain)? {
            return Err(SubstrateError::Unsupported(
                "only coprocessor components can be attested".into(),
            ));
        }
        Ok(AttestationEvidence::sign(
            "sep",
            &self.attest_key,
            measurement,
            Digest::ZERO,
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
    use lateral_substrate::cap::Badge;
    use lateral_substrate::conformance;
    use lateral_substrate::substrate::Substrate;
    use lateral_substrate::testkit::Echo;

    fn sep() -> Sep {
        let machine = MachineBuilder::new().name("sep-test").frames(128).build();
        Sep::new(machine, "test")
    }

    #[test]
    fn conformance_suite_passes() {
        let mut s = sep();
        let report = conformance::run(&mut s);
        for c in &report.checks {
            assert!(
                c.outcome.acceptable(),
                "feature {} failed: {}",
                c.feature,
                c.outcome
            );
        }
    }

    #[test]
    fn app_cpu_cannot_touch_sep_memory() {
        let mut s = sep();
        let svc = s
            .spawn(DomainSpec::named("biometrics"), Box::new(Echo))
            .unwrap();
        s.mem_write(svc, 0, b"fingerprint template").unwrap();
        let frame = s.domain_frames(svc).unwrap()[0];
        assert!(s
            .machine()
            .bus_read(Initiator::cpu(World::Normal), frame.base(), 8)
            .is_err());
        assert!(s
            .machine()
            .bus_read(Initiator::cpu(World::Secure), frame.base(), 8)
            .is_err());
    }

    #[test]
    fn probe_sees_ciphertext_thanks_to_inline_encryption() {
        let mut s = sep();
        let svc = s.spawn(DomainSpec::named("keys"), Box::new(Echo)).unwrap();
        s.mem_write(svc, 0, b"class key").unwrap();
        let frame = s.domain_frames(svc).unwrap()[0];
        let view = s
            .machine()
            .bus_read(Initiator::Probe, frame.base(), 9)
            .unwrap();
        assert_ne!(view, b"class key");
    }

    #[test]
    fn mailbox_crossing_is_most_expensive_local_call() {
        let mut s = sep();
        let svc = s.spawn(DomainSpec::named("svc"), Box::new(Echo)).unwrap();
        let svc2 = s.spawn(DomainSpec::named("svc2"), Box::new(Echo)).unwrap();
        let app = s
            .spawn_host(DomainSpec::named("app"), Box::new(Echo))
            .unwrap();
        let internal = s.grant_channel(svc, svc2, Badge(0)).unwrap();
        let mailbox = s.grant_channel(app, svc, Badge(0)).unwrap();
        let t0 = s.now();
        s.invoke(svc, &internal, b"x").unwrap();
        let internal_cost = s.now() - t0;
        let t1 = s.now();
        s.invoke(app, &mailbox, b"x").unwrap();
        let mailbox_cost = s.now() - t1;
        assert!(mailbox_cost > internal_cost);
    }

    #[test]
    fn host_domains_cannot_seal_or_attest() {
        let mut s = sep();
        let app = s
            .spawn_host(DomainSpec::named("app"), Box::new(Echo))
            .unwrap();
        assert!(matches!(
            s.seal(app, b"x"),
            Err(SubstrateError::Unsupported(_))
        ));
        assert!(matches!(
            s.attest(app, b"x"),
            Err(SubstrateError::Unsupported(_))
        ));
    }

    #[test]
    fn uid_rooted_identity_is_stable() {
        let a = sep();
        let k1 = a.platform_verifying_key().unwrap();
        let machine = MachineBuilder::new().name("sep-test").frames(128).build();
        let b = Sep::new(machine, "test");
        assert_eq!(
            k1.to_bytes(),
            b.platform_verifying_key().unwrap().to_bytes()
        );
    }
}
