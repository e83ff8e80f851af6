//! A Flicker-style late-launch isolation substrate.
//!
//! §II-B: *"The Flicker project has demonstrated that late launch can be
//! used as an isolation mechanism to execute trusted components from
//! within legacy code. Flicker even allows multiple trusted components
//! that are mutually isolated by way of the TPM assigning them different
//! cryptographic identities, but they cannot run concurrently."*
//!
//! This backend implements the unified interface on top of
//! [`lateral_tpm`]'s dynamic root of trust:
//!
//! * every invocation of a domain **is** a late-launch session: the
//!   dynamic PCR is reset, the component image is measured, the handler
//!   runs with the machine to itself, and the PCR is capped on exit;
//! * **no concurrency**: a component that tries to call another domain
//!   mid-session hits the single-session limit of the TPM and receives
//!   [`SubstrateError::Reentrancy`] — Flicker PALs cannot nest;
//! * sealing and unsealing bind to the dynamic-PCR identity of the
//!   launched image, so state persists between sessions only through the
//!   TPM, exactly as in Flicker;
//! * attestation evidence is signed by the TPM's attestation identity
//!   and carries the payload measurement from the dynamic PCR.
//!
//! Each invocation pays the late-launch overhead (the paper's implicit
//! cost of this design: DRTM entry is *expensive*), which makes Flicker
//! the natural ablation point between "TPM only" and "SGX" in the E4
//! cost ladder.
//!
//! The crate is a [`BackendPolicy`] and nothing else: its invoke gate
//! enters the session, and the fabric engine supplies the rest of the
//! `Substrate` interface and charges every invoke from the cost model
//! Flicker hands its fabric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::VerifyingKey;
use lateral_crypto::Digest;
use lateral_substrate::attacker::{models, AttackerModel, Features, SubstrateProfile};
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::fabric::{
    BackendPolicy, CrossingCostModel, CrossingKind, DomainKind, Fabric, HeapMemory, InvokeKindRule,
};
use lateral_substrate::{DomainId, SubstrateError};
use lateral_tpm::Tpm;

/// Cycles one DRTM entry/exit pair costs (SKINIT/SENTER-class overhead —
/// orders of magnitude above an enclave transition).
pub const LATE_LAUNCH_COST: u64 = 60_000;

/// The Flicker substrate.
pub struct Flicker {
    tpm: Tpm,
    fabric: Fabric,
    memory: HeapMemory,
    session_active: bool,
    clock: u64,
}

impl std::fmt::Debug for Flicker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Flicker({} PALs)", self.fabric.table().len())
    }
}

impl Flicker {
    /// Initializes the substrate on a board identified by `seed` (the
    /// TPM identity derives from it).
    pub fn new(seed: &str) -> Flicker {
        let profile = SubstrateProfile {
            name: "flicker".to_string(),
            defends: models(&[
                AttackerModel::RemoteSoftware,
                // The kernel is *stopped* during a session.
                AttackerModel::CompromisedOs,
                // DRTM engages DMA protection over the PAL region.
                AttackerModel::MaliciousDevice,
                // The launch instruction is the trust anchor.
                AttackerModel::PhysicalBoot,
            ]),
            features: Features {
                spatial_isolation: true,
                // Everything else is stopped — trivially interference
                // free *during* a session; the flag is still false
                // because between sessions the legacy OS owns the
                // machine and all caches.
                temporal_isolation: false,
                memory_encryption: false,
                trust_anchor: true,
                attestation: true,
                sealed_storage: true,
                // One PAL at a time.
                max_trusted_domains: Some(1),
                hosts_legacy_os: true,
            },
            // The Flicker kernel module + PAL shim are tiny.
            tcb_loc: 5_000,
        };
        // Every invocation is a DRTM entry/exit pair.
        let cost_model = CrossingCostModel::uniform(
            LATE_LAUNCH_COST,
            1,
            8,
            InvokeKindRule::Always(CrossingKind::LateLaunch),
        );
        let rng = Drbg::from_seed(&[b"lateral.flicker.", seed.as_bytes()].concat());
        Flicker {
            tpm: Tpm::new(seed.as_bytes()),
            fabric: Fabric::new(cost_model, profile, rng),
            memory: HeapMemory::default(),
            session_active: false,
            clock: 0,
        }
    }

    /// Access to the underlying TPM (verifiers fetch the AIK, tests
    /// inspect the event log).
    pub fn tpm(&self) -> &Tpm {
        &self.tpm
    }
}

impl BackendPolicy for Flicker {
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    fn place(&mut self, id: DomainId, _kind: DomainKind) -> Result<(), SubstrateError> {
        let pages = self.fabric.table().get(id)?.spec.mem_pages;
        self.memory.place(id, pages)
    }

    fn unplace(&mut self, id: DomainId) {
        self.memory.scrub(id);
    }

    fn charge_spawn(&mut self, id: DomainId) -> Result<(), SubstrateError> {
        // Registering a PAL costs one identity-recording launch; the
        // session is over before on_start runs.
        let image = self.fabric.table().get(id)?.spec.image.clone();
        let session = self
            .tpm
            .late_launch(&image)
            .map_err(|e| SubstrateError::Platform(e.to_string()))?;
        drop(session);
        self.session_active = false;
        self.clock += LATE_LAUNCH_COST;
        Ok(())
    }

    fn begin_invoke(&mut self, _caller: DomainId, target: DomainId) -> Result<(), SubstrateError> {
        // One session at a time: a PAL calling another PAL would need a
        // second concurrent late launch — Flicker cannot do that.
        if self.session_active {
            return Err(SubstrateError::Reentrancy(target));
        }
        let image = self.fabric.table().get(target)?.spec.image.clone();
        // Enter the session: reset + measure + run.
        {
            let session = self
                .tpm
                .late_launch(&image)
                .map_err(|_| SubstrateError::Reentrancy(target))?;
            drop(session); // identity recorded; handler runs "inside"
        }
        self.session_active = true;
        Ok(())
    }

    fn end_invoke(&mut self, _caller: DomainId, _target: DomainId) {
        self.session_active = false;
    }

    fn clock(&self) -> u64 {
        self.clock
    }

    fn advance_clock(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    fn read_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, SubstrateError> {
        self.fabric.table().get(domain)?;
        self.memory.read(domain, offset, len)
    }

    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        self.fabric.table().get(domain)?;
        self.memory.write(domain, offset, data)
    }

    fn seal_blob(
        &mut self,
        domain: DomainId,
        _measurement: &Digest,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        // Seal under the domain's dynamic-PCR identity: launch, seal, cap.
        let image = self.fabric.table().get(domain)?.spec.image.clone();
        let was_active = std::mem::replace(&mut self.session_active, false);
        let session = self
            .tpm
            .late_launch(&image)
            .map_err(|e| SubstrateError::Platform(e.to_string()))?;
        let blob = session.seal(data);
        drop(session);
        self.session_active = was_active;
        self.clock += LATE_LAUNCH_COST;
        // Serialize: selection is implicit (dynamic PCR); ship ciphertext.
        Ok(blob.ciphertext)
    }

    fn unseal_blob(
        &mut self,
        domain: DomainId,
        _measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        let image = self.fabric.table().get(domain)?.spec.image.clone();
        let was_active = std::mem::replace(&mut self.session_active, false);
        let session = self
            .tpm
            .late_launch(&image)
            .map_err(|e| SubstrateError::Platform(e.to_string()))?;
        let blob = lateral_tpm::SealedBlob {
            selection: vec![lateral_tpm::PCR_DYNAMIC],
            ciphertext: sealed.to_vec(),
        };
        let out = session
            .unseal(&blob)
            .map_err(|_| SubstrateError::CryptoFailure("unseal failed: wrong PAL identity".into()));
        drop(session);
        self.session_active = was_active;
        self.clock += LATE_LAUNCH_COST;
        out
    }

    fn attest_evidence(
        &mut self,
        _domain: DomainId,
        measurement: Digest,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        Ok(AttestationEvidence::sign(
            "flicker",
            self.tpm.platform_signing_key(),
            measurement,
            Digest::ZERO,
            report_data,
        ))
    }

    fn verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        Ok(self.tpm.attestation_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_substrate::attest::TrustPolicy;
    use lateral_substrate::cap::Badge;
    use lateral_substrate::conformance;
    use lateral_substrate::substrate::{DomainSpec, Substrate};
    use lateral_substrate::testkit::{Echo, Forwarder};

    #[test]
    fn conformance_suite_passes() {
        let mut f = Flicker::new("conf");
        let report = conformance::run(&mut f);
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
    fn pals_cannot_nest() {
        // A→B works on every other substrate (microkernel test proves
        // it); on Flicker the nested session is refused.
        let mut f = Flicker::new("nest");
        let b = f.spawn(DomainSpec::named("pal-b"), Box::new(Echo)).unwrap();
        let a = f
            .spawn(DomainSpec::named("pal-a"), Box::new(Forwarder))
            .unwrap();
        f.grant_channel(a, b, Badge(1)).unwrap();
        let driver = f
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let cap = f.grant_channel(driver, a, Badge(2)).unwrap();
        let err = f.invoke(driver, &cap, b"chain").unwrap_err();
        assert!(
            matches!(err, SubstrateError::ComponentFailure(ref m) if m.contains("forward")),
            "nested PAL call must fail: {err}"
        );
    }

    #[test]
    fn sealed_state_survives_reboot_same_pal_only() {
        let blob = {
            let mut f = Flicker::new("board-9");
            let pal = f
                .spawn(
                    DomainSpec::named("pw-checker").with_image(b"pal v1"),
                    Box::new(Echo),
                )
                .unwrap();
            f.seal(pal, b"password digest").unwrap()
        };
        // "Reboot": a fresh Flicker on the same board/TPM.
        let mut f = Flicker::new("board-9");
        let same = f
            .spawn(
                DomainSpec::named("pw-checker").with_image(b"pal v1"),
                Box::new(Echo),
            )
            .unwrap();
        assert_eq!(f.unseal(same, &blob).unwrap(), b"password digest");
        let other = f
            .spawn(
                DomainSpec::named("evil").with_image(b"pal v2"),
                Box::new(Echo),
            )
            .unwrap();
        assert!(f.unseal(other, &blob).is_err());
    }

    #[test]
    fn attestation_verifies_through_standard_policy() {
        let mut f = Flicker::new("attest");
        let pal = f
            .spawn(
                DomainSpec::named("pal").with_image(b"pal v1"),
                Box::new(Echo),
            )
            .unwrap();
        let ev = f.attest(pal, b"bind").unwrap();
        let mut policy = TrustPolicy::new();
        policy.trust_platform(f.platform_verifying_key().unwrap());
        policy.expect_measurement(f.measurement(pal).unwrap());
        assert!(policy.verify(&ev).is_ok());
        assert_eq!(ev.substrate, "flicker");
    }

    #[test]
    fn every_invoke_pays_the_drtm_price() {
        let mut f = Flicker::new("cost");
        let pal = f.spawn(DomainSpec::named("pal"), Box::new(Echo)).unwrap();
        let driver = f
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let cap = f.grant_channel(driver, pal, Badge(1)).unwrap();
        let t0 = f.now();
        f.invoke(driver, &cap, b"x").unwrap();
        assert!(f.now() - t0 >= LATE_LAUNCH_COST);
    }

    #[test]
    fn tpm_event_log_records_every_launch() {
        let mut f = Flicker::new("log");
        let pal = f.spawn(DomainSpec::named("pal"), Box::new(Echo)).unwrap();
        let driver = f
            .spawn(DomainSpec::named("driver"), Box::new(Echo))
            .unwrap();
        let cap = f.grant_channel(driver, pal, Badge(1)).unwrap();
        let before = f.tpm().event_log().len();
        f.invoke(driver, &cap, b"x").unwrap();
        assert!(f.tpm().event_log().len() > before);
        assert!(f.tpm().event_log().iter().any(|e| e.event == "late-launch"));
    }
}
