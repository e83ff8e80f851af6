//! Pure software isolation: the Rust type system as the substrate.
//!
//! §II-B "Pure Software Isolation": *"Components can also be isolated
//! purely by constructing them using type-safe languages … The compiler of
//! course must be trusted to enforce these rules and is therefore part of
//! the TCB."* This backend colocates all domains in one heap; the only
//! walls are Rust's ownership rules (each domain's memory is a separate
//! `Vec<u8>` no other domain can name). Consequently its profile defends
//! only against [`AttackerModel::RemoteSoftware`] and — per the paper's
//! observation that "secure boot or attestation require hardware support
//! anyway" — it reports attestation as unsupported.
//!
//! Besides being paper-faithful, this substrate is the fast reference
//! implementation used by unit tests throughout the workspace, and the
//! reference [`BackendPolicy`]: all mechanism lives in [`crate::fabric`];
//! this file contributes only heap placement, the trivial cost model and
//! the profile it hands its fabric, and HKDF-based sealing.
//!
//! [`AttackerModel::RemoteSoftware`]: crate::attacker::AttackerModel::RemoteSoftware

use lateral_crypto::aead::Aead;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::VerifyingKey;
use lateral_crypto::Digest;

use crate::attacker::{models, AttackerModel, Features, SubstrateProfile};
use crate::attest::AttestationEvidence;
use crate::fabric::{
    BackendPolicy, CrossingCostModel, CrossingKind, DomainKind, Fabric, HeapMemory, InvokeKindRule,
};
use crate::{DomainId, SubstrateError};

/// The pure-software substrate.
pub struct SoftwareSubstrate {
    fabric: Fabric,
    memory: HeapMemory,
    seal_secret: [u8; 32],
    clock: u64,
}

impl std::fmt::Debug for SoftwareSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SoftwareSubstrate({} domains)",
            self.fabric.table().len()
        )
    }
}

impl SoftwareSubstrate {
    /// Creates a software substrate; `seed` makes runs reproducible.
    pub fn new(seed: &str) -> SoftwareSubstrate {
        let mut rng = Drbg::from_seed(seed.as_bytes());
        let seal_secret = rng.gen_key();
        let profile = SubstrateProfile {
            name: "software".to_string(),
            defends: models(&[AttackerModel::RemoteSoftware]),
            features: Features {
                spatial_isolation: true,
                temporal_isolation: false,
                memory_encryption: false,
                trust_anchor: false,
                attestation: false,
                sealed_storage: true,
                max_trusted_domains: None,
                hosts_legacy_os: false,
            },
            // The TCB is the compiler; rustc is on the order of
            // millions of lines.
            tcb_loc: 1_500_000,
        };
        // Every crossing is a dynamic dispatch: 5 cycles + bytes/64.
        let cost_model =
            CrossingCostModel::uniform(5, 1, 64, InvokeKindRule::Always(CrossingKind::Local));
        SoftwareSubstrate {
            fabric: Fabric::new(cost_model, profile, rng),
            memory: HeapMemory::default(),
            seal_secret,
            clock: 0,
        }
    }

    fn seal_key(&self, measurement: &Digest) -> [u8; 32] {
        lateral_crypto::hmac::hkdf(
            b"lateral.software.seal",
            &self.seal_secret,
            measurement.as_bytes(),
        )
    }
}

impl BackendPolicy for SoftwareSubstrate {
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

    fn charge_spawn(&mut self, _id: DomainId) -> Result<(), SubstrateError> {
        self.clock += 50; // a spawn is cheap here: an allocation
        Ok(())
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
        let bytes = self.memory.read(domain, offset, len)?;
        self.clock += 1;
        Ok(bytes)
    }

    fn write_mem(
        &mut self,
        domain: DomainId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SubstrateError> {
        self.fabric.table().get(domain)?;
        self.memory.write(domain, offset, data)?;
        self.clock += 1;
        Ok(())
    }

    fn seal_blob(
        &mut self,
        _domain: DomainId,
        measurement: &Digest,
        data: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        Ok(Aead::new(&self.seal_key(measurement)).seal(0, b"software.seal", data))
    }

    fn unseal_blob(
        &mut self,
        _domain: DomainId,
        measurement: &Digest,
        sealed: &[u8],
    ) -> Result<Vec<u8>, SubstrateError> {
        Aead::new(&self.seal_key(measurement))
            .open(0, b"software.seal", sealed)
            .map_err(|_| {
                SubstrateError::CryptoFailure(
                    "unseal failed: wrong identity or tampered blob".into(),
                )
            })
    }

    fn attest_evidence(
        &mut self,
        _domain: DomainId,
        _measurement: Digest,
        _report_data: &[u8],
    ) -> Result<AttestationEvidence, SubstrateError> {
        Err(SubstrateError::Unsupported(
            "software isolation has no hardware secret; attestation requires hardware (§II-B)"
                .into(),
        ))
    }

    fn verifying_key(&self) -> Result<VerifyingKey, SubstrateError> {
        Err(SubstrateError::Unsupported(
            "software isolation cannot attest".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::{Badge, ChannelCap};
    use crate::component::{Component, ComponentError, FnComponent, Invocation};
    use crate::substrate::{DomainContext, DomainSpec, Substrate};

    fn echo() -> Box<dyn Component> {
        Box::new(FnComponent::new("echo", |_ctx, inv: Invocation<'_>| {
            Ok(inv.data.to_vec())
        }))
    }

    #[test]
    fn spawn_grant_invoke() {
        let mut s = SoftwareSubstrate::new("t1");
        let a = s.spawn(DomainSpec::named("a"), echo()).unwrap();
        let b = s.spawn(DomainSpec::named("b"), echo()).unwrap();
        let cap = s.grant_channel(a, b, Badge(9)).unwrap();
        assert_eq!(s.invoke(a, &cap, b"ping").unwrap(), b"ping");
    }

    #[test]
    fn pola_no_channel_no_communication() {
        let mut s = SoftwareSubstrate::new("t2");
        let a = s.spawn(DomainSpec::named("a"), echo()).unwrap();
        let b = s.spawn(DomainSpec::named("b"), echo()).unwrap();
        // b was never granted a channel to a; forging a cap fails.
        let forged = ChannelCap {
            owner: b,
            slot: 0,
            nonce: 1,
        };
        assert!(s.invoke(b, &forged, b"x").is_err());
        let _ = a;
    }

    #[test]
    fn badge_is_delivered() {
        let mut s = SoftwareSubstrate::new("t3");
        let server = s
            .spawn(
                DomainSpec::named("server"),
                Box::new(FnComponent::new("badge", |_ctx, inv: Invocation<'_>| {
                    Ok(inv.badge.0.to_le_bytes().to_vec())
                })),
            )
            .unwrap();
        let client = s.spawn(DomainSpec::named("client"), echo()).unwrap();
        let cap = s.grant_channel(client, server, Badge(0xAB)).unwrap();
        let reply = s.invoke(client, &cap, b"").unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 0xAB);
    }

    #[test]
    fn memory_is_domain_private() {
        let mut s = SoftwareSubstrate::new("t4");
        let a = s.spawn(DomainSpec::named("a"), echo()).unwrap();
        let b = s.spawn(DomainSpec::named("b"), echo()).unwrap();
        s.mem_write(a, 0, b"private to a").unwrap();
        assert_eq!(s.mem_read(b, 0, 12).unwrap(), vec![0u8; 12]);
    }

    #[test]
    fn seal_binds_to_measurement() {
        let mut s = SoftwareSubstrate::new("t5");
        let a = s
            .spawn(DomainSpec::named("a").with_image(b"img-a"), echo())
            .unwrap();
        let b = s
            .spawn(DomainSpec::named("b").with_image(b"img-b"), echo())
            .unwrap();
        let twin = s
            .spawn(DomainSpec::named("twin").with_image(b"img-a"), echo())
            .unwrap();
        let sealed = s.seal(a, b"secret").unwrap();
        assert!(s.unseal(b, &sealed).is_err(), "different identity fails");
        assert_eq!(
            s.unseal(twin, &sealed).unwrap(),
            b"secret",
            "same image unseals"
        );
    }

    #[test]
    fn attestation_is_unsupported() {
        let mut s = SoftwareSubstrate::new("t6");
        let a = s.spawn(DomainSpec::named("a"), echo()).unwrap();
        assert!(matches!(
            s.attest(a, b""),
            Err(SubstrateError::Unsupported(_))
        ));
    }

    #[test]
    fn nested_calls_work_but_reentry_fails() {
        let mut s = SoftwareSubstrate::new("t7");
        let c = s.spawn(DomainSpec::named("c"), echo()).unwrap();
        // b forwards to c using a cap we grant after spawn via mem: easier —
        // b is spawned with a closure capturing nothing; we use a two-step
        // protocol where the test drives the chain.
        let b = s.spawn(DomainSpec::named("b"), echo()).unwrap();
        let a_to_b = {
            let a = s
                .spawn(
                    DomainSpec::named("a"),
                    Box::new(FnComponent::new("a", |_ctx, inv: Invocation<'_>| {
                        Ok(inv.data.to_vec())
                    })),
                )
                .unwrap();
            s.grant_channel(a, b, Badge(1)).unwrap()
        };
        let _ = c;
        assert_eq!(s.invoke(a_to_b.owner, &a_to_b, b"hop").unwrap(), b"hop");
    }

    #[test]
    fn self_call_is_reentrancy_error() {
        let mut s = SoftwareSubstrate::new("t8");
        // A component that calls the first cap it is told about — targeting
        // itself.
        struct SelfCaller {
            cap: Option<ChannelCap>,
        }
        impl Component for SelfCaller {
            fn label(&self) -> &str {
                "self-caller"
            }
            fn on_call(
                &mut self,
                ctx: &mut dyn DomainContext,
                inv: Invocation<'_>,
            ) -> Result<Vec<u8>, ComponentError> {
                if inv.data == b"install" {
                    // Receive the cap out of band via mem (set by test).
                    return Ok(Vec::new());
                }
                if let Some(cap) = self.cap {
                    // Recursive self-call must be rejected by the substrate.
                    match ctx.call(&cap, b"again") {
                        Err(SubstrateError::Reentrancy(_)) => Ok(b"blocked".to_vec()),
                        other => Err(ComponentError::new(format!(
                            "expected reentrancy error, got {other:?}"
                        ))),
                    }
                } else {
                    Ok(Vec::new())
                }
            }
        }
        let a = s
            .spawn(DomainSpec::named("a"), Box::new(SelfCaller { cap: None }))
            .unwrap();
        let cap = s.grant_channel(a, a, Badge(1)).unwrap();
        // Reach in to give the component its self-cap.
        // (Test-only plumbing: replace the component.)
        let driver = s.spawn(DomainSpec::named("driver"), echo()).unwrap();
        let driver_cap = s.grant_channel(driver, a, Badge(2)).unwrap();
        {
            let rec = s.fabric.table_mut().get_mut(a).unwrap();
            rec.component = Some(Box::new(SelfCaller { cap: Some(cap) }));
        }
        assert_eq!(s.invoke(driver, &driver_cap, b"go").unwrap(), b"blocked");
        // The failed self-call was counted as a reentrancy fault.
        assert_eq!(s.fabric.stats().total_reentrancy_faults(), 1);
    }

    #[test]
    fn destroy_scrubs_and_revokes() {
        let mut s = SoftwareSubstrate::new("t9");
        let a = s.spawn(DomainSpec::named("a"), echo()).unwrap();
        let b = s.spawn(DomainSpec::named("b"), echo()).unwrap();
        let cap = s.grant_channel(a, b, Badge(1)).unwrap();
        s.destroy(b).unwrap();
        assert!(s.invoke(a, &cap, b"x").is_err());
        assert!(s.measurement(b).is_err());
    }

    #[test]
    fn failing_on_start_aborts_spawn() {
        let mut s = SoftwareSubstrate::new("t10");
        struct Bad;
        impl Component for Bad {
            fn label(&self) -> &str {
                "bad"
            }
            fn on_start(&mut self, _ctx: &mut dyn DomainContext) -> Result<(), ComponentError> {
                Err(ComponentError::new("init failed"))
            }
            fn on_call(
                &mut self,
                _ctx: &mut dyn DomainContext,
                _inv: Invocation<'_>,
            ) -> Result<Vec<u8>, ComponentError> {
                Ok(Vec::new())
            }
        }
        assert!(s.spawn(DomainSpec::named("bad"), Box::new(Bad)).is_err());
    }

    #[test]
    fn trace_and_stats_observe_invocations() {
        let mut s = SoftwareSubstrate::new("t11");
        let a = s.spawn(DomainSpec::named("a"), echo()).unwrap();
        let b = s.spawn(DomainSpec::named("b"), echo()).unwrap();
        let cap = s.grant_channel(a, b, Badge(4)).unwrap();
        s.invoke(a, &cap, b"ping").unwrap();
        s.invoke(a, &cap, b"pong!").unwrap();
        let fab = &s.fabric;
        assert_eq!(fab.events_recorded(), 2);
        let events: Vec<_> = fab.trace().collect();
        assert_eq!(events[0].caller, a);
        assert_eq!(events[0].callee, b);
        assert_eq!(events[0].badge, Badge(4));
        assert_eq!(events[0].bytes, 4);
        assert_eq!(events[0].crossing, CrossingKind::Local);
        let stats = fab.stats();
        assert_eq!(stats.total_invocations(), 2);
        assert_eq!(stats.total_bytes(), (4 + 4) + (5 + 5));
    }

    #[test]
    fn identical_runs_yield_identical_trace_bytes() {
        let run = || {
            let mut s = SoftwareSubstrate::new("trace det");
            let a = s.spawn(DomainSpec::named("a"), echo()).unwrap();
            let b = s.spawn(DomainSpec::named("b"), echo()).unwrap();
            let cap = s.grant_channel(a, b, Badge(1)).unwrap();
            for i in 0..10u8 {
                s.invoke(a, &cap, &vec![i; i as usize]).unwrap();
            }
            s.fabric.trace_bytes()
        };
        assert_eq!(run(), run());
    }
}
