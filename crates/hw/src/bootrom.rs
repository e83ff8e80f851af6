//! The boot ROM: the machine's immutable trust anchor.
//!
//! §II-D "Secure Launch": *"a trust anchor that cannot be altered is needed
//! in the machine's boot process. The anchor must enforce a launch policy."*
//! Two policies appear in the paper:
//!
//! * **Secure booting** — the ROM checks a digital signature on every boot
//!   stage and *refuses to run* improperly signed software.
//! * **Authenticated booting** — the ROM (acting as the TPM's Core Root of
//!   Trust for Measurement) measures each stage into a cryptographic boot
//!   log without rejecting anything, preserving the freedom to run
//!   arbitrary code on open platforms.
//!
//! The difference "is simply caused by different launch policies
//! implemented by the trust anchor" — hence one [`BootRom`] type
//! parameterized by [`LaunchPolicy`].

use lateral_crypto::sign::{Signature, VerifyingKey};
use lateral_crypto::Digest;

use crate::HwError;

/// One stage in the boot chain (boot loader, kernel, initial services…).
#[derive(Clone, Debug)]
pub struct BootStage {
    /// Human-readable stage name (recorded in the boot log).
    pub name: String,
    /// The stage's code image.
    pub image: Vec<u8>,
    /// Vendor signature over the image digest, if the stage is signed.
    pub signature: Option<Signature>,
}

impl BootStage {
    /// Creates an unsigned boot stage.
    pub fn new(name: &str, image: &[u8]) -> BootStage {
        BootStage {
            name: name.to_string(),
            image: image.to_vec(),
            signature: None,
        }
    }

    /// Creates a stage signed by the vendor's signing key.
    pub fn signed(name: &str, image: &[u8], key: &lateral_crypto::sign::SigningKey) -> BootStage {
        let digest = Digest::of(image);
        BootStage {
            name: name.to_string(),
            image: image.to_vec(),
            signature: Some(key.sign(digest.as_bytes())),
        }
    }

    /// The measurement (code identity) of this stage.
    pub fn measurement(&self) -> Digest {
        Digest::of(&self.image)
    }
}

/// The launch policy burned into the ROM.
#[derive(Clone, Debug, Default)]
pub struct LaunchPolicy {
    /// When set, every stage must carry a valid signature under this key
    /// (secure booting).
    pub verify: Option<VerifyingKey>,
    /// When true, every stage is measured into the [`Measurer`]
    /// (authenticated booting).
    pub measure: bool,
}

impl LaunchPolicy {
    /// Secure booting: verify signatures, no measurement.
    pub fn secure_boot(vendor_key: VerifyingKey) -> LaunchPolicy {
        LaunchPolicy {
            verify: Some(vendor_key),
            measure: false,
        }
    }

    /// Authenticated booting: measure everything, reject nothing.
    pub fn authenticated_boot() -> LaunchPolicy {
        LaunchPolicy {
            verify: None,
            measure: true,
        }
    }

    /// No policy: legacy open boot (measured nothing, checked nothing).
    pub fn open() -> LaunchPolicy {
        LaunchPolicy::default()
    }
}

/// Receiver of boot measurements — implemented by the TPM crate's PCR
/// bank and by the in-crate [`BootLog`].
pub trait Measurer {
    /// Records that a stage with `digest` named `name` was launched.
    fn measure(&mut self, name: &str, digest: Digest);
}

/// A minimal in-memory measurement log (for machines without a TPM).
#[derive(Clone, Debug, Default)]
pub struct BootLog {
    /// Recorded (stage name, digest) pairs in launch order.
    pub entries: Vec<(String, Digest)>,
}

impl Measurer for BootLog {
    fn measure(&mut self, name: &str, digest: Digest) {
        self.entries.push((name.to_string(), digest));
    }
}

/// Report of a completed boot.
#[derive(Clone, Debug)]
pub struct BootReport {
    /// Each booted stage: name, measurement, whether its signature was
    /// verified (only meaningful under secure boot).
    pub stages: Vec<(String, Digest, bool)>,
}

impl BootReport {
    /// The combined identity of the whole booted stack: an extend-chain
    /// over all stage measurements (order-sensitive, like a PCR).
    pub fn stack_identity(&self) -> Digest {
        let mut acc = Digest::ZERO;
        for (_, d, _) in &self.stages {
            acc = acc.extend(d.as_bytes());
        }
        acc
    }
}

/// The immutable boot ROM.
#[derive(Clone, Debug)]
pub struct BootRom {
    policy: LaunchPolicy,
}

impl BootRom {
    /// Creates a ROM with the given policy. After manufacture the policy
    /// cannot change — there is deliberately no setter.
    pub fn new(policy: LaunchPolicy) -> BootRom {
        BootRom { policy }
    }

    /// The burned-in policy.
    pub fn policy(&self) -> &LaunchPolicy {
        &self.policy
    }

    /// Runs the boot chain under the launch policy.
    ///
    /// # Errors
    ///
    /// Under secure boot, returns [`HwError::BootFailure`] at the first
    /// stage with a missing or invalid signature; nothing after that stage
    /// runs ("the machine will refuse to run improperly signed software").
    pub fn boot(
        &self,
        chain: &[BootStage],
        measurer: &mut dyn Measurer,
    ) -> Result<BootReport, HwError> {
        let mut stages = Vec::with_capacity(chain.len());
        for stage in chain {
            let digest = stage.measurement();
            let verified = if let Some(key) = &self.policy.verify {
                match &stage.signature {
                    Some(sig) => {
                        key.verify(digest.as_bytes(), sig).map_err(|_| {
                            HwError::BootFailure(format!(
                                "stage '{}' has an invalid signature",
                                stage.name
                            ))
                        })?;
                        true
                    }
                    None => {
                        return Err(HwError::BootFailure(format!(
                            "stage '{}' is unsigned under secure boot",
                            stage.name
                        )))
                    }
                }
            } else {
                false
            };
            if self.policy.measure {
                measurer.measure(&stage.name, digest);
            }
            stages.push((stage.name.clone(), digest, verified));
        }
        Ok(BootReport { stages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_crypto::rng::Drbg;
    use lateral_crypto::sign::SigningKey;

    fn vendor() -> SigningKey {
        SigningKey::from_seed(b"boot vendor")
    }

    fn chain_signed() -> Vec<BootStage> {
        let v = vendor();
        vec![
            BootStage::signed("bootloader", b"bootloader v1", &v),
            BootStage::signed("kernel", b"kernel v1", &v),
        ]
    }

    #[test]
    fn secure_boot_accepts_signed_chain() {
        let rom = BootRom::new(LaunchPolicy::secure_boot(vendor().verifying_key()));
        let mut log = BootLog::default();
        let report = rom.boot(&chain_signed(), &mut log).unwrap();
        assert_eq!(report.stages.len(), 2);
        assert!(report.stages.iter().all(|(_, _, v)| *v));
        assert!(log.entries.is_empty(), "secure boot does not measure");
    }

    #[test]
    fn secure_boot_rejects_unsigned_stage() {
        let rom = BootRom::new(LaunchPolicy::secure_boot(vendor().verifying_key()));
        let mut chain = chain_signed();
        chain.push(BootStage::new("rootkit", b"evil"));
        let mut log = BootLog::default();
        assert!(matches!(
            rom.boot(&chain, &mut log),
            Err(HwError::BootFailure(_))
        ));
    }

    #[test]
    fn secure_boot_rejects_tampered_image() {
        let rom = BootRom::new(LaunchPolicy::secure_boot(vendor().verifying_key()));
        let mut chain = chain_signed();
        chain[1].image = b"kernel v1 with implant".to_vec();
        let mut log = BootLog::default();
        assert!(rom.boot(&chain, &mut log).is_err());
    }

    #[test]
    fn secure_boot_rejects_wrong_vendor() {
        let mut rng = Drbg::from_seed(b"other vendor");
        let other = SigningKey::generate(&mut rng);
        let rom = BootRom::new(LaunchPolicy::secure_boot(other.verifying_key()));
        let mut log = BootLog::default();
        assert!(rom.boot(&chain_signed(), &mut log).is_err());
    }

    #[test]
    fn authenticated_boot_measures_but_never_rejects() {
        let rom = BootRom::new(LaunchPolicy::authenticated_boot());
        let chain = vec![
            BootStage::new("bootloader", b"any code"),
            BootStage::new("custom-os", b"hobby kernel"),
        ];
        let mut log = BootLog::default();
        let report = rom.boot(&chain, &mut log).unwrap();
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.entries[0].1, Digest::of(b"any code"));
        assert!(report.stages.iter().all(|(_, _, v)| !*v));
    }

    #[test]
    fn stack_identity_is_order_sensitive() {
        let rom = BootRom::new(LaunchPolicy::authenticated_boot());
        let a = BootStage::new("a", b"aaa");
        let b = BootStage::new("b", b"bbb");
        let mut l1 = BootLog::default();
        let mut l2 = BootLog::default();
        let r1 = rom.boot(&[a.clone(), b.clone()], &mut l1).unwrap();
        let r2 = rom.boot(&[b, a], &mut l2).unwrap();
        assert_ne!(r1.stack_identity(), r2.stack_identity());
    }

    #[test]
    fn open_boot_neither_measures_nor_verifies() {
        let rom = BootRom::new(LaunchPolicy::open());
        let mut log = BootLog::default();
        let report = rom
            .boot(&[BootStage::new("anything", b"whatever")], &mut log)
            .unwrap();
        assert!(log.entries.is_empty());
        assert_eq!(report.stages.len(), 1);
    }
}
