//! Simulated hardware platform for the `lateral` trusted-component
//! ecosystem.
//!
//! The paper surveys isolation technologies that are all rooted in
//! *hardware we do not have*: ARM TrustZone's NS bit, Intel SGX's encrypted
//! EPC, Apple's SEP coprocessor, TPM chips, IOMMUs, fused keys, and boot
//! ROMs. This crate substitutes a deterministic software model that
//! preserves exactly the properties the paper's arguments depend on — the
//! *access-control matrix* between initiators and memory, the *visibility*
//! of data to a physical attacker, and the *timing interference* between
//! domains sharing a cache.
//!
//! Architecture:
//!
//! * [`mem`] — physical memory as tagged frames ([`mem::FrameOwner`]
//!   records which security domain owns each frame).
//! * [`bus`] — the single mediator for every access. Each access names an
//!   [`Initiator`] (CPU in some world / enclave, a DMA device, or a
//!   physical probe attached to the DRAM bus) and the bus enforces the
//!   rules real silicon would enforce.
//! * [`mmu`] — per-address-space page tables with read/write/execute
//!   rights; the MMU is policy-free and must be programmed by trusted
//!   software (the paper's point that an MMU-based substrate includes that
//!   software in the TCB).
//! * [`iommu`] — device-side translation and filtering, defending against
//!   malicious DMA.
//! * [`cache`] — a set-associative cache shared between domains, the
//!   vehicle for the prime+probe covert channel experiment (E6).
//! * [`fuse`] — per-device fused secrets readable only from the secure
//!   world (TrustZone's per-device AES key in the smart-meter example).
//! * [`scratchpad`] — on-chip memory invisible to the bus probe.
//! * [`bootrom`] — the immutable trust anchor implementing secure boot,
//!   authenticated boot, and late launch policies.
//! * [`device`] — DMA-capable peripherals (NIC, storage) driving the bus.
//! * [`clock`] — the logical clock and the cycle-cost model used by every
//!   latency experiment.
//! * [`machine`] — the aggregate: one simulated machine.
//!
//! # Example
//!
//! ```
//! use lateral_hw::machine::MachineBuilder;
//! use lateral_hw::{Initiator, World};
//!
//! let mut machine = MachineBuilder::new().frames(64).build();
//! let frame = machine.mem.alloc(lateral_hw::mem::FrameOwner::Secure).unwrap();
//! let addr = frame.base();
//!
//! // The secure world can write...
//! machine.bus_write(Initiator::cpu(World::Secure), addr, b"key material").unwrap();
//! // ...the normal world cannot read it back.
//! assert!(machine.bus_read(Initiator::cpu(World::Normal), addr, 12).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootrom;
pub mod bus;
pub mod cache;
pub mod clock;
pub mod device;
pub mod fuse;
pub mod iommu;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod scratchpad;

use std::error::Error;
use std::fmt;

/// Size of a physical frame / virtual page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Splits the `len` bytes from address `start` at page boundaries,
/// yielding each piece's start address and length in address order, as
/// the bus and the MMU walk a range one page at a time. A range that
/// runs past the top of the address space wraps to address 0 rather
/// than overflowing. The bus refuses such a range before splitting it,
/// and a domain's memory never maps the top page, so its walk faults
/// there before reaching the wrapped piece.
pub(crate) fn page_pieces(start: u64, len: usize) -> impl Iterator<Item = (u64, usize)> {
    let mut cur = start;
    let mut remaining = len;
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let take = remaining.min(PAGE_SIZE - (cur % PAGE_SIZE as u64) as usize);
        let piece = (cur, take);
        cur = cur.wrapping_add(take as u64);
        remaining -= take;
        Some(piece)
    })
}

/// A physical address in simulated DRAM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The frame number containing this address.
    pub fn frame(&self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// The offset within the containing frame.
    pub fn offset(&self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// Address advanced by `n` bytes.
    #[must_use]
    pub fn add(&self, n: u64) -> PhysAddr {
        PhysAddr(self.0 + n)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// A virtual address within some address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page number containing this address.
    pub fn page(&self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// The offset within the containing page.
    pub fn offset(&self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// TrustZone-style execution world of a CPU access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum World {
    /// The untrusted normal world (legacy OS and applications).
    Normal,
    /// The secure world (trusted components, secure-world OS).
    Secure,
}

/// Identifies an SGX-style enclave.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EnclaveId(pub u32);

/// Identifies a DMA-capable device on the bus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DeviceId(pub u32);

/// The originator of a bus access — the identity the hardware checks.
///
/// This is the crux of the simulation: real isolation hardware
/// distinguishes accesses by *who issues them* (TrustZone conveys an NS
/// bit with each request; SGX tags accesses with the executing enclave;
/// the IOMMU sees device ids). All checks in [`bus`] dispatch on this
/// type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Initiator {
    /// An access issued by the main CPU.
    Cpu {
        /// TrustZone world of the executing context.
        world: World,
        /// Enclave the CPU is currently executing in, if any.
        enclave: Option<EnclaveId>,
    },
    /// The security coprocessor (SEP) — a separate CPU with its own bus
    /// port and inline memory encryption.
    Sep,
    /// A DMA access from a peripheral device.
    Device(DeviceId),
    /// A physical attacker probing the DRAM bus (cold boot, interposer).
    Probe,
}

impl Initiator {
    /// Convenience constructor for a plain CPU access in `world`, outside
    /// any enclave.
    pub fn cpu(world: World) -> Initiator {
        Initiator::Cpu {
            world,
            enclave: None,
        }
    }

    /// Convenience constructor for CPU execution inside an enclave
    /// (enclaves always execute in the normal world, as on real SGX).
    pub fn enclave(id: EnclaveId) -> Initiator {
        Initiator::Cpu {
            world: World::Normal,
            enclave: Some(id),
        }
    }
}

impl fmt::Display for Initiator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Initiator::Cpu {
                world: World::Normal,
                enclave: None,
            } => write!(f, "cpu(normal)"),
            Initiator::Cpu {
                world: World::Secure,
                enclave: None,
            } => write!(f, "cpu(secure)"),
            Initiator::Cpu {
                enclave: Some(e), ..
            } => write!(f, "cpu(enclave {})", e.0),
            Initiator::Sep => write!(f, "sep"),
            Initiator::Device(d) => write!(f, "device {}", d.0),
            Initiator::Probe => write!(f, "probe"),
        }
    }
}

/// Why an access was refused or failed.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum HwError {
    /// The access violated an isolation rule; contains a human-readable
    /// reason used by the experiment reports.
    AccessDenied {
        /// Who attempted the access.
        initiator: Initiator,
        /// Target address.
        addr: PhysAddr,
        /// Which rule fired.
        reason: String,
    },
    /// Address outside of installed physical memory.
    BadAddress(PhysAddr),
    /// Virtual address had no mapping or insufficient rights.
    PageFault {
        /// Faulting virtual address.
        addr: VirtAddr,
        /// Description of the missing right or mapping.
        reason: String,
    },
    /// Integrity check on protected memory failed (physical tampering of
    /// EPC/SEP memory detected on reload).
    IntegrityViolation(PhysAddr),
    /// Physical memory is exhausted.
    OutOfFrames,
    /// A fuse operation was rejected (wrong world, already locked).
    FuseDenied(String),
    /// Boot failed (bad signature under secure boot, malformed chain).
    BootFailure(String),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::AccessDenied {
                initiator,
                addr,
                reason,
            } => write!(f, "access denied: {initiator} at {addr}: {reason}"),
            HwError::BadAddress(a) => write!(f, "bad physical address {a}"),
            HwError::PageFault { addr, reason } => write!(f, "page fault at {addr}: {reason}"),
            HwError::IntegrityViolation(a) => write!(f, "integrity violation at {a}"),
            HwError::OutOfFrames => write!(f, "out of physical frames"),
            HwError::FuseDenied(r) => write!(f, "fuse access denied: {r}"),
            HwError::BootFailure(r) => write!(f, "boot failure: {r}"),
        }
    }
}

impl Error for HwError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_pieces_split_at_page_boundaries() {
        let pieces: Vec<_> = page_pieces(PAGE_SIZE as u64 - 10, 20 + PAGE_SIZE).collect();
        assert_eq!(
            pieces,
            [
                (PAGE_SIZE as u64 - 10, 10),
                (PAGE_SIZE as u64, PAGE_SIZE),
                (2 * PAGE_SIZE as u64, 10)
            ]
        );
        assert_eq!(page_pieces(7, 0).count(), 0);
        // A range that ends at the top of the address space stops there;
        // one that runs past it wraps instead of overflowing.
        let top = u64::MAX - 9;
        assert_eq!(page_pieces(top, 10).collect::<Vec<_>>(), [(top, 10)]);
        assert_eq!(
            page_pieces(top, 12).collect::<Vec<_>>(),
            [(top, 10), (0, 2)]
        );
    }

    #[test]
    fn addresses_split_into_frame_and_offset() {
        let a = PhysAddr(3 * PAGE_SIZE as u64 + 17);
        assert_eq!(a.frame(), 3);
        assert_eq!(a.offset(), 17);
        let v = VirtAddr(5 * PAGE_SIZE as u64 + 40);
        assert_eq!(v.page(), 5);
        assert_eq!(v.offset(), 40);
    }

    #[test]
    fn initiator_display_is_informative() {
        assert_eq!(Initiator::cpu(World::Normal).to_string(), "cpu(normal)");
        assert_eq!(
            Initiator::enclave(EnclaveId(3)).to_string(),
            "cpu(enclave 3)"
        );
        assert_eq!(Initiator::Probe.to_string(), "probe");
    }

    #[test]
    fn errors_render() {
        let e = HwError::AccessDenied {
            initiator: Initiator::Probe,
            addr: PhysAddr(0x1000),
            reason: "scratchpad is on-chip".into(),
        };
        assert!(e.to_string().contains("probe"));
    }
}
