//! The simulated machine: memory, bus, cache, devices, fuses, clock.
//!
//! [`Machine`] wires the pieces together and exposes the two operations
//! everything else builds on: [`Machine::bus_read`] and
//! [`Machine::bus_write`], each checked against the [`crate::bus::policy`]
//! access-control matrix. Denied accesses are recorded in a log that the
//! attack experiments read out.

use lateral_crypto::chacha;
use lateral_crypto::Digest;

use crate::bootrom::BootRom;
use crate::bus::{policy, AccessKind, DeniedAccess, Visibility};
use crate::cache::{Cache, CacheConfig, CacheDomain, CacheOutcome};
use crate::clock::{Clock, CostModel};
use crate::device::{DeviceKind, DeviceRegistry};
use crate::fuse::FuseBank;
use crate::iommu::Iommu;
use crate::mem::{Frame, FrameOwner, PhysMem};
use crate::scratchpad::Scratchpad;
use crate::{DeviceId, HwError, Initiator, PhysAddr, PAGE_SIZE};

/// Builder for [`Machine`].
///
/// ```
/// use lateral_hw::machine::MachineBuilder;
///
/// let machine = MachineBuilder::new()
///     .name("smart-meter")
///     .frames(256)
///     .scratchpad_bytes(8192)
///     .build();
/// assert_eq!(machine.mem.frame_count(), 256);
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    name: String,
    frames: usize,
    scratchpad_bytes: usize,
    cache_config: CacheConfig,
    costs: CostModel,
    boot_rom: Option<BootRom>,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        MachineBuilder {
            name: "machine".to_string(),
            frames: 1024,
            scratchpad_bytes: 16 * 1024,
            cache_config: CacheConfig::default(),
            costs: CostModel::default(),
            boot_rom: None,
        }
    }
}

impl MachineBuilder {
    /// Starts a builder with defaults (1024 frames, 16 KiB scratchpad).
    pub fn new() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// Sets the machine name (appears in logs and attestation evidence).
    pub fn name(mut self, name: &str) -> MachineBuilder {
        self.name = name.to_string();
        self
    }

    /// Sets the number of physical frames.
    pub fn frames(mut self, frames: usize) -> MachineBuilder {
        self.frames = frames;
        self
    }

    /// Sets the scratchpad size in bytes.
    pub fn scratchpad_bytes(mut self, bytes: usize) -> MachineBuilder {
        self.scratchpad_bytes = bytes;
        self
    }

    /// Sets the cache geometry.
    pub fn cache(mut self, config: CacheConfig) -> MachineBuilder {
        self.cache_config = config;
        self
    }

    /// Sets the cycle-cost model.
    pub fn costs(mut self, costs: CostModel) -> MachineBuilder {
        self.costs = costs;
        self
    }

    /// Installs a boot ROM with a launch policy.
    pub fn boot_rom(mut self, rom: BootRom) -> MachineBuilder {
        self.boot_rom = Some(rom);
        self
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        // The memory-encryption-engine key is derived per machine; it
        // models the random key an MEE generates at reset.
        let mee_key = *Digest::of_parts(&[b"lateral.mee", self.name.as_bytes()]).as_bytes();
        Machine {
            name: self.name,
            mem: PhysMem::new(self.frames),
            iommu: Iommu::new(),
            cache: Cache::new(self.cache_config),
            clock: Clock::new(),
            costs: self.costs,
            fuses: FuseBank::new(),
            scratchpad: Scratchpad::new(self.scratchpad_bytes),
            devices: DeviceRegistry::new(),
            boot_rom: self.boot_rom,
            mee_key,
            denied_log: Vec::new(),
        }
    }
}

/// One simulated machine.
pub struct Machine {
    /// Machine name.
    pub name: String,
    /// Physical memory.
    pub mem: PhysMem,
    /// The IOMMU filtering device DMA.
    pub iommu: Iommu,
    /// The shared cache (covert-channel experiments).
    pub cache: Cache,
    /// Logical clock.
    pub clock: Clock,
    /// Cycle-cost model.
    pub costs: CostModel,
    /// Fused secrets.
    pub fuses: FuseBank,
    /// On-chip scratchpad.
    pub scratchpad: Scratchpad,
    /// Peripheral registry.
    pub devices: DeviceRegistry,
    /// Boot ROM, if installed.
    pub boot_rom: Option<BootRom>,
    mee_key: [u8; 32],
    denied_log: Vec<DeniedAccess>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Machine('{}', {} frames, t={})",
            self.name,
            self.mem.frame_count(),
            self.clock.now()
        )
    }
}

impl Machine {
    /// Encrypts/decrypts a byte view at absolute position — the memory
    /// encryption engine's keystream as seen by a bus probe.
    fn mee_xor(&self, addr: PhysAddr, data: &mut [u8]) {
        let nonce = [0u8; 12];
        for (i, b) in data.iter_mut().enumerate() {
            let pos = addr.0 + i as u64;
            let block = chacha::block(&self.mee_key, (pos / 64) as u32, &nonce);
            *b ^= block[(pos % 64) as usize];
        }
    }

    fn check_span(
        &mut self,
        initiator: Initiator,
        addr: PhysAddr,
        kind: AccessKind,
    ) -> Result<Visibility, HwError> {
        let owner = self.mem.owner_of(addr)?;
        let iommu_allows = match initiator {
            Initiator::Device(dev) => self.iommu.allows(dev, Frame(addr.frame())),
            _ => true,
        };
        match policy(initiator, owner, kind, addr, iommu_allows) {
            Ok(vis) => Ok(vis),
            Err(e) => {
                if let HwError::AccessDenied { reason, .. } = &e {
                    self.denied_log.push(DeniedAccess {
                        initiator,
                        addr,
                        kind,
                        reason: reason.clone(),
                    });
                }
                Err(e)
            }
        }
    }

    /// Refuses a range `[addr, addr+len)` whose end overflows or runs
    /// past physical memory, before anything is split or sized from it.
    fn check_range(&self, addr: PhysAddr, len: usize) -> Result<(), HwError> {
        let size = (self.mem.frame_count() * PAGE_SIZE) as u64;
        match addr.0.checked_add(len as u64) {
            Some(end) if end <= size => Ok(()),
            _ => Err(HwError::BadAddress(addr)),
        }
    }

    /// Splits `[addr, addr+len)` into per-frame spans; the range must
    /// have passed [`Machine::check_range`].
    fn spans(addr: PhysAddr, len: usize) -> Vec<(PhysAddr, usize)> {
        let mut out = Vec::new();
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let in_frame = PAGE_SIZE - cur.offset();
            let take = remaining.min(in_frame);
            out.push((cur, take));
            cur = cur.add(take as u64);
            remaining -= take;
        }
        out
    }

    /// Whether `initiator` is the integrity-protected owner of `owner`.
    fn is_protected_owner(initiator: Initiator, owner: FrameOwner) -> bool {
        matches!(
            (initiator, owner),
            (
                Initiator::Cpu {
                    enclave: Some(e),
                    ..
                },
                FrameOwner::Epc(o)
            ) if e == o
        ) || matches!((initiator, owner), (Initiator::Sep, FrameOwner::SepPrivate))
    }

    /// Reads `len` bytes at `addr` on behalf of `initiator`.
    ///
    /// # Errors
    ///
    /// * [`HwError::AccessDenied`] when the bus policy forbids the access
    ///   (also recorded in the denied-access log).
    /// * [`HwError::IntegrityViolation`] when an integrity-protected owner
    ///   reads a frame a physical probe has tampered with.
    /// * [`HwError::BadAddress`] for out-of-range addresses.
    pub fn bus_read(
        &mut self,
        initiator: Initiator,
        addr: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, HwError> {
        self.check_range(addr, len)?;
        let mut out = Vec::with_capacity(len);
        for (span_addr, span_len) in Self::spans(addr, len) {
            let vis = self.check_span(initiator, span_addr, AccessKind::Read)?;
            let owner = self.mem.owner_of(span_addr)?;
            if Self::is_protected_owner(initiator, owner) && self.mem.is_tampered(span_addr) {
                return Err(HwError::IntegrityViolation(span_addr));
            }
            let mut bytes = self.mem.raw_read(span_addr, span_len)?.to_vec();
            if vis == Visibility::Ciphertext {
                // The MEE: the probe observes only ciphertext.
                self.mee_xor(span_addr, &mut bytes);
            }
            out.extend_from_slice(&bytes);
        }
        self.clock
            .advance(self.costs.mem_access + self.costs.copy_cost(len));
        Ok(out)
    }

    /// Writes `bytes` at `addr` on behalf of `initiator`.
    ///
    /// A ciphertext-visibility write (physical probe into EPC/SEP memory)
    /// lands raw in DRAM and marks the frame tampered; the owner's next
    /// read fails its integrity check — the MEE MAC in real silicon.
    ///
    /// # Errors
    ///
    /// Same classes as [`Machine::bus_read`].
    pub fn bus_write(
        &mut self,
        initiator: Initiator,
        addr: PhysAddr,
        bytes: &[u8],
    ) -> Result<(), HwError> {
        self.check_range(addr, bytes.len())?;
        let mut offset = 0usize;
        for (span_addr, span_len) in Self::spans(addr, bytes.len()) {
            let vis = self.check_span(initiator, span_addr, AccessKind::Write)?;
            let chunk = &bytes[offset..offset + span_len];
            self.mem.raw_write(span_addr, chunk)?;
            if vis == Visibility::Ciphertext {
                self.mem.mark_tampered(span_addr);
            }
            offset += span_len;
        }
        self.clock
            .advance(self.costs.mem_access + self.costs.copy_cost(bytes.len()));
        Ok(())
    }

    /// Performs a cache access attributed to `domain`, advancing the clock
    /// by the hit/miss latency. Returns the outcome (used by the
    /// prime+probe covert channel).
    pub fn cache_access(&mut self, domain: CacheDomain, addr: u64) -> CacheOutcome {
        let outcome = self.cache.access(domain, addr);
        self.clock.advance(outcome.latency);
        outcome
    }

    /// Flushes the cache (partition-switch mitigation), advancing the
    /// clock by the flush cost.
    pub fn cache_flush(&mut self) {
        self.cache.flush();
        self.clock.advance(self.costs.cache_flush);
    }

    /// Registers a peripheral and returns its bus identity.
    pub fn register_device(&mut self, kind: DeviceKind, name: &str) -> DeviceId {
        self.devices.register(kind, name)
    }

    /// DMA read issued by `device` (goes through IOMMU + bus policy).
    ///
    /// # Errors
    ///
    /// Same classes as [`Machine::bus_read`].
    pub fn dma_read(
        &mut self,
        device: DeviceId,
        addr: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, HwError> {
        self.bus_read(Initiator::Device(device), addr, len)
    }

    /// DMA write issued by `device`.
    ///
    /// # Errors
    ///
    /// Same classes as [`Machine::bus_write`].
    pub fn dma_write(
        &mut self,
        device: DeviceId,
        addr: PhysAddr,
        bytes: &[u8],
    ) -> Result<(), HwError> {
        self.bus_write(Initiator::Device(device), addr, bytes)
    }

    /// The denied-access log (read by attack experiments).
    pub fn denied_log(&self) -> &[DeniedAccess] {
        &self.denied_log
    }

    /// Clears and returns the denied-access log.
    pub fn take_denied_log(&mut self) -> Vec<DeniedAccess> {
        std::mem::take(&mut self.denied_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnclaveId, World};

    fn machine() -> Machine {
        MachineBuilder::new().frames(16).build()
    }

    #[test]
    fn normal_world_roundtrip() {
        let mut m = machine();
        let f = m.mem.alloc(FrameOwner::Normal).unwrap();
        let cpu = Initiator::cpu(World::Normal);
        m.bus_write(cpu, f.base(), b"hello dram").unwrap();
        assert_eq!(m.bus_read(cpu, f.base(), 10).unwrap(), b"hello dram");
    }

    #[test]
    fn ranges_that_wrap_or_overrun_memory_are_bad_addresses() {
        let mut m = machine();
        let cpu = Initiator::cpu(World::Normal);
        let top = PhysAddr(u64::MAX - 2);
        assert_eq!(m.bus_read(cpu, top, 8), Err(HwError::BadAddress(top)));
        assert_eq!(
            m.bus_write(cpu, top, &[0xEE; 8]),
            Err(HwError::BadAddress(top))
        );
        assert_eq!(
            m.bus_read(cpu, PhysAddr(0), usize::MAX),
            Err(HwError::BadAddress(PhysAddr(0)))
        );
    }

    #[test]
    fn secure_frame_blocks_normal_world_and_logs() {
        let mut m = machine();
        let f = m.mem.alloc(FrameOwner::Secure).unwrap();
        let secure = Initiator::cpu(World::Secure);
        let normal = Initiator::cpu(World::Normal);
        m.bus_write(secure, f.base(), b"tz secret").unwrap();
        assert!(m.bus_read(normal, f.base(), 9).is_err());
        assert_eq!(m.denied_log().len(), 1);
        assert_eq!(m.denied_log()[0].initiator, normal);
    }

    #[test]
    fn probe_reads_trustzone_plaintext_but_epc_ciphertext() {
        let mut m = machine();
        let tz = m.mem.alloc(FrameOwner::Secure).unwrap();
        let epc = m.mem.alloc(FrameOwner::Epc(EnclaveId(1))).unwrap();
        m.bus_write(Initiator::cpu(World::Secure), tz.base(), b"tz-key")
            .unwrap();
        m.bus_write(Initiator::enclave(EnclaveId(1)), epc.base(), b"sgx-key")
            .unwrap();
        // Physical probe: TrustZone leaks, SGX does not.
        assert_eq!(
            m.bus_read(Initiator::Probe, tz.base(), 6).unwrap(),
            b"tz-key"
        );
        let leaked = m.bus_read(Initiator::Probe, epc.base(), 7).unwrap();
        assert_ne!(leaked, b"sgx-key");
    }

    #[test]
    fn probe_write_to_epc_detected_on_owner_read() {
        let mut m = machine();
        let epc = m.mem.alloc(FrameOwner::Epc(EnclaveId(2))).unwrap();
        let owner = Initiator::enclave(EnclaveId(2));
        m.bus_write(owner, epc.base(), b"enclave state").unwrap();
        m.bus_write(Initiator::Probe, epc.base(), b"corruption")
            .unwrap();
        assert!(matches!(
            m.bus_read(owner, epc.base(), 13),
            Err(HwError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn probe_write_to_secure_frame_is_silent() {
        // TrustZone has no integrity protection against physical attack.
        let mut m = machine();
        let tz = m.mem.alloc(FrameOwner::Secure).unwrap();
        let secure = Initiator::cpu(World::Secure);
        m.bus_write(secure, tz.base(), b"original").unwrap();
        m.bus_write(Initiator::Probe, tz.base(), b"tampered")
            .unwrap();
        assert_eq!(m.bus_read(secure, tz.base(), 8).unwrap(), b"tampered");
    }

    #[test]
    fn dma_gated_by_iommu() {
        let mut m = machine();
        let f = m.mem.alloc(FrameOwner::Normal).unwrap();
        let dev = m.register_device(DeviceKind::Nic, "eth0");
        // IOMMU off: DMA lands anywhere in normal memory.
        m.dma_write(dev, f.base(), b"packet").unwrap();
        // IOMMU on without grant: blocked.
        m.iommu.enable();
        assert!(m.dma_write(dev, f.base(), b"packet").is_err());
        // With a grant: allowed again.
        m.iommu.grant(dev, f);
        m.dma_write(dev, f.base(), b"packet").unwrap();
        assert_eq!(m.dma_read(dev, f.base(), 6).unwrap(), b"packet");
    }

    #[test]
    fn reads_spanning_frames_check_each_frame() {
        let mut m = machine();
        let f0 = m.mem.alloc(FrameOwner::Normal).unwrap();
        let f1 = m.mem.alloc(FrameOwner::Secure).unwrap();
        assert_eq!(f1.0, f0.0 + 1, "frames are adjacent");
        let normal = Initiator::cpu(World::Normal);
        let start = PhysAddr(f1.base().0 - 4);
        // Crossing from a normal frame into a secure frame must fail.
        assert!(m.bus_read(normal, start, 8).is_err());
    }

    #[test]
    fn clock_advances_on_bus_traffic() {
        let mut m = machine();
        let f = m.mem.alloc(FrameOwner::Normal).unwrap();
        let t0 = m.clock.now();
        m.bus_write(Initiator::cpu(World::Normal), f.base(), &[0u8; 1024])
            .unwrap();
        assert!(m.clock.now() > t0);
    }

    #[test]
    fn probe_ciphertext_view_is_stable_but_unintelligible() {
        let mut m = machine();
        let epc = m.mem.alloc(FrameOwner::Epc(EnclaveId(1))).unwrap();
        m.bus_write(Initiator::enclave(EnclaveId(1)), epc.base(), b"AAAA")
            .unwrap();
        let v1 = m.bus_read(Initiator::Probe, epc.base(), 4).unwrap();
        let v2 = m.bus_read(Initiator::Probe, epc.base(), 4).unwrap();
        assert_eq!(v1, v2, "deterministic ciphertext view");
        assert_ne!(v1, b"AAAA");
    }

    #[test]
    fn out_of_range_read_fails() {
        let mut m = machine();
        let end = PhysAddr((m.mem.frame_count() * PAGE_SIZE) as u64);
        assert!(m.bus_read(Initiator::cpu(World::Normal), end, 1).is_err());
    }
}
