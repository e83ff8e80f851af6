//! Physical memory: frames tagged with a security owner.
//!
//! Every frame of simulated DRAM carries a [`FrameOwner`] tag. The tag is
//! the hardware ground truth that the [`crate::bus`] checks on every
//! access — it models TrustZone's per-region NS configuration (TZASC),
//! SGX's EPC ownership, and the SEP's private carve-out.

use crate::{EnclaveId, HwError, PhysAddr, PAGE_SIZE};

/// Security owner of a physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameOwner {
    /// Unallocated.
    Free,
    /// Ordinary DRAM visible to the normal world.
    Normal,
    /// TrustZone secure-world memory (blocked for normal-world CPU and all
    /// devices; *visible to a physical probe* — TrustZone does not encrypt).
    Secure,
    /// SGX-style enclave page cache frame owned by one enclave. The memory
    /// encryption engine makes non-owner reads return ciphertext.
    Epc(EnclaveId),
    /// Private memory of the security coprocessor, inline-encrypted.
    SepPrivate,
}

/// A handle to one allocated physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Frame(pub u64);

impl Frame {
    /// Physical base address of the frame.
    pub fn base(&self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE as u64)
    }
}

struct FrameState {
    owner: FrameOwner,
    /// Set when a physical probe wrote to an integrity-protected frame;
    /// the next owner access detects the violation, modeling the MAC
    /// check of SGX's memory encryption engine.
    tampered: bool,
}

/// All physical memory of one machine.
pub struct PhysMem {
    data: Vec<u8>,
    frames: Vec<FrameState>,
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhysMem({} frames)", self.frames.len())
    }
}

impl PhysMem {
    /// Creates `frames` frames of zeroed memory, all [`FrameOwner::Free`].
    pub fn new(frames: usize) -> PhysMem {
        PhysMem {
            data: vec![0u8; frames * PAGE_SIZE],
            frames: (0..frames)
                .map(|_| FrameState {
                    owner: FrameOwner::Free,
                    tampered: false,
                })
                .collect(),
        }
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames currently free.
    pub fn free_frames(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.owner == FrameOwner::Free)
            .count()
    }

    /// Allocates a free frame for `owner`, zeroing its contents.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::OutOfFrames`] when no frame is free.
    pub fn alloc(&mut self, owner: FrameOwner) -> Result<Frame, HwError> {
        assert_ne!(owner, FrameOwner::Free, "cannot allocate a Free frame");
        for (i, st) in self.frames.iter_mut().enumerate() {
            if st.owner == FrameOwner::Free {
                st.owner = owner;
                st.tampered = false;
                let base = i * PAGE_SIZE;
                self.data[base..base + PAGE_SIZE].fill(0);
                return Ok(Frame(i as u64));
            }
        }
        Err(HwError::OutOfFrames)
    }

    /// Allocates `n` frames with the same owner.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::OutOfFrames`] if fewer than `n` frames are free;
    /// no frames are leaked in that case.
    pub fn alloc_n(&mut self, owner: FrameOwner, n: usize) -> Result<Vec<Frame>, HwError> {
        if self.free_frames() < n {
            return Err(HwError::OutOfFrames);
        }
        (0..n).map(|_| self.alloc(owner)).collect()
    }

    /// Releases a frame back to the free pool, scrubbing its contents
    /// (real secure kernels scrub on free to prevent data leaks through
    /// reallocation).
    pub fn free(&mut self, frame: Frame) {
        let i = frame.0 as usize;
        if i < self.frames.len() {
            self.frames[i].owner = FrameOwner::Free;
            self.frames[i].tampered = false;
            let base = i * PAGE_SIZE;
            self.data[base..base + PAGE_SIZE].fill(0);
        }
    }

    /// Returns the owner tag of the frame containing `addr`.
    pub fn owner_of(&self, addr: PhysAddr) -> Result<FrameOwner, HwError> {
        self.frames
            .get(addr.frame() as usize)
            .map(|s| s.owner)
            .ok_or(HwError::BadAddress(addr))
    }

    /// Marks the frame containing `addr` as physically tampered.
    pub(crate) fn mark_tampered(&mut self, addr: PhysAddr) {
        if let Some(st) = self.frames.get_mut(addr.frame() as usize) {
            st.tampered = true;
        }
    }

    /// Whether the frame containing `addr` was physically tampered.
    pub(crate) fn is_tampered(&self, addr: PhysAddr) -> bool {
        self.frames
            .get(addr.frame() as usize)
            .map(|s| s.tampered)
            .unwrap_or(false)
    }

    /// Raw read without any access check. Only the bus may call this.
    pub(crate) fn raw_read(&self, addr: PhysAddr, len: usize) -> Result<&[u8], HwError> {
        let start = addr.0 as usize;
        let end = start.checked_add(len).ok_or(HwError::BadAddress(addr))?;
        if end > self.data.len() {
            return Err(HwError::BadAddress(addr));
        }
        Ok(&self.data[start..end])
    }

    /// Raw write without any access check. Only the bus may call this.
    pub(crate) fn raw_write(&mut self, addr: PhysAddr, bytes: &[u8]) -> Result<(), HwError> {
        let start = addr.0 as usize;
        let end = start
            .checked_add(bytes.len())
            .ok_or(HwError::BadAddress(addr))?;
        if end > self.data.len() {
            return Err(HwError::BadAddress(addr));
        }
        self.data[start..end].copy_from_slice(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_cycle() {
        let mut m = PhysMem::new(4);
        assert_eq!(m.free_frames(), 4);
        let f = m.alloc(FrameOwner::Normal).unwrap();
        assert_eq!(m.free_frames(), 3);
        assert_eq!(m.owner_of(f.base()).unwrap(), FrameOwner::Normal);
        m.free(f);
        assert_eq!(m.free_frames(), 4);
        assert_eq!(m.owner_of(f.base()).unwrap(), FrameOwner::Free);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut m = PhysMem::new(2);
        m.alloc(FrameOwner::Normal).unwrap();
        m.alloc(FrameOwner::Normal).unwrap();
        assert_eq!(m.alloc(FrameOwner::Normal), Err(HwError::OutOfFrames));
    }

    #[test]
    fn alloc_n_is_atomic() {
        let mut m = PhysMem::new(3);
        m.alloc(FrameOwner::Normal).unwrap();
        assert_eq!(m.alloc_n(FrameOwner::Normal, 3), Err(HwError::OutOfFrames));
        assert_eq!(m.free_frames(), 2, "failed alloc_n must not leak");
        assert_eq!(m.alloc_n(FrameOwner::Normal, 2).unwrap().len(), 2);
    }

    #[test]
    fn free_scrubs_contents() {
        let mut m = PhysMem::new(2);
        let f = m.alloc(FrameOwner::Secure).unwrap();
        m.raw_write(f.base(), b"secret").unwrap();
        m.free(f);
        let f2 = m.alloc(FrameOwner::Normal).unwrap();
        assert_eq!(f2, f, "allocator reuses the scrubbed frame");
        assert_eq!(m.raw_read(f2.base(), 6).unwrap(), &[0u8; 6]);
    }

    #[test]
    fn raw_access_bounds_checked() {
        let mut m = PhysMem::new(1);
        assert!(m.raw_read(PhysAddr(PAGE_SIZE as u64), 1).is_err());
        assert!(m.raw_write(PhysAddr(PAGE_SIZE as u64 - 2), b"abc").is_err());
        assert!(m.raw_write(PhysAddr(PAGE_SIZE as u64 - 3), b"abc").is_ok());
    }

    #[test]
    fn tamper_flag_tracks_frame() {
        let mut m = PhysMem::new(2);
        let f = m.alloc(FrameOwner::Epc(EnclaveId(1))).unwrap();
        assert!(!m.is_tampered(f.base()));
        m.mark_tampered(f.base().add(100));
        assert!(m.is_tampered(f.base()));
        m.free(f);
        let f2 = m.alloc(FrameOwner::Normal).unwrap();
        assert!(!m.is_tampered(f2.base()), "free clears tamper flag");
    }
}
