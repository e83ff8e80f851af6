//! The MMU: per-address-space page tables with access rights.
//!
//! The MMU is deliberately *policy-free* hardware — it enforces whatever
//! mappings privileged software installs. The paper's point (§II-D "Basic
//! Access Control"): the software that programs the MMU is part of the
//! isolation substrate and therefore of every component's TCB. In this
//! workspace that software is the `lateral-microkernel` crate.
//!
//! [`DomainMemory`] is the one page-table walk the MMU-based backends
//! (microkernel, TrustZone, SGX, SEP) share: a domain's frames mapped
//! from [`DOMAIN_MEM_BASE`], read and written through the MMU and the
//! checked bus as whichever [`Initiator`] the backend names.

use std::collections::BTreeMap;

use crate::bus::AccessKind;
use crate::machine::Machine;
use crate::mem::{Frame, FrameOwner, PhysMem};
use crate::{HwError, Initiator, PhysAddr, VirtAddr, PAGE_SIZE};

/// Virtual address at which every domain's private memory starts:
/// byte `offset` of a [`DomainMemory`] is `DOMAIN_MEM_BASE + offset`.
pub const DOMAIN_MEM_BASE: u64 = 0x10_0000;

/// Access rights of a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rights {
    /// Mapping permits reads.
    pub read: bool,
    /// Mapping permits writes.
    pub write: bool,
    /// Mapping permits instruction fetch.
    pub execute: bool,
}

impl Rights {
    /// Read-only data.
    pub const R: Rights = Rights {
        read: true,
        write: false,
        execute: false,
    };
    /// Read-write data.
    pub const RW: Rights = Rights {
        read: true,
        write: true,
        execute: false,
    };
    /// Read-execute (code).
    pub const RX: Rights = Rights {
        read: true,
        write: false,
        execute: true,
    };

    /// Whether these rights permit `kind`-style access.
    pub fn permits(&self, kind: crate::bus::AccessKind) -> bool {
        match kind {
            crate::bus::AccessKind::Read => self.read,
            crate::bus::AccessKind::Write => self.write,
        }
    }
}

impl std::fmt::Display for Rights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { "r" } else { "-" },
            if self.write { "w" } else { "-" },
            if self.execute { "x" } else { "-" }
        )
    }
}

/// One page-table entry.
#[derive(Clone, Copy, Debug)]
pub struct Mapping {
    /// Backing physical frame.
    pub frame: Frame,
    /// Access rights.
    pub rights: Rights,
}

/// A page table: one virtual address space.
///
/// ```
/// use lateral_hw::mmu::{AddressSpace, Rights};
/// use lateral_hw::mem::Frame;
/// use lateral_hw::VirtAddr;
///
/// let mut aspace = AddressSpace::new();
/// aspace.map(VirtAddr(0x1000), Frame(7), Rights::RW);
/// let (pa, _) = aspace.translate(VirtAddr(0x1004), lateral_hw::bus::AccessKind::Read).unwrap();
/// assert_eq!(pa.frame(), 7);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AddressSpace {
    pages: BTreeMap<u64, Mapping>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Installs (or replaces) a mapping for the page containing `va`.
    pub fn map(&mut self, va: VirtAddr, frame: Frame, rights: Rights) {
        self.pages.insert(va.page(), Mapping { frame, rights });
    }

    /// Removes the mapping for the page containing `va`, returning it.
    pub fn unmap(&mut self, va: VirtAddr) -> Option<Mapping> {
        self.pages.remove(&va.page())
    }

    /// Looks up the mapping for the page containing `va`.
    pub fn mapping(&self, va: VirtAddr) -> Option<&Mapping> {
        self.pages.get(&va.page())
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterates over `(virtual page number, mapping)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Mapping)> {
        self.pages.iter().map(|(k, v)| (*k, v))
    }

    /// Translates `va` for a `kind` access, checking rights.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::PageFault`] when the page is unmapped or the
    /// rights do not permit the access.
    pub fn translate(
        &self,
        va: VirtAddr,
        kind: crate::bus::AccessKind,
    ) -> Result<(PhysAddr, Rights), HwError> {
        let mapping = self
            .pages
            .get(&va.page())
            .ok_or_else(|| HwError::PageFault {
                addr: va,
                reason: "unmapped page".into(),
            })?;
        if !mapping.rights.permits(kind) {
            return Err(HwError::PageFault {
                addr: va,
                reason: format!("rights {} do not permit {:?}", mapping.rights, kind),
            });
        }
        Ok((mapping.frame.base().add(va.offset() as u64), mapping.rights))
    }

    /// Translates a byte range, yielding per-page physical spans.
    ///
    /// Accesses may cross page boundaries; each returned span lies within
    /// one page.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::PageFault`] on the first page lacking a suitable
    /// mapping.
    pub fn translate_range(
        &self,
        va: VirtAddr,
        len: usize,
        kind: crate::bus::AccessKind,
    ) -> Result<Vec<(PhysAddr, usize)>, HwError> {
        let mut spans = Vec::new();
        let mut cur = va;
        let mut remaining = len;
        while remaining > 0 {
            let (pa, _) = self.translate(cur, kind)?;
            let in_page = PAGE_SIZE - cur.offset();
            let take = remaining.min(in_page);
            spans.push((pa, take));
            cur = cur.add(take as u64);
            remaining -= take;
        }
        Ok(spans)
    }
}

/// One protection domain's private memory: frames of one owner, mapped
/// read-write and contiguous from [`DOMAIN_MEM_BASE`] in the domain's own
/// address space. Every access walks that address space, then the
/// checked bus — so which initiator may touch which bytes is decided by
/// the simulated hardware, not by the backend.
#[derive(Debug)]
pub struct DomainMemory {
    aspace: AddressSpace,
    frames: Vec<Frame>,
}

impl DomainMemory {
    /// Allocates `pages` frames (at least one) tagged `owner` and maps
    /// them.
    ///
    /// # Errors
    ///
    /// [`HwError::OutOfFrames`]; no frame is leaked.
    pub fn alloc(
        mem: &mut PhysMem,
        owner: FrameOwner,
        pages: usize,
    ) -> Result<DomainMemory, HwError> {
        let frames = mem.alloc_n(owner, pages.max(1))?;
        let mut aspace = AddressSpace::new();
        for (i, frame) in frames.iter().enumerate() {
            aspace.map(
                VirtAddr(DOMAIN_MEM_BASE + (i * PAGE_SIZE) as u64),
                *frame,
                Rights::RW,
            );
        }
        Ok(DomainMemory { aspace, frames })
    }

    /// The backing frames, in address order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Returns the frames to `mem`, which scrubs them.
    pub fn free(self, mem: &mut PhysMem) {
        for frame in self.frames {
            mem.free(frame);
        }
    }

    /// The per-page physical spans of `len` bytes at byte `offset`;
    /// [`HwError::PageFault`] when any byte lies outside the domain's
    /// memory. An offset past the end of the address space saturates
    /// onto the top page, which is never mapped.
    fn translate(
        &self,
        offset: usize,
        len: usize,
        kind: AccessKind,
    ) -> Result<Vec<(PhysAddr, usize)>, HwError> {
        let va = VirtAddr(DOMAIN_MEM_BASE.saturating_add(offset as u64));
        self.aspace.translate_range(va, len, kind)
    }

    /// Reads `len` bytes at `offset` as `initiator`, one bus access per
    /// page span.
    ///
    /// # Errors
    ///
    /// [`HwError::PageFault`] outside the domain's memory, or whatever
    /// the bus refuses (see [`Machine::bus_read`]).
    pub fn read(
        &self,
        machine: &mut Machine,
        initiator: Initiator,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, HwError> {
        // Translate before allocating: `len` is the caller's, and only a
        // range that lies inside the domain may size the buffer.
        let spans = self.translate(offset, len, AccessKind::Read)?;
        let mut out = Vec::with_capacity(spans.iter().map(|&(_, span)| span).sum());
        for (pa, span) in spans {
            out.extend_from_slice(&machine.bus_read(initiator, pa, span)?);
        }
        Ok(out)
    }

    /// Writes `data` at `offset` as `initiator`, one bus access per page
    /// span.
    ///
    /// # Errors
    ///
    /// As [`DomainMemory::read`].
    pub fn write(
        &self,
        machine: &mut Machine,
        initiator: Initiator,
        offset: usize,
        data: &[u8],
    ) -> Result<(), HwError> {
        let mut cursor = 0usize;
        for (pa, span) in self.translate(offset, data.len(), AccessKind::Write)? {
            machine.bus_write(initiator, pa, &data[cursor..cursor + span])?;
            cursor += span;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_page_faults() {
        let aspace = AddressSpace::new();
        let err = aspace.translate(VirtAddr(0), AccessKind::Read).unwrap_err();
        assert!(matches!(err, HwError::PageFault { .. }));
    }

    #[test]
    fn rights_are_enforced() {
        let mut aspace = AddressSpace::new();
        aspace.map(VirtAddr(0), Frame(1), Rights::R);
        assert!(aspace.translate(VirtAddr(0), AccessKind::Read).is_ok());
        assert!(aspace.translate(VirtAddr(0), AccessKind::Write).is_err());
    }

    #[test]
    fn translation_preserves_offset() {
        let mut aspace = AddressSpace::new();
        aspace.map(VirtAddr(2 * PAGE_SIZE as u64), Frame(5), Rights::RW);
        let (pa, _) = aspace
            .translate(VirtAddr(2 * PAGE_SIZE as u64 + 123), AccessKind::Write)
            .unwrap();
        assert_eq!(pa, PhysAddr(5 * PAGE_SIZE as u64 + 123));
    }

    #[test]
    fn range_crossing_pages() {
        let mut aspace = AddressSpace::new();
        aspace.map(VirtAddr(0), Frame(1), Rights::RW);
        aspace.map(VirtAddr(PAGE_SIZE as u64), Frame(9), Rights::RW);
        let spans = aspace
            .translate_range(VirtAddr(PAGE_SIZE as u64 - 10), 20, AccessKind::Read)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].1, 10);
        assert_eq!(spans[1].0, PhysAddr(9 * PAGE_SIZE as u64));
        assert_eq!(spans[1].1, 10);
    }

    #[test]
    fn range_fails_on_hole() {
        let mut aspace = AddressSpace::new();
        aspace.map(VirtAddr(0), Frame(1), Rights::RW);
        // Page 1 is unmapped.
        assert!(aspace
            .translate_range(VirtAddr(PAGE_SIZE as u64 - 10), 20, AccessKind::Read)
            .is_err());
    }

    #[test]
    fn unmap_removes_access() {
        let mut aspace = AddressSpace::new();
        aspace.map(VirtAddr(0), Frame(1), Rights::RW);
        assert!(aspace.unmap(VirtAddr(0)).is_some());
        assert!(aspace.translate(VirtAddr(0), AccessKind::Read).is_err());
        assert!(aspace.unmap(VirtAddr(0)).is_none());
    }

    #[test]
    fn remap_replaces() {
        let mut aspace = AddressSpace::new();
        aspace.map(VirtAddr(0), Frame(1), Rights::RW);
        aspace.map(VirtAddr(0), Frame(2), Rights::R);
        let (pa, r) = aspace.translate(VirtAddr(0), AccessKind::Read).unwrap();
        assert_eq!(pa.frame(), 2);
        assert!(!r.write);
        assert_eq!(aspace.mapped_pages(), 1);
    }
}
