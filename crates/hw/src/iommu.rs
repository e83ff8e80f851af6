//! The IOMMU: filtering DMA by device identity.
//!
//! §II-D: "peripheral devices are also capable of direct DRAM access …
//! IOMMUs control memory access by the device the same way MMUs control
//! memory access by the CPU." Without an IOMMU mapping, a malicious device
//! (or a malicious driver commanding a benign device) can overwrite
//! arbitrary DRAM including page tables; experiment E9 exercises exactly
//! that attack with the IOMMU disabled and enabled.

use std::collections::{BTreeMap, BTreeSet};

use crate::mem::Frame;
use crate::DeviceId;

/// IOMMU state: which frames each device may touch.
#[derive(Clone, Debug, Default)]
pub struct Iommu {
    enabled: bool,
    grants: BTreeMap<DeviceId, BTreeSet<u64>>,
}

impl Iommu {
    /// Creates a disabled IOMMU (all DMA passes — the historical default).
    pub fn new() -> Iommu {
        Iommu::default()
    }

    /// Enables enforcement. With enforcement on, devices only reach frames
    /// explicitly granted to them.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Disables enforcement (all DMA passes).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Grants `device` access to `frame`.
    pub fn grant(&mut self, device: DeviceId, frame: Frame) {
        self.grants.entry(device).or_default().insert(frame.0);
    }

    /// Revokes a grant.
    pub fn revoke(&mut self, device: DeviceId, frame: Frame) {
        if let Some(set) = self.grants.get_mut(&device) {
            set.remove(&frame.0);
        }
    }

    /// Revokes every grant held by `device`.
    pub fn revoke_all(&mut self, device: DeviceId) {
        self.grants.remove(&device);
    }

    /// Whether `device` may access `frame` under the current configuration.
    pub fn allows(&self, device: DeviceId, frame: Frame) -> bool {
        if !self.enabled {
            return true;
        }
        self.grants
            .get(&device)
            .map(|set| set.contains(&frame.0))
            .unwrap_or(false)
    }

    /// Number of frames granted to `device`.
    pub fn grant_count(&self, device: DeviceId) -> usize {
        self.grants.get(&device).map(|s| s.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: DeviceId = DeviceId(1);
    const OTHER: DeviceId = DeviceId(2);

    #[test]
    fn disabled_iommu_allows_everything() {
        let iommu = Iommu::new();
        assert!(iommu.allows(DEV, Frame(0)));
        assert!(iommu.allows(OTHER, Frame(99)));
    }

    #[test]
    fn enabled_iommu_denies_by_default() {
        let mut iommu = Iommu::new();
        iommu.enable();
        assert!(!iommu.allows(DEV, Frame(0)));
    }

    #[test]
    fn grants_are_per_device_and_per_frame() {
        let mut iommu = Iommu::new();
        iommu.enable();
        iommu.grant(DEV, Frame(3));
        assert!(iommu.allows(DEV, Frame(3)));
        assert!(!iommu.allows(DEV, Frame(4)));
        assert!(!iommu.allows(OTHER, Frame(3)));
    }

    #[test]
    fn revoke_removes_access() {
        let mut iommu = Iommu::new();
        iommu.enable();
        iommu.grant(DEV, Frame(3));
        iommu.grant(DEV, Frame(4));
        iommu.revoke(DEV, Frame(3));
        assert!(!iommu.allows(DEV, Frame(3)));
        assert!(iommu.allows(DEV, Frame(4)));
        iommu.revoke_all(DEV);
        assert!(!iommu.allows(DEV, Frame(4)));
        assert_eq!(iommu.grant_count(DEV), 0);
    }

    #[test]
    fn re_disabling_restores_open_access() {
        let mut iommu = Iommu::new();
        iommu.enable();
        assert!(!iommu.allows(DEV, Frame(0)));
        iommu.disable();
        assert!(iommu.allows(DEV, Frame(0)));
    }
}
