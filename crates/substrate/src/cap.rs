//! Capabilities: communication right + context identification in one
//! unforgeable entity.
//!
//! §III-C: *"Capabilities bundle communication right and context
//! identification in one entity and are therefore an important programming
//! tool to prevent confused deputy issues."* A [`ChannelCap`] names a slot
//! in its owner's capability table; the substrate validates on every
//! invocation that (a) the presenter *is* the owner and (b) the slot still
//! holds a live entry with a matching nonce. A component that somehow
//! copies another component's cap value (trivial in Rust — the struct is
//! `Clone`) still cannot use it: the owner check fails. The [`Badge`]
//! carried by the entry is delivered to the server with every invocation,
//! giving it an unforgeable client identity — the confused-deputy defense
//! measured in experiment E8.

use crate::{DomainId, SubstrateError};

/// The server-side identity tag of a channel. Chosen by whoever grants
/// the channel (the composer), delivered by the kernel with every message;
/// clients cannot influence it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Badge(pub u64);

/// A capability designating one communication channel from its owner to
/// some server domain.
///
/// The struct is freely copyable *data* — its power comes entirely from
/// validation against the kernel-held [`CapTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChannelCap {
    /// The domain whose cap table contains this capability.
    pub owner: DomainId,
    /// Slot index in the owner's table.
    pub slot: u32,
    /// Anti-reuse nonce: revoking and re-granting a slot changes it.
    pub nonce: u64,
}

/// One entry in a capability table.
#[derive(Clone, Copy, Debug)]
pub struct CapEntry {
    /// Target (server) domain of the channel.
    pub target: DomainId,
    /// Badge presented to the server on every invocation.
    pub badge: Badge,
    /// Matching nonce.
    pub nonce: u64,
}

/// The kernel-held capability table of one domain.
#[derive(Clone, Debug, Default)]
pub struct CapTable {
    entries: Vec<Option<CapEntry>>,
    next_nonce: u64,
}

impl CapTable {
    /// Creates an empty table.
    pub fn new() -> CapTable {
        CapTable::default()
    }

    /// Installs a channel to `target` with `badge`, returning the
    /// capability to hand to the owner.
    pub fn install(&mut self, owner: DomainId, target: DomainId, badge: Badge) -> ChannelCap {
        self.next_nonce += 1;
        let entry = CapEntry {
            target,
            badge,
            nonce: self.next_nonce,
        };
        // Reuse a free slot if any.
        let slot = match self.entries.iter().position(|e| e.is_none()) {
            Some(i) => {
                self.entries[i] = Some(entry);
                i
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        ChannelCap {
            owner,
            slot: slot as u32,
            nonce: entry.nonce,
        }
    }

    /// Validates a capability presented by `presenter` and returns the
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`SubstrateError::InvalidCapability`] when the presenter is
    /// not the owner, the slot is empty/out of range, or the nonce is
    /// stale (revoked capability).
    pub fn lookup(
        &self,
        presenter: DomainId,
        cap: &ChannelCap,
    ) -> Result<CapEntry, SubstrateError> {
        if cap.owner != presenter {
            return Err(SubstrateError::InvalidCapability(format!(
                "{presenter} presented a capability owned by {}",
                cap.owner
            )));
        }
        let entry = self
            .entries
            .get(cap.slot as usize)
            .and_then(|e| e.as_ref())
            .ok_or_else(|| SubstrateError::InvalidCapability(format!("empty slot {}", cap.slot)))?;
        if entry.nonce != cap.nonce {
            return Err(SubstrateError::InvalidCapability(
                "stale capability (revoked slot)".into(),
            ));
        }
        Ok(*entry)
    }

    /// Revokes `cap` if its slot still holds it (matching nonce).
    /// Subsequent lookups fail even if the slot is later reused (the
    /// nonce changes); revoking the stale cap again leaves the slot's
    /// new entry alone.
    pub fn revoke(&mut self, cap: &ChannelCap) {
        if let Some(e) = self.entries.get_mut(cap.slot as usize) {
            if e.is_some_and(|live| live.nonce == cap.nonce) {
                *e = None;
            }
        }
    }

    /// Revokes every capability targeting `target` (domain teardown).
    pub fn revoke_target(&mut self, target: DomainId) {
        for e in self.entries.iter_mut() {
            if e.map(|x| x.target == target).unwrap_or(false) {
                *e = None;
            }
        }
    }

    /// Number of live capabilities.
    pub fn live_count(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Iterates over live entries with their slots.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &CapEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|x| (i as u32, x)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OWNER: DomainId = DomainId(1);
    const OTHER: DomainId = DomainId(2);
    const SERVER: DomainId = DomainId(9);

    #[test]
    fn install_and_lookup() {
        let mut t = CapTable::new();
        let cap = t.install(OWNER, SERVER, Badge(7));
        let e = t.lookup(OWNER, &cap).unwrap();
        assert_eq!(e.target, SERVER);
        assert_eq!(e.badge, Badge(7));
    }

    #[test]
    fn stolen_cap_fails_owner_check() {
        // The central unforgeability property: copying the cap *value*
        // does not confer the right.
        let mut t = CapTable::new();
        let cap = t.install(OWNER, SERVER, Badge(7));
        let stolen = cap; // attacker copies the bits
        let err = t.lookup(OTHER, &stolen).unwrap_err();
        assert!(matches!(err, SubstrateError::InvalidCapability(_)));
    }

    #[test]
    fn revoked_cap_is_dead_even_after_slot_reuse() {
        let mut t = CapTable::new();
        let cap = t.install(OWNER, SERVER, Badge(1));
        t.revoke(&cap);
        assert!(t.lookup(OWNER, &cap).is_err());
        // Slot gets reused with a fresh nonce.
        let cap2 = t.install(OWNER, SERVER, Badge(2));
        assert_eq!(cap2.slot, cap.slot, "slot reused");
        assert!(t.lookup(OWNER, &cap).is_err(), "old cap still dead");
        assert_eq!(t.lookup(OWNER, &cap2).unwrap().badge, Badge(2));
        // Revoking the old cap again must not kill the new entry.
        t.revoke(&cap);
        assert_eq!(t.lookup(OWNER, &cap2).unwrap().badge, Badge(2));
    }

    #[test]
    fn forged_slot_and_nonce_fail() {
        let mut t = CapTable::new();
        let cap = t.install(OWNER, SERVER, Badge(1));
        let forged_slot = ChannelCap { slot: 99, ..cap };
        assert!(t.lookup(OWNER, &forged_slot).is_err());
        let forged_nonce = ChannelCap {
            nonce: cap.nonce + 1,
            ..cap
        };
        assert!(t.lookup(OWNER, &forged_nonce).is_err());
    }

    #[test]
    fn revoke_target_kills_all_channels_to_a_domain() {
        let mut t = CapTable::new();
        let c1 = t.install(OWNER, SERVER, Badge(1));
        let c2 = t.install(OWNER, SERVER, Badge(2));
        let c3 = t.install(OWNER, OTHER, Badge(3));
        t.revoke_target(SERVER);
        assert!(t.lookup(OWNER, &c1).is_err());
        assert!(t.lookup(OWNER, &c2).is_err());
        assert!(t.lookup(OWNER, &c3).is_ok());
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn badges_are_distinct_per_channel() {
        let mut t = CapTable::new();
        let c1 = t.install(OWNER, SERVER, Badge(100));
        let c2 = t.install(OWNER, SERVER, Badge(200));
        assert_ne!(
            t.lookup(OWNER, &c1).unwrap().badge,
            t.lookup(OWNER, &c2).unwrap().badge
        );
    }
}
