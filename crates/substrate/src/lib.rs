//! The unified isolation interface — the paper's central proposal.
//!
//! §III-A: *"This interface should do for isolation mechanisms what POSIX
//! did for the UNIX system call interface: allow application code to be
//! independent of the underlying implementation."* This crate is that
//! interface. Trusted components are written once against
//! [`component::Component`] and [`substrate::DomainContext`], and run
//! unmodified on every backend — the microkernel, TrustZone, SGX, SEP,
//! the Flicker late-launch substrate, or the pure-software substrate in
//! [`software`].
//!
//! The crate contains:
//!
//! * [`attacker`] — the attacker-model taxonomy of §II-D and the
//!   [`attacker::SubstrateProfile`] each backend advertises, so that
//!   "choices are made deliberately and not based on fashionability of a
//!   new hardware feature".
//! * [`cap`] — capabilities that *bundle communication right and context
//!   identification* (badges), the paper's §III-C tool against confused
//!   deputies.
//! * [`component`] — the trusted-component programming model.
//! * [`substrate`] — the [`substrate::Substrate`] trait itself plus the
//!   [`substrate::DomainContext`] services components see.
//! * [`fabric`] — the one engine behind every backend: domain
//!   lifecycle, capability checks, reentrancy, crossing pricing,
//!   tracing, and stats are implemented once. A backend implements only
//!   [`fabric::BackendPolicy`], and a blanket impl there gives it the
//!   whole [`substrate::Substrate`].
//! * [`fault`] — deterministic fault injection: a [`fault::FaultPlan`]
//!   installed into the fabric crashes, denies, or corrupts at exact
//!   logical positions, reproducibly, for the E10 recovery experiment.
//! * [`shard`] — the sharded multi-core fabric: N per-shard engines
//!   behind one [`substrate::Substrate`] surface, with deterministic
//!   placement, an explicit cross-shard crossing class, and a
//!   deterministic `(epoch, shard, seq)` trace merge (experiment E14).
//! * [`attest`] — substrate-independent attestation evidence and the
//!   verifier's trust policy.
//! * [`software`] — a reference backend isolating purely by the Rust type
//!   system (§II-B "Pure Software Isolation"; compiler in the TCB).
//! * [`conformance`] — the executable version of Figure 2: a suite that
//!   checks any backend implements the common structural template
//!   (experiment E2).
//!
//! # Example
//!
//! ```
//! use lateral_substrate::component::{Component, ComponentError, Invocation};
//! use lateral_substrate::software::SoftwareSubstrate;
//! use lateral_substrate::substrate::{DomainContext, DomainSpec, Substrate};
//!
//! struct Greeter;
//! impl Component for Greeter {
//!     fn label(&self) -> &str { "greeter" }
//!     fn on_call(
//!         &mut self,
//!         _ctx: &mut dyn DomainContext,
//!         inv: Invocation<'_>,
//!     ) -> Result<Vec<u8>, ComponentError> {
//!         Ok([b"hello, ", inv.data].concat())
//!     }
//! }
//!
//! # fn main() -> Result<(), lateral_substrate::SubstrateError> {
//! let mut sub = SoftwareSubstrate::new("demo");
//! let client = sub.spawn(DomainSpec::named("client"), Box::new(Greeter))?;
//! let server = sub.spawn(DomainSpec::named("server"), Box::new(Greeter))?;
//! let cap = sub.grant_channel(client, server, lateral_substrate::cap::Badge(1))?;
//! let reply = sub.invoke(client, &cap, b"world")?;
//! assert_eq!(reply, b"hello, world");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod attest;
pub mod cap;
pub mod component;
pub mod conformance;
pub mod fabric;
pub mod fault;
pub mod shard;
pub mod software;
pub mod substrate;
pub mod testkit;

use std::error::Error;
use std::fmt;

/// Identifies an isolated protection domain within one substrate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain{}", self.0)
    }
}

/// Errors surfaced by the unified substrate interface.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum SubstrateError {
    /// The named domain does not exist (or was destroyed).
    NoSuchDomain(DomainId),
    /// An invocation presented an invalid, foreign, or revoked capability.
    InvalidCapability(String),
    /// The isolation substrate blocked the operation (POLA violation,
    /// memory-rights violation, world mismatch, …).
    AccessDenied(String),
    /// Synchronous re-entry into a domain already on the call stack —
    /// sync IPC would deadlock here.
    Reentrancy(DomainId),
    /// The target domain fail-stopped (an injected or real crash) and
    /// awaits supervised destruction and respawn; callers see this for
    /// the bounded unavailability window.
    DomainCrashed(DomainId),
    /// The target component returned an application-level failure.
    ComponentFailure(String),
    /// The backend does not implement the requested optional feature.
    Unsupported(String),
    /// Resource exhaustion (frames, domain slots, cap slots).
    OutOfResources(String),
    /// A cryptographic check failed (unsealing, attestation).
    CryptoFailure(String),
    /// Backend-specific failure with context.
    Platform(String),
}

impl fmt::Display for SubstrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstrateError::NoSuchDomain(d) => write!(f, "no such domain {d}"),
            SubstrateError::InvalidCapability(r) => write!(f, "invalid capability: {r}"),
            SubstrateError::AccessDenied(r) => write!(f, "access denied: {r}"),
            SubstrateError::Reentrancy(d) => write!(f, "re-entrant call into {d}"),
            SubstrateError::DomainCrashed(d) => write!(f, "{d} crashed, awaiting restart"),
            SubstrateError::ComponentFailure(r) => write!(f, "component failure: {r}"),
            SubstrateError::Unsupported(r) => write!(f, "unsupported on this substrate: {r}"),
            SubstrateError::OutOfResources(r) => write!(f, "out of resources: {r}"),
            SubstrateError::CryptoFailure(r) => write!(f, "crypto failure: {r}"),
            SubstrateError::Platform(r) => write!(f, "platform error: {r}"),
        }
    }
}

impl Error for SubstrateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_id_displays() {
        assert_eq!(DomainId(3).to_string(), "domain3");
    }

    #[test]
    fn errors_display() {
        assert!(SubstrateError::NoSuchDomain(DomainId(1))
            .to_string()
            .contains("domain1"));
        assert!(SubstrateError::AccessDenied("pola".into())
            .to_string()
            .contains("pola"));
    }
}
