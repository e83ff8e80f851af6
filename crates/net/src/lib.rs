//! Simulated networking: untrusted links, a Dolev–Yao-style adversary,
//! and the secure-channel protocol trusted components use across them.
//!
//! The paper extends trust across machines (§III-C): the smart meter and
//! the utility server communicate over a network the attacker fully
//! controls, and even "communication busses within a system must be
//! considered untrusted networks as well" (§II-D). This crate provides:
//!
//! * [`sim`] — the message-passing network with an in-path adversary that
//!   can record, drop, corrupt, replay, and inject packets;
//! * [`wire`] — small framing helpers (length-prefixed and fixed-width
//!   fields);
//! * [`channel`] — a TLS-like handshake (ephemeral DH, transcript
//!   signatures) producing an AEAD record channel with one record format
//!   (an explicit sequence number and one sealed body), plus the
//!   *attested* variant where a party binds [`AttestationEvidence`] to
//!   the channel key — the paper's mechanism for trusting a remote
//!   anonymizer before sending it any readings;
//! * [`session`] — the multiplexed session layer: many in-flight
//!   requests per channel (ids and trace contexts inside the sealed
//!   record) and single-use resumption tickets that amortize the
//!   attestation handshake across a session epoch;
//! * [`fetch`] — content-addressed image fetch from untrusted registry
//!   mirrors, digest-verified regardless of source with deterministic
//!   failover.
//!
//! [`AttestationEvidence`]: lateral_substrate::attest::AttestationEvidence

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fetch;
pub mod session;
pub mod sim;
pub mod wire;

use std::error::Error;
use std::fmt;

/// A network endpoint address.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Addr(pub String);

impl Addr {
    /// Creates an address from a name.
    pub fn new(name: &str) -> Addr {
        Addr(name.to_string())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors from networking and the secure channel.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum NetError {
    /// No endpoint registered under the address.
    UnknownAddr(Addr),
    /// Malformed wire data.
    Decode(String),
    /// A handshake step failed (bad signature, bad share, bad evidence).
    HandshakeFailed(String),
    /// A record failed authentication or arrived ahead of its turn.
    RecordRejected(String),
    /// An authentic record whose sequence number was already delivered:
    /// a replay or a retransmitted copy. Strict callers refuse it like
    /// any other bad record; a receiver on a lossy link counts it and
    /// moves on, since its window did not move.
    Duplicate(u64),
    /// The remote attestation check failed.
    AttestationRejected(String),
    /// Delivery was not observed in time — the typed timeout
    /// classification for deadline-aware senders: either every scheduled
    /// transmission went undelivered, or the schedule's logical-clock
    /// deadline passed before the next attempt.
    Timeout(String),
    /// A bounded retry schedule gave up. `attempts` counts the
    /// transmissions actually performed; `last_err` is the final
    /// classified cause (a [`NetError::Timeout`] for silent loss or a
    /// hard send error such as [`NetError::UnknownAddr`]).
    RetryExhausted {
        /// Transmissions performed before giving up.
        attempts: u32,
        /// The final classified cause.
        last_err: Box<NetError>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownAddr(a) => write!(f, "unknown address {a}"),
            NetError::Decode(r) => write!(f, "decode error: {r}"),
            NetError::HandshakeFailed(r) => write!(f, "handshake failed: {r}"),
            NetError::RecordRejected(r) => write!(f, "record rejected: {r}"),
            NetError::Duplicate(seq) => {
                write!(f, "duplicate record: sequence {seq} already delivered")
            }
            NetError::AttestationRejected(r) => write!(f, "attestation rejected: {r}"),
            NetError::Timeout(r) => write!(f, "timeout: {r}"),
            NetError::RetryExhausted { attempts, last_err } => {
                write!(f, "retry exhausted after {attempts} attempt(s): {last_err}")
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display() {
        assert_eq!(Addr::new("meter-1").to_string(), "meter-1");
    }

    #[test]
    fn error_display() {
        assert!(NetError::UnknownAddr(Addr::new("x"))
            .to_string()
            .contains('x'));
    }
}
