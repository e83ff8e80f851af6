//! The simulated network and its in-path adversary.
//!
//! The attacker model is Dolev–Yao-flavored: every packet passes through
//! the adversary, who may record, drop, corrupt, replay, or inject —
//! but cannot break the cryptography. The secure-channel tests and the
//! smart-meter experiment configure concrete [`AttackMode`]s.

use std::collections::{BTreeMap, VecDeque};

use lateral_crypto::rng::Drbg;

use crate::{Addr, NetError};

/// One in-flight packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Claimed sender (spoofable — authenticity comes from the channel
    /// layer, never from this field).
    pub from: Addr,
    /// Destination.
    pub to: Addr,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// What the in-path adversary does to traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackMode {
    /// Forward everything untouched (but still record it).
    Passive,
    /// Drop every packet (availability attack).
    DropAll,
    /// Drop the next `n` packets, then behave passively — a transient
    /// outage window, for exercising bounded retry deterministically.
    DropFirst(u64),
    /// Steady loss: drop every `n`-th packet (the n-th, 2n-th, …,
    /// counted over every [`Network::send`] since the network was made,
    /// under any mode) and deliver the rest — the soak-test mode for
    /// retransmission schedules. `DropEvery(1)` drops every packet, as
    /// [`AttackMode::DropAll`] does; `DropEvery(0)` drops none, as
    /// [`AttackMode::Passive`] does.
    DropEvery(u64),
    /// Duplicate burst: deliver each packet, then `n` extra copies —
    /// sustained replay pressure for receiver-side dedup
    /// (`DuplicateBurst(0)` is passive).
    DuplicateBurst(u64),
    /// Flip a byte in every payload.
    CorruptAll,
    /// Deliver each packet, then deliver a copy a second time.
    ReplayAll,
    /// Redirect packets destined to the given address to the attacker's
    /// own inbox instead (impersonation / man-in-the-middle setup).
    Redirect {
        /// Victim destination whose traffic is stolen.
        victim: Addr,
        /// Attacker inbox receiving it.
        attacker: Addr,
    },
}

/// The network: inboxes plus the adversary in the path.
pub struct Network {
    inboxes: BTreeMap<Addr, VecDeque<Packet>>,
    mode: AttackMode,
    recorded: Vec<Packet>,
    sent: u64,
    sent_bytes: u64,
    delivered: u64,
    dropped: u64,
    rng: Drbg,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network({} endpoints, {:?}, {} delivered, {} dropped)",
            self.inboxes.len(),
            self.mode,
            self.delivered,
            self.dropped
        )
    }
}

impl Network {
    /// Creates a benign network (passive adversary).
    pub fn new(seed: &str) -> Network {
        Network {
            inboxes: BTreeMap::new(),
            mode: AttackMode::Passive,
            recorded: Vec::new(),
            sent: 0,
            sent_bytes: 0,
            delivered: 0,
            dropped: 0,
            rng: Drbg::from_seed(&[b"lateral.net.", seed.as_bytes()].concat()),
        }
    }

    /// Registers an endpoint.
    pub fn register(&mut self, addr: Addr) {
        self.inboxes.entry(addr).or_default();
    }

    /// Sets the adversary's behavior.
    pub fn set_attack(&mut self, mode: AttackMode) {
        self.mode = mode;
    }

    /// All traffic the adversary has recorded (it sees everything).
    pub fn recorded(&self) -> &[Packet] {
        &self.recorded
    }

    /// Count of packets sent so far: one per [`Network::send`], whatever
    /// the adversary did with it. Injections and replays are not sends.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Payload bytes of the packets counted by [`Network::sent`].
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Count of packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Count of packets dropped by the adversary.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn deliver(&mut self, packet: Packet) -> Result<(), NetError> {
        let inbox = self
            .inboxes
            .get_mut(&packet.to)
            .ok_or_else(|| NetError::UnknownAddr(packet.to.clone()))?;
        inbox.push_back(packet);
        self.delivered += 1;
        Ok(())
    }

    /// Sends a packet through the adversary.
    ///
    /// Returns the number of copies the adversary let through **to the
    /// intended destination** — the link-layer delivery receipt. A
    /// redirected packet lands in the attacker's inbox, not the
    /// destination's, so it counts as `0`; senders that treat "some
    /// packet moved somewhere" as an ack would otherwise confirm sends
    /// the victim never saw.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownAddr`] when the (possibly redirected)
    /// destination is not registered. A dropped packet is *not* an error —
    /// the sender cannot tell (the receipt is `Ok(0)`).
    pub fn send(&mut self, from: &Addr, to: &Addr, payload: &[u8]) -> Result<u64, NetError> {
        let packet = Packet {
            from: from.clone(),
            to: to.clone(),
            payload: payload.to_vec(),
        };
        self.sent += 1;
        self.sent_bytes += payload.len() as u64;
        self.recorded.push(packet.clone());
        match self.mode.clone() {
            AttackMode::Passive => self.deliver(packet).map(|()| 1),
            AttackMode::DropAll => {
                self.dropped += 1;
                Ok(0)
            }
            AttackMode::DropFirst(n) => {
                if n > 1 {
                    self.mode = AttackMode::DropFirst(n - 1);
                    self.dropped += 1;
                    Ok(0)
                } else if n == 1 {
                    // Window over after this drop.
                    self.mode = AttackMode::Passive;
                    self.dropped += 1;
                    Ok(0)
                } else {
                    self.mode = AttackMode::Passive;
                    self.deliver(packet).map(|()| 1)
                }
            }
            AttackMode::DropEvery(n) => {
                // `sent` already counts this packet: its 1-based position.
                if n > 0 && self.sent.is_multiple_of(n) {
                    self.dropped += 1;
                    Ok(0)
                } else {
                    self.deliver(packet).map(|()| 1)
                }
            }
            AttackMode::DuplicateBurst(n) => {
                self.deliver(packet.clone())?;
                for _ in 0..n {
                    self.deliver(packet.clone())?;
                }
                Ok(1 + n)
            }
            AttackMode::CorruptAll => {
                let mut p = packet;
                if !p.payload.is_empty() {
                    let idx = self.rng.gen_range(p.payload.len() as u64) as usize;
                    p.payload[idx] ^= 0x80;
                }
                self.deliver(p).map(|()| 1)
            }
            AttackMode::ReplayAll => {
                self.deliver(packet.clone())?;
                self.deliver(packet).map(|()| 2)
            }
            AttackMode::Redirect { victim, attacker } => {
                if packet.to == victim {
                    let mut p = packet;
                    p.to = attacker;
                    // Stolen: the intended destination saw nothing.
                    self.deliver(p).map(|()| 0)
                } else {
                    self.deliver(packet).map(|()| 1)
                }
            }
        }
    }

    /// ATTACK: injects a packet with an arbitrary claimed sender.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownAddr`].
    pub fn inject(
        &mut self,
        forged_from: &Addr,
        to: &Addr,
        payload: &[u8],
    ) -> Result<(), NetError> {
        self.deliver(Packet {
            from: forged_from.clone(),
            to: to.clone(),
            payload: payload.to_vec(),
        })
    }

    /// ATTACK: replays a previously recorded packet by index.
    ///
    /// # Errors
    ///
    /// [`NetError::Decode`] for a bad index, [`NetError::UnknownAddr`] for
    /// a missing destination.
    pub fn replay_recorded(&mut self, index: usize) -> Result<(), NetError> {
        let p = self
            .recorded
            .get(index)
            .cloned()
            .ok_or_else(|| NetError::Decode(format!("no recorded packet {index}")))?;
        self.deliver(p)
    }

    /// Receives the next packet for `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownAddr`] for unregistered endpoints; `Ok(None)`
    /// when the inbox is empty.
    pub fn recv(&mut self, addr: &Addr) -> Result<Option<Packet>, NetError> {
        let inbox = self
            .inboxes
            .get_mut(addr)
            .ok_or_else(|| NetError::UnknownAddr(addr.clone()))?;
        Ok(inbox.pop_front())
    }

    /// Number of packets waiting for `addr`.
    pub fn pending(&self, addr: &Addr) -> usize {
        self.inboxes.get(addr).map(|q| q.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (Network, Addr, Addr) {
        let mut n = Network::new("t");
        let a = Addr::new("a");
        let b = Addr::new("b");
        n.register(a.clone());
        n.register(b.clone());
        (n, a, b)
    }

    #[test]
    fn basic_delivery_in_order() {
        let (mut n, a, b) = net();
        n.send(&a, &b, b"one").unwrap();
        n.send(&a, &b, b"two").unwrap();
        assert_eq!(n.recv(&b).unwrap().unwrap().payload, b"one");
        assert_eq!(n.recv(&b).unwrap().unwrap().payload, b"two");
        assert!(n.recv(&b).unwrap().is_none());
    }

    #[test]
    fn unknown_destination_is_error() {
        let (mut n, a, _) = net();
        assert!(matches!(
            n.send(&a, &Addr::new("ghost"), b"x"),
            Err(NetError::UnknownAddr(_))
        ));
    }

    #[test]
    fn adversary_records_everything() {
        let (mut n, a, b) = net();
        n.send(&a, &b, b"secret-in-the-clear").unwrap();
        assert_eq!(n.recorded().len(), 1);
        assert_eq!(n.recorded()[0].payload, b"secret-in-the-clear");
    }

    #[test]
    fn drop_all_silently_discards() {
        let (mut n, a, b) = net();
        n.set_attack(AttackMode::DropAll);
        n.send(&a, &b, b"x").unwrap();
        assert_eq!(n.pending(&b), 0);
        assert_eq!(n.dropped(), 1);
    }

    #[test]
    fn drop_first_n_is_a_transient_window() {
        let (mut n, a, b) = net();
        n.set_attack(AttackMode::DropFirst(2));
        n.send(&a, &b, b"one").unwrap();
        n.send(&a, &b, b"two").unwrap();
        n.send(&a, &b, b"three").unwrap();
        assert_eq!(n.dropped(), 2);
        assert_eq!(n.recv(&b).unwrap().unwrap().payload, b"three");
        assert!(n.recv(&b).unwrap().is_none());
    }

    #[test]
    fn drop_every_nth_is_steady_loss() {
        let (mut n, a, b) = net();
        n.set_attack(AttackMode::DropEvery(3));
        for i in 0..9u8 {
            n.send(&a, &b, &[i]).unwrap();
        }
        // Packets 3, 6, 9 dropped; the rest delivered in order.
        assert_eq!(n.dropped(), 3);
        assert_eq!(n.pending(&b), 6);
        let got: Vec<u8> = (0..6)
            .map(|_| n.recv(&b).unwrap().unwrap().payload[0])
            .collect();
        assert_eq!(got, [0, 1, 3, 4, 6, 7]);
    }

    #[test]
    fn drop_every_zero_is_passive() {
        let (mut n, a, b) = net();
        n.set_attack(AttackMode::DropEvery(0));
        n.send(&a, &b, b"x").unwrap();
        assert_eq!(n.pending(&b), 1);
        assert_eq!(n.dropped(), 0);
    }

    #[test]
    fn duplicate_burst_delivers_extra_copies() {
        let (mut n, a, b) = net();
        n.set_attack(AttackMode::DuplicateBurst(3));
        n.send(&a, &b, b"x").unwrap();
        assert_eq!(n.pending(&b), 4, "original + 3 duplicates");
        for _ in 0..4 {
            assert_eq!(n.recv(&b).unwrap().unwrap().payload, b"x");
        }
    }

    #[test]
    fn corrupt_all_flips_bytes() {
        let (mut n, a, b) = net();
        n.set_attack(AttackMode::CorruptAll);
        n.send(&a, &b, b"payload").unwrap();
        let p = n.recv(&b).unwrap().unwrap();
        assert_ne!(p.payload, b"payload");
        assert_eq!(p.payload.len(), 7);
    }

    #[test]
    fn replay_all_duplicates() {
        let (mut n, a, b) = net();
        n.set_attack(AttackMode::ReplayAll);
        n.send(&a, &b, b"x").unwrap();
        assert_eq!(n.pending(&b), 2);
    }

    #[test]
    fn redirect_steals_traffic() {
        let (mut n, a, b) = net();
        let mallory = Addr::new("mallory");
        n.register(mallory.clone());
        n.set_attack(AttackMode::Redirect {
            victim: b.clone(),
            attacker: mallory.clone(),
        });
        n.send(&a, &b, b"for b").unwrap();
        assert_eq!(n.pending(&b), 0);
        assert_eq!(n.recv(&mallory).unwrap().unwrap().payload, b"for b");
    }

    #[test]
    fn send_receipt_counts_copies_to_the_intended_destination() {
        let (mut n, a, b) = net();
        let mallory = Addr::new("mallory");
        n.register(mallory.clone());
        let redirect = AttackMode::Redirect {
            victim: b.clone(),
            attacker: mallory,
        };
        // Every mode, each send one byte longer than the last. The
        // `DropEvery(2)` send is the network's sixth, an even position.
        let cases = [
            (AttackMode::Passive, 1, "passive delivers one"),
            (AttackMode::DropAll, 0, "dropped: no receipt"),
            (AttackMode::DropFirst(1), 0, "inside the outage window"),
            (AttackMode::DuplicateBurst(3), 4, "original + 3 copies"),
            (AttackMode::CorruptAll, 1, "corrupted, but delivered"),
            (AttackMode::DropEvery(2), 0, "an even position is dropped"),
            (AttackMode::ReplayAll, 2, "original + replay"),
            (
                redirect,
                0,
                "stolen traffic must not read as an ack for the victim",
            ),
        ];
        for (len, (mode, receipt, why)) in (1..).zip(cases) {
            n.set_attack(mode);
            assert_eq!(n.send(&a, &b, &vec![b'x'; len]).unwrap(), receipt, "{why}");
            // The counters and the payload log agree after every mode.
            let recorded = n.recorded();
            assert_eq!(n.sent(), recorded.len() as u64, "{why}");
            let bytes: usize = recorded.iter().map(|p| p.payload.len()).sum();
            assert_eq!(n.sent_bytes(), bytes as u64, "{why}");
        }
        assert_eq!(n.sent_bytes(), (1..=8).sum::<u64>());
    }

    #[test]
    fn injection_and_targeted_replay() {
        let (mut n, a, b) = net();
        n.send(&a, &b, b"original").unwrap();
        n.inject(&a, &b, b"forged").unwrap();
        n.replay_recorded(0).unwrap();
        assert_eq!(n.pending(&b), 3);
        let payloads: Vec<Vec<u8>> = (0..3)
            .map(|_| n.recv(&b).unwrap().unwrap().payload)
            .collect();
        assert_eq!(payloads[1], b"forged");
        assert_eq!(payloads[2], b"original");
    }
}
