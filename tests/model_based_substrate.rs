//! Model-based test over the unified substrate interface: deterministic
//! random domain/capability lifecycle sequences must behave identically
//! to a trivial reference model — on every backend.
//!
//! This pins down the semantics that the paper's whole architecture
//! rests on: capabilities work exactly when (a) their owner is alive,
//! (b) their slot has not been revoked, and (c) their target is alive —
//! and never otherwise — and revoking a capability that is already dead
//! touches nothing else. Since the fabric refactor these semantics are
//! implemented once in `substrate::fabric`; the sweeps below, over all
//! six backends and a two-shard fabric, plus the testkit parity suite
//! verify that every backend actually routes through it, and that the
//! fabric counts exactly the dispatches, bytes and denials the model
//! does.

use lateral::crypto::rng::Drbg;
use lateral::substrate::cap::{Badge, ChannelCap};
use lateral::substrate::shard::ShardFabric;
use lateral::substrate::software::SoftwareSubstrate;
use lateral::substrate::substrate::{DomainSpec, Substrate};
use lateral::substrate::testkit::{parity, Echo};
use lateral::substrate::{DomainId, SubstrateError};
use lateral_bench::e2_conformance::all_substrates;

#[derive(Clone, Debug)]
enum Op {
    Spawn,
    Destroy(usize),
    Grant(usize, usize),
    Revoke(usize),
    RevokeStale(usize),
    Invoke(usize),
    InvokeForged(u32, u32, u64),
}

fn gen_op(rng: &mut Drbg) -> Op {
    // 3/14 spawn, 1/14 destroy, 3/14 grant, 1/14 revoke, 1/14 stale
    // revoke, 4/14 invoke, 1/14 forged.
    match rng.gen_range(14) {
        0..=2 => Op::Spawn,
        3 => Op::Destroy(rng.next_u64() as usize),
        4..=6 => Op::Grant(rng.next_u64() as usize, rng.next_u64() as usize),
        7 => Op::Revoke(rng.next_u64() as usize),
        8 => Op::RevokeStale(rng.next_u64() as usize),
        9..=12 => Op::Invoke(rng.next_u64() as usize),
        _ => Op::InvokeForged(
            rng.next_u32(),
            rng.gen_range(4) as u32,
            1 + rng.gen_range(99),
        ),
    }
}

/// The ops of case `seed` — a pure function of the seed, so a failing
/// case replays alone.
fn gen_ops(seed: u64) -> Vec<Op> {
    let mut rng = Drbg::from_seed(&seed.to_le_bytes());
    let n = 1 + rng.gen_range(59) as usize;
    (0..n).map(|_| gen_op(&mut rng)).collect()
}

/// What the fabric must have counted: dispatches, request plus reply
/// bytes, and refused capability presentations.
#[derive(Default, Debug, PartialEq)]
struct Tally {
    invocations: u64,
    bytes: u64,
    denials: u64,
}

const PING: &[u8] = b"ping";

impl Tally {
    /// `n` echoed pings.
    fn pings(&mut self, n: usize) {
        self.invocations += n as u64;
        self.bytes += 2 * (n * PING.len()) as u64;
    }
}

#[derive(Default)]
struct Model {
    domains: Vec<DomainId>,            // live domains
    caps: Vec<(ChannelCap, DomainId)>, // (cap, target) — pruned on revoke/destroy
    revoked: Vec<ChannelCap>,          // revoked caps whose owner is alive
    tally: Tally,
}

fn check_sequence(sub: &mut dyn Substrate, ops: &[Op]) -> Tally {
    let mut model = Model::default();
    let mut spawned = 0u32;
    for op in ops {
        match op {
            Op::Spawn => {
                if spawned >= 12 {
                    continue; // bound resource usage on small machines
                }
                let id = sub
                    .spawn(DomainSpec::named(&format!("d{spawned}")), Box::new(Echo))
                    .expect("spawn within bounds");
                spawned += 1;
                model.domains.push(id);
            }
            Op::Destroy(sel) => {
                if model.domains.is_empty() {
                    continue;
                }
                let victim = model.domains.remove(sel % model.domains.len());
                sub.destroy(victim).expect("destroy live domain");
                // Every cap owned by or targeting the victim dies.
                model
                    .caps
                    .retain(|(cap, target)| cap.owner != victim && *target != victim);
                model.revoked.retain(|cap| cap.owner != victim);
            }
            Op::Grant(a, b) => {
                if model.domains.is_empty() {
                    continue;
                }
                let from = model.domains[a % model.domains.len()];
                let to = model.domains[b % model.domains.len()];
                let cap = sub.grant_channel(from, to, Badge(7)).expect("grant");
                model.caps.push((cap, to));
            }
            Op::Revoke(sel) => {
                if model.caps.is_empty() {
                    continue;
                }
                let (cap, _) = model.caps.remove(sel % model.caps.len());
                sub.revoke_channel(&cap).expect("revoke live cap");
                // Invoking the revoked cap must now fail.
                assert!(sub.invoke(cap.owner, &cap, b"x").is_err());
                model.tally.denials += 1;
                model.revoked.push(cap);
            }
            Op::RevokeStale(sel) => {
                if model.revoked.is_empty() {
                    continue;
                }
                let stale = model.revoked[sel % model.revoked.len()];
                sub.revoke_channel(&stale)
                    .expect("a stale revoke is a no-op");
                for (live, _) in &model.caps {
                    assert_eq!(
                        sub.invoke(live.owner, live, PING).ok().as_deref(),
                        Some(PING),
                        "stale revoke of {stale:?} killed live {live:?}"
                    );
                }
                model.tally.pings(model.caps.len());
            }
            Op::Invoke(sel) => {
                if model.caps.is_empty() {
                    continue;
                }
                let (cap, _target) = model.caps[sel % model.caps.len()];
                // Externally driven invokes succeed even on self-channels
                // (the component is not currently executing; reentrancy
                // applies only to calls made from *inside* a handler).
                let reply = sub.invoke(cap.owner, &cap, PING);
                assert_eq!(reply.expect("live cap invokes"), PING);
                model.tally.pings(1);
            }
            Op::InvokeForged(owner, slot, nonce) => {
                let presenter = model
                    .domains
                    .first()
                    .copied()
                    .unwrap_or(DomainId(*owner % 4));
                let forged = ChannelCap {
                    owner: presenter,
                    slot: *slot,
                    nonce: *nonce << 32 | 0xDEAD, // never a real nonce in these runs
                };
                if model.domains.is_empty() {
                    continue;
                }
                assert!(
                    sub.invoke(presenter, &forged, b"x").is_err(),
                    "forged cap must never be honored"
                );
                model.tally.denials += 1;
            }
        }
    }
    model.tally
}

/// Names a failing case on the way out, so it can be replayed alone.
struct CaseGuard<'a> {
    backend: &'a str,
    seed: u64,
}

impl Drop for CaseGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "lifecycle case failed on {}, seed {}: `run_case` with that \
                 backend and seed replays it",
                self.backend, self.seed
            );
        }
    }
}

/// Runs case `seed` on `sub`, named `backend` in a failure. With
/// `check_totals`, the fabric's dispatch totals must equal the model's
/// tally; a sharded fabric counts a cross-shard call on both shards, so
/// it skips that check.
fn run_case(backend: &str, sub: &mut dyn Substrate, seed: u64, check_totals: bool) {
    let _guard = CaseGuard { backend, seed };
    let tally = check_sequence(sub, &gen_ops(seed));
    if check_totals {
        let stats = sub.fabric().stats();
        let counted = Tally {
            invocations: stats.total_invocations(),
            bytes: stats.total_bytes(),
            denials: stats.total_denials(),
        };
        assert_eq!(counted, tally, "fabric totals against the model");
    }
}

const CASES: u64 = 24;

/// Runs every case on a fresh instance of backend `index` of E2's
/// conformance pool.
fn pool_backend_lifecycle(index: usize) {
    for seed in 0..CASES {
        let mut sub = all_substrates().swap_remove(index);
        let backend = sub.profile().name.clone();
        run_case(&backend, sub.as_mut(), seed, true);
    }
}

#[test]
fn software_substrate_lifecycle() {
    pool_backend_lifecycle(0);
}

#[test]
fn microkernel_lifecycle() {
    pool_backend_lifecycle(1);
}

#[test]
fn trustzone_lifecycle() {
    pool_backend_lifecycle(2);
}

#[test]
fn sgx_lifecycle() {
    pool_backend_lifecycle(3);
}

#[test]
fn sep_lifecycle() {
    pool_backend_lifecycle(4);
}

#[test]
fn flicker_lifecycle() {
    pool_backend_lifecycle(5);
}

#[test]
fn two_shard_lifecycle() {
    // Round-robin placement spreads the domains, so grants cross shards.
    for seed in 0..200 {
        let mut fab = ShardFabric::new(vec![
            Box::new(SoftwareSubstrate::new("model-sh0")),
            Box::new(SoftwareSubstrate::new("model-sh1")),
        ]);
        run_case("two-shard software", &mut fab, seed, false);
    }
}

// ------------------------------------------------------- fabric parity
//
// The testkit parity suite runs the exact same scenario battery —
// reentrancy, revoke-then-invoke, badge demultiplexing, seal round-trip
// to identity, and stale caps into destroyed-then-respawned domains —
// against every backend. A failure names the backend and scenario.

#[test]
fn fabric_parity_holds_on_all_six_backends() {
    for mut sub in all_substrates() {
        parity::assert_parity(sub.as_mut());
    }
}

#[test]
fn stale_cap_into_respawned_domain_rejected_on_all_six() {
    for mut sub in all_substrates() {
        parity::assert_stale_cap_rejected(sub.as_mut());
    }
}

#[test]
fn invoke_batch_matches_invoke_loop_on_all_six() {
    // Two same-seed instances of each backend: the batch path on one
    // must leave byte-identical trace bytes and metrics digests to the
    // equivalent invoke loop on the other — with exactly one invoke
    // span instead of N as the only sanctioned difference.
    for (mut looped, mut batched) in all_substrates().into_iter().zip(all_substrates()) {
        parity::assert_batch_matches_loop(looped.as_mut(), batched.as_mut());
    }
}

#[test]
fn crash_respawn_under_supervision_on_all_six() {
    // The recovery cycle — injected crash, fail-stop window, respawn
    // from the same image, identical re-measurement, stale cap dead,
    // fresh grant serving — must behave identically on every backend.
    for mut sub in all_substrates() {
        parity::assert_crash_respawn_supervised(sub.as_mut());
    }
}

#[test]
fn injected_grant_denial_on_all_six() {
    // The engine's deny-grant branch: the nth grant into the victim is
    // refused, counted, traced and spanned, and installs nothing.
    for mut sub in all_substrates() {
        parity::assert_grant_denial_injected(sub.as_mut());
    }
}

#[test]
fn injected_seal_corruption_on_all_six() {
    // The engine's corrupt-seal branch: the nth seal's blob fails its
    // integrity check at unseal, and the next seal round-trips.
    for mut sub in all_substrates() {
        parity::assert_seal_corruption_injected(sub.as_mut());
    }
}

#[test]
fn memory_bounds_agree_on_all_six() {
    // Two backends keep domain memory on the heap and four walk the MMU
    // and the bus; all six must draw the same line at the end of a
    // domain's pages, and refuse arithmetic that wraps.
    for mut sub in all_substrates() {
        let name = sub.profile().name.clone();
        let d = sub
            .spawn(
                DomainSpec::named("bounds").with_mem_pages(2),
                Box::new(Echo),
            )
            .unwrap();
        let end = 2 * 4096;
        sub.mem_write(d, 4092, b"straddle").unwrap();
        assert_eq!(sub.mem_read(d, 4092, 8).unwrap(), b"straddle", "[{name}]");
        assert_eq!(sub.mem_read(d, end - 1, 1).unwrap().len(), 1, "[{name}]");
        for (offset, len) in [(end, 1), (end - 1, 2), (usize::MAX, 1), (usize::MAX - 3, 8)] {
            assert!(
                matches!(
                    sub.mem_read(d, offset, len),
                    Err(SubstrateError::AccessDenied(_))
                ),
                "[{name}] read ({offset}, {len}) must be denied"
            );
            assert!(
                matches!(
                    sub.mem_write(d, offset, &vec![0xEE; len]),
                    Err(SubstrateError::AccessDenied(_))
                ),
                "[{name}] write ({offset}, {len}) must be denied"
            );
        }
        // A length no domain could hold is refused before anything is
        // sized from it.
        for len in [usize::MAX, 1 << 40] {
            assert!(
                matches!(
                    sub.mem_read(d, 0, len),
                    Err(SubstrateError::AccessDenied(_))
                ),
                "[{name}] read (0, {len}) must be denied"
            );
        }
        assert_eq!(
            sub.mem_read(d, end, 0).unwrap(),
            Vec::<u8>::new(),
            "[{name}]"
        );
        sub.destroy(d).unwrap();
        assert!(
            matches!(sub.mem_read(d, 0, 1), Err(SubstrateError::NoSuchDomain(_))),
            "[{name}] a destroyed domain has no memory"
        );
        // A 0-page spec still gets one page, on every backend.
        let empty = sub
            .spawn(
                DomainSpec::named("no-pages").with_mem_pages(0),
                Box::new(Echo),
            )
            .unwrap();
        assert_eq!(sub.mem_read(empty, 0, 1).unwrap().len(), 1, "[{name}]");
        assert!(
            matches!(
                sub.mem_read(empty, 4096, 1),
                Err(SubstrateError::AccessDenied(_))
            ),
            "[{name}] a 0-page domain ends after its one page"
        );
        // A page count whose byte size overflows, or that no allocator
        // can grant, is refused with a typed error, and the domain
        // spawned next still has working memory.
        for pages in [usize::MAX / 4096 + 1, usize::MAX / 4096] {
            assert!(
                matches!(
                    sub.spawn(
                        DomainSpec::named("huge").with_mem_pages(pages),
                        Box::new(Echo)
                    ),
                    Err(SubstrateError::OutOfResources(_))
                ),
                "[{name}] {pages} pages must be refused"
            );
            let next = sub
                .spawn(DomainSpec::named(&format!("after-{pages}")), Box::new(Echo))
                .unwrap();
            sub.mem_write(next, 0, b"aligned").unwrap();
            assert_eq!(sub.mem_read(next, 0, 7).unwrap(), b"aligned", "[{name}]");
        }
    }
}

#[test]
fn rng_stream_is_pinned_on_all_six() {
    // Domain randomness is a `domain-{id}` fork of each backend's
    // seeded DRBG per draw; two domains, two draws each, interleaved.
    // The values are the backend-specific stream the TLS and
    // smart-meter handshakes draw from.
    let pinned = [
        "a46ecf5230715b4e 6651c7e9d12e185d 3392d47a99a56163 6eef4e102cc31e59", // software
        "e350a42c027691f4 68fa3a688389721d 4d9bcce9bb24c0c2 5e95babd5a2ae6f8", // microkernel
        "2176042f985f5653 22a19295a9dc7764 a677c10188ce928e 012fe06d82303bbc", // trustzone
        "3cc1da31c3acd25d 3834072d47fd662c 5e9fcacddb7e3f1f 2652b91172c7d7bf", // sgx
        "e29a571996d6bbb4 d4cf1d8bdb31f3a1 2877c8410352ced8 e9f030ade7413f04", // sep
        "7abc93ed9ba0b5f8 b2676ad24370a93c 2e9de0939c5f5848 383b236a15e74002", // flicker
    ];
    for (mut sub, want) in all_substrates().into_iter().zip(pinned) {
        let name = sub.profile().name.clone();
        let a = sub.spawn(DomainSpec::named("a"), Box::new(Echo)).unwrap();
        let b = sub.spawn(DomainSpec::named("b"), Box::new(Echo)).unwrap();
        let got = [a, b, a, b]
            .map(|d| format!("{:016x}", sub.rng_u64(d)))
            .join(" ");
        assert_eq!(got, want, "[{name}]");
    }
}

#[test]
fn migration_preserves_state_on_all_six() {
    // Each backend as the migration source with a software target (the
    // direction E17's optimizer takes), and software as the source into
    // each backend (the direction a tightened threat model takes):
    // sealed state must survive byte-identically both ways.
    for mut source in all_substrates() {
        let mut target = SoftwareSubstrate::new("migration-target");
        parity::assert_migration_preserves_state(source.as_mut(), &mut target);
    }
    for mut target in all_substrates() {
        let mut source = SoftwareSubstrate::new("migration-source");
        parity::assert_migration_preserves_state(&mut source, target.as_mut());
    }
}
