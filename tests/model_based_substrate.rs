//! Model-based test over the unified substrate interface: deterministic
//! random domain/capability lifecycle sequences must behave identically
//! to a trivial reference model — on every backend.
//!
//! This pins down the semantics that the paper's whole architecture
//! rests on: capabilities work exactly when (a) their owner is alive,
//! (b) their slot has not been revoked, and (c) their target is alive —
//! and never otherwise. Since the fabric refactor these semantics are
//! implemented once in `substrate::fabric`; the per-backend sweeps below
//! plus the testkit parity suite verify that every backend actually
//! routes through it.

use lateral::crypto::rng::Drbg;
use lateral::crypto::sign::SigningKey;
use lateral::crypto::Digest;
use lateral::hw::machine::MachineBuilder;
use lateral::microkernel::Microkernel;
use lateral::sgx::Sgx;
use lateral::substrate::cap::{Badge, ChannelCap};
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
    Invoke(usize),
    InvokeForged(u32, u32, u64),
}

fn gen_op(rng: &mut Drbg) -> Op {
    // Weighted like the original proptest strategy: 3/13 spawn, 1/13
    // destroy, 3/13 grant, 1/13 revoke, 4/13 invoke, 1/13 forged.
    match rng.gen_range(13) {
        0..=2 => Op::Spawn,
        3 => Op::Destroy(rng.next_u64() as usize),
        4..=6 => Op::Grant(rng.next_u64() as usize, rng.next_u64() as usize),
        7 => Op::Revoke(rng.next_u64() as usize),
        8..=11 => Op::Invoke(rng.next_u64() as usize),
        _ => Op::InvokeForged(
            rng.next_u32(),
            rng.gen_range(4) as u32,
            1 + rng.gen_range(99),
        ),
    }
}

fn gen_ops(rng: &mut Drbg) -> Vec<Op> {
    let n = 1 + rng.gen_range(59) as usize;
    (0..n).map(|_| gen_op(rng)).collect()
}

#[derive(Default)]
struct Model {
    domains: Vec<DomainId>,            // live domains
    caps: Vec<(ChannelCap, DomainId)>, // (cap, target) — pruned on revoke/destroy
}

fn check_sequence(sub: &mut dyn Substrate, ops: &[Op]) {
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
            }
            Op::Invoke(sel) => {
                if model.caps.is_empty() {
                    continue;
                }
                let (cap, _target) = model.caps[sel % model.caps.len()];
                // Externally driven invokes succeed even on self-channels
                // (the component is not currently executing; reentrancy
                // applies only to calls made from *inside* a handler).
                let reply = sub.invoke(cap.owner, &cap, b"ping");
                assert_eq!(reply.expect("live cap invokes"), b"ping".to_vec());
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
            }
        }
    }
}

const CASES: usize = 24;

#[test]
fn software_substrate_lifecycle() {
    let mut rng = Drbg::from_seed(b"model substrate sw");
    for _ in 0..CASES {
        let ops = gen_ops(&mut rng);
        let mut sub = SoftwareSubstrate::new("model");
        check_sequence(&mut sub, &ops);
    }
}

#[test]
fn microkernel_lifecycle() {
    let mut rng = Drbg::from_seed(b"model substrate mk");
    for _ in 0..CASES {
        let ops = gen_ops(&mut rng);
        let machine = MachineBuilder::new().name("model-mk").frames(256).build();
        let mut sub = Microkernel::new(machine, "model")
            .with_attestation(SigningKey::from_seed(b"model"), Digest::ZERO);
        check_sequence(&mut sub, &ops);
    }
}

#[test]
fn sgx_lifecycle() {
    let mut rng = Drbg::from_seed(b"model substrate sgx");
    for _ in 0..CASES {
        let ops = gen_ops(&mut rng);
        let machine = MachineBuilder::new().name("model-sgx").frames(256).build();
        let mut sub = Sgx::new(machine, "model");
        check_sequence(&mut sub, &ops);
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
