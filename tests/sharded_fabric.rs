//! Integration: the sharded multi-core fabric across the whole stack.
//!
//! The shard fabric partitions domains over N per-shard engines behind
//! one `Substrate` surface (DESIGN.md §3, experiment E14). These tests
//! pin the cross-layer contracts: the explicit cross-shard crossing
//! class behaves identically on all six backends, an N=1 fabric is
//! byte-identical to a bare engine on every backend, the deterministic
//! `(epoch, shard, seq)` merge is invariant under global interleaving,
//! and the composer + supervisor treat a shard fabric like any other
//! substrate — with respawns staying shard-local.

use lateral::core::composer::{compose, ComponentFactory};
use lateral::core::manifest::{AppManifest, ComponentManifest};
use lateral::core::supervisor::Supervisor;
use lateral::core::CoreError;
use lateral::substrate::cap::{Badge, ChannelCap};
use lateral::substrate::component::Component;
use lateral::substrate::fabric::CrossingKind;
use lateral::substrate::fault::{FaultPlan, FaultSpec};
use lateral::substrate::shard::{ShardFabric, ShardId, XSHARD_SLOT_BASE};
use lateral::substrate::software::SoftwareSubstrate;
use lateral::substrate::substrate::{DomainSpec, Substrate};
use lateral::substrate::testkit::{parity, Echo};
use lateral::substrate::DomainId;
use lateral_bench::e2_conformance::all_substrates;
use std::sync::mpsc;

// --------------------------------------------------- backend parity

#[test]
fn cross_shard_crossing_parity_on_all_six_backends() {
    // Two same-seed instances of each backend become the two shards of
    // one fabric; grant, invoke, seal, and revoked-cap refusal must
    // cross shards identically regardless of the backend underneath.
    for (a, b) in all_substrates().into_iter().zip(all_substrates()) {
        parity::assert_cross_shard_crossing(vec![a, b]);
    }
}

/// A deterministic workload driven through the object-safe surface —
/// runs identically on a bare backend and an N=1 shard fabric.
fn n1_workload(sub: &mut dyn Substrate) {
    let a = sub
        .spawn(DomainSpec::named("n1-a"), Box::new(Echo))
        .unwrap();
    let b = sub
        .spawn(DomainSpec::named("n1-b"), Box::new(Echo))
        .unwrap();
    let cap = sub.grant_channel(a, b, Badge(3)).unwrap();
    for i in 0..4u8 {
        assert_eq!(sub.invoke(a, &cap, &[i, i]).unwrap(), [i, i]);
    }
    sub.revoke_channel(&cap).unwrap();
    assert!(sub.invoke(a, &cap, b"late").is_err());
}

#[test]
fn n1_shard_fabric_is_byte_identical_on_all_six_backends() {
    for (mut raw, wrapped) in all_substrates().into_iter().zip(all_substrates()) {
        let name = raw.profile().name.clone();
        n1_workload(raw.as_mut());
        let mut fab = ShardFabric::new(vec![wrapped]);
        n1_workload(&mut fab);
        let engine = raw.fabric();
        assert_eq!(
            fab.merged_trace_bytes(),
            engine.trace_bytes(),
            "[{name}] N=1 merged trace must be byte-identical to the bare engine"
        );
        assert_eq!(
            fab.merged_tree_digest(),
            engine.telemetry().tree_digest(),
            "[{name}] N=1 span tree must digest identically"
        );
        assert_eq!(
            fab.merged_metrics().digest(),
            engine.telemetry().metrics().digest(),
            "[{name}] N=1 metrics must digest identically"
        );
    }
}

// ------------------------------------------- merge determinism (E14)

/// Three shards, clients and services pinned one per shard, plus one
/// cross-shard capability. Spawn and grant order is fixed; only the
/// invoke interleaving varies between callers.
struct Sharded3 {
    fab: ShardFabric,
    clients: Vec<DomainId>,
    caps: Vec<ChannelCap>,
    xcap: ChannelCap,
}

fn sharded3() -> Sharded3 {
    let mut fab = ShardFabric::new(vec![
        Box::new(SoftwareSubstrate::new("il-0")) as Box<dyn Substrate>,
        Box::new(SoftwareSubstrate::new("il-1")),
        Box::new(SoftwareSubstrate::new("il-2")),
    ]);
    let mut clients = Vec::new();
    let mut services = Vec::new();
    for s in 0..3u32 {
        let c = format!("client{s}");
        let v = format!("svc{s}");
        fab.pin(&c, ShardId(s));
        fab.pin(&v, ShardId(s));
        clients.push(fab.spawn(DomainSpec::named(&c), Box::new(Echo)).unwrap());
        services.push(fab.spawn(DomainSpec::named(&v), Box::new(Echo)).unwrap());
    }
    let caps = (0..3)
        .map(|s| {
            fab.grant_channel(clients[s], services[s], Badge(s as u64))
                .unwrap()
        })
        .collect();
    let xcap = fab
        .grant_channel(clients[0], services[1], Badge(9))
        .unwrap();
    Sharded3 {
        fab,
        clients,
        caps,
        xcap,
    }
}

#[test]
fn shard_merge_is_invariant_under_global_interleaving() {
    // Variant A interleaves shards round-robin; variant B runs each
    // shard's calls back to back in a different shard order; variant C
    // runs each shard's calls on a thread of its own through the split
    // borrow. Per-shard order is identical, so the merged artifacts must
    // be too.
    let mut a = sharded3();
    for i in 0..4u8 {
        for s in 0..3 {
            a.fab.invoke(a.clients[s], &a.caps[s], &[i]).unwrap();
        }
    }
    a.fab.advance_epoch();
    a.fab.invoke(a.clients[0], &a.xcap, b"cross").unwrap();

    let mut b = sharded3();
    for s in [1, 2, 0] {
        for i in 0..4u8 {
            b.fab.invoke(b.clients[s], &b.caps[s], &[i]).unwrap();
        }
    }
    b.fab.advance_epoch();
    b.fab.invoke(b.clients[0], &b.xcap, b"cross").unwrap();

    assert_eq!(
        a.fab.merged_trace_bytes(),
        b.fab.merged_trace_bytes(),
        "merged trace bytes must not depend on global interleaving"
    );
    assert_eq!(
        a.fab.merged_invariant_digest(),
        b.fab.merged_invariant_digest()
    );
    assert_eq!(a.fab.merged_tree_digest(), b.fab.merged_tree_digest());
    assert_eq!(
        a.fab.merged_metrics().digest(),
        b.fab.merged_metrics().digest()
    );

    // Variant C: a channel chain forces the completion order shard 2 →
    // 1 → 0, each thread starting only once the previous one is done.
    let mut c = sharded3();
    let (clients, caps) = (&c.clients, &c.caps);
    let mut shards = c.fab.split_mut();
    std::thread::scope(|scope| {
        let mut go: Option<mpsc::Receiver<()>> = None;
        for s in [2, 1, 0] {
            let mut shard = shards.pop().unwrap();
            let (done, next) = mpsc::channel();
            let wait = go.replace(next);
            scope.spawn(move || {
                if let Some(wait) = wait {
                    wait.recv().unwrap();
                }
                for i in 0..4u8 {
                    shard.invoke_batch(clients[s], &caps[s], &[&[i]]).unwrap();
                }
                let _ = done.send(());
            });
        }
    });
    c.fab.advance_epoch();
    c.fab.invoke(c.clients[0], &c.xcap, b"cross").unwrap();
    assert_eq!(
        a.fab.merged_trace_bytes(),
        c.fab.merged_trace_bytes(),
        "merged trace bytes must not depend on which thread ran a shard"
    );
    assert_eq!(
        a.fab.merged_invariant_digest(),
        c.fab.merged_invariant_digest()
    );
    assert_eq!(
        a.fab.merged_metrics().digest(),
        c.fab.merged_metrics().digest()
    );
}

// ------------------------------------------------- core-layer stack

struct EchoFactory;

impl ComponentFactory for EchoFactory {
    fn build(&mut self, _cm: &ComponentManifest) -> Option<Box<dyn Component>> {
        Some(Box::new(Echo))
    }
}

#[test]
fn composer_bridges_channels_across_shards() {
    // A shard fabric drops into the composer's pool like any other
    // substrate. With the endpoints round-robined onto different
    // shards, the declared channel becomes a cross-shard capability and
    // the bridged call raises the explicit Shard crossing.
    let fab = ShardFabric::new(vec![
        Box::new(SoftwareSubstrate::new("pool-sh0")) as Box<dyn Substrate>,
        Box::new(SoftwareSubstrate::new("pool-sh1")),
    ]);
    let app = AppManifest::new(
        "sharded-pool",
        vec![
            ComponentManifest::new("front").channel("ask", "back", 0xB1),
            ComponentManifest::new("back"),
        ],
    );
    let mut asm = compose(&app, vec![Box::new(fab)], &mut EchoFactory).unwrap();
    assert_eq!(asm.call_channel("front", "ask", b"ping").unwrap(), b"ping");
    // The caller's shard (shard 0 anchors the fabric surface) recorded
    // the crossing as the explicit cross-shard class.
    let shard_crossings = asm
        .substrate_mut(0)
        .telemetry()
        .metrics()
        .counter(CrossingKind::Shard.counter_metric());
    assert!(
        shard_crossings >= 1,
        "front → back must cross shards, saw {shard_crossings} Shard crossings"
    );
}

#[test]
fn supervised_respawn_stays_shard_local() {
    // Placement pins keep the supervised worker on shard 0; after a
    // crash + respawn the sticky-name rule must land the replacement on
    // the same shard — proven by a second shard-0 fault plan firing
    // against the respawned instance.
    let mut fab = ShardFabric::new(vec![
        Box::new(SoftwareSubstrate::new("sup-sh0")) as Box<dyn Substrate>,
        Box::new(SoftwareSubstrate::new("sup-sh1")),
    ]);
    fab.pin("worker", ShardId(0));
    fab.pin("sidekick", ShardId(0));
    fab.pin("remote", ShardId(1));
    let app = AppManifest::new(
        "sharded-sup",
        vec![
            ComponentManifest::new("worker").restartable(3, 20),
            ComponentManifest::new("sidekick"),
            ComponentManifest::new("remote"),
        ],
    );
    let mut sup = Supervisor::new(app, vec![Box::new(fab)], Box::new(EchoFactory)).unwrap();
    let crash_worker_on_shard0 = |sup: &mut Supervisor, nth: u64| {
        sup.assembly_mut()
            .substrate_mut(0)
            .fabric_mut()
            .install_fault_plan(FaultPlan::new().with(FaultSpec::crash("worker", nth)));
    };
    let drive = |sup: &mut Supervisor| {
        let (mut lost, mut served) = (0u32, 0u32);
        for _ in 0..60 {
            match sup.call("worker", b"ping") {
                Ok(r) => {
                    assert_eq!(r, b"ping");
                    served += 1;
                }
                Err(CoreError::Unavailable(_)) => lost += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            // Sidekick shares shard 0, so its traffic moves the clock
            // the worker's backoff deadline is measured on.
            sup.call("sidekick", b"tick").unwrap();
        }
        (lost, served)
    };

    crash_worker_on_shard0(&mut sup, 2);
    let (lost, served) = drive(&mut sup);
    assert!(lost >= 1, "the injected crash loses at least one call");
    assert!(served >= 40, "service resumed after the bounded window");
    assert_eq!(sup.restarts("worker"), 1);
    // The shard-1 component never noticed.
    assert_eq!(sup.call("remote", b"over there").unwrap(), b"over there");

    // If the respawn had migrated off shard 0, this shard-0 plan could
    // never fire against it.
    crash_worker_on_shard0(&mut sup, 1);
    assert!(
        matches!(sup.call("worker", b"again"), Err(CoreError::Unavailable(_))),
        "the respawned worker must still reside on its pinned shard"
    );
    let (_, served) = drive(&mut sup);
    assert!(served > 0, "second recovery succeeds on the same shard");
    assert_eq!(sup.restarts("worker"), 2);
}

// ------------------------------------------------- slot-space sanity

#[test]
fn intra_and_cross_shard_slots_do_not_collide() {
    let mut fab = ShardFabric::new(vec![
        Box::new(SoftwareSubstrate::new("slots-0")) as Box<dyn Substrate>,
        Box::new(SoftwareSubstrate::new("slots-1")),
    ]);
    fab.pin("near", ShardId(0));
    fab.pin("peer", ShardId(0));
    fab.pin("far", ShardId(1));
    let near = fab
        .spawn(DomainSpec::named("near"), Box::new(Echo))
        .unwrap();
    let peer = fab
        .spawn(DomainSpec::named("peer"), Box::new(Echo))
        .unwrap();
    let far = fab.spawn(DomainSpec::named("far"), Box::new(Echo)).unwrap();
    let local = fab.grant_channel(near, peer, Badge(1)).unwrap();
    let cross = fab.grant_channel(near, far, Badge(2)).unwrap();
    assert!(local.slot < XSHARD_SLOT_BASE);
    assert!(cross.slot >= XSHARD_SLOT_BASE);
    // Both capability classes are live from the same owner and both
    // show up in the owner's capability listing.
    assert_eq!(fab.invoke(near, &local, b"in").unwrap(), b"in");
    assert_eq!(fab.invoke(near, &cross, b"out").unwrap(), b"out");
    let listed = fab.list_caps(near).unwrap();
    assert!(listed.iter().any(|c| c.slot == local.slot));
    assert!(listed.iter().any(|c| c.slot == cross.slot));
}
