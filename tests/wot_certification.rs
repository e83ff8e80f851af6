//! Integration: web-of-trust certification across backends.
//!
//! The registry's `wot-threshold` pass (PR 8 tentpole) admits a digest
//! only while its aggregated review score clears the assembly's bar.
//! Two properties are checked end to end here:
//!
//! * the score gate behaves identically over all six substrate
//!   backends (the testkit parity case), and
//! * a distrust wave against a *running, supervised* component drives
//!   the full demotion path: the supervisor's next health tick
//!   quarantines the instance exactly once, burning zero restart
//!   budget, while the rest of the assembly keeps serving.

use lateral::core::composer::{ComponentFactory, Health};
use lateral::core::manifest::{AppManifest, ComponentManifest};
use lateral::core::supervisor::Supervisor;
use lateral::core::CoreError;
use lateral::crypto::sign::SigningKey;
use lateral::registry::{measurement_of, ManifestDraft, Registry, WOT_PASS};
use lateral::substrate::component::Component;
use lateral::substrate::testkit::{parity, Echo};
use lateral::wot::{Proof, Rating, ReviewProof, TrustGraph};
use lateral_bench::e2_conformance::all_substrates;

#[test]
fn wot_demotion_parity_on_all_six_backends() {
    let subs = all_substrates();
    assert_eq!(subs.len(), 6, "the sweep must cover every backend");
    for mut sub in subs {
        let backend = sub.profile().name.clone();
        let mut registry = Registry::new(&format!("wot-parity-{backend}"));
        parity::assert_wot_demotion_quarantined(sub.as_mut(), &mut registry);
        assert!(
            registry.stats().wot_proofs >= 2,
            "[{backend}] the endorsement and the wave must both be counted"
        );
    }
}

/// A registry whose trust graph holds one seeded reviewer root that has
/// endorsed both component images of the `worker`/`sidekick` app.
fn wot_registry(reviewer: &SigningKey) -> Registry {
    let publisher = SigningKey::from_seed(b"wot integration publisher");
    let mut reg = Registry::new("wot-supervised");
    reg.trust_root(&publisher.verifying_key());
    let mut graph = TrustGraph::new();
    graph.seed_root(&reviewer.verifying_key().to_bytes());
    reg.attach_wot(graph, 100);
    for (name, image) in [("worker", b"worker".as_slice()), ("sidekick", b"sidekick")] {
        reg.publish(
            image,
            ManifestDraft::new(name, image).sign(&publisher, None),
        )
        .unwrap();
        let endorse = ReviewProof::issue(reviewer, measurement_of(image), Rating::High, 1);
        reg.ingest_proof(&Proof::Review(endorse)).unwrap();
    }
    reg
}

fn factory() -> Box<dyn ComponentFactory> {
    Box::new(|_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>))
}

#[test]
fn distrust_wave_quarantines_supervised_instance_exactly_once() {
    for sub in all_substrates() {
        let backend = sub.profile().name.clone();
        let reviewer = SigningKey::from_seed(b"wot integration reviewer");
        let app = AppManifest::new(
            "wot-supervised",
            vec![
                ComponentManifest::new("worker").restartable(3, 10),
                ComponentManifest::new("sidekick"),
            ],
        );
        let mut sup = Supervisor::new_admitted(app, vec![sub], factory(), wot_registry(&reviewer))
            .unwrap_or_else(|e| panic!("[{backend}] endorsed app must compose: {e}"));
        assert_eq!(sup.call("worker", b"ping").unwrap(), b"ping");
        assert_eq!(sup.tick(), Vec::<String>::new(), "[{backend}] scores clear");

        // The distrust wave lands while the worker is running: the
        // reviewer's later review supersedes its endorsement.
        let wave = ReviewProof::issue(&reviewer, measurement_of(b"worker"), Rating::Distrust, 2);
        sup.registry_mut()
            .unwrap()
            .ingest_proof(&Proof::Review(wave))
            .unwrap();
        assert!(
            !sup.is_quarantined("worker"),
            "[{backend}] demotion waits for the health tick"
        );
        // The very next tick quarantines — once.
        assert_eq!(sup.tick(), vec!["worker".to_string()], "[{backend}]");
        assert!(sup.is_quarantined("worker"), "[{backend}]");
        assert_eq!(
            sup.restarts("worker"),
            0,
            "[{backend}] demotion burns zero restart budget"
        );
        assert_eq!(sup.tick(), Vec::<String>::new(), "[{backend}] exactly once");
        let quarantines = sup
            .assembly_mut()
            .substrate_mut(0)
            .telemetry_mut()
            .metrics_mut()
            .counter("supervisor.quarantines");
        assert_eq!(
            quarantines, 1,
            "[{backend}] one demotion = one quarantine count"
        );
        // Demoted means uncertifiable: the registry refuses the worker
        // by the wot pass while the sidekick still resolves.
        let reg = sup.registry_mut().unwrap();
        let err = reg.resolve("worker").unwrap_err();
        assert!(
            err.to_string().contains(WOT_PASS),
            "[{backend}] expected a wot refusal, got: {err}"
        );
        reg.resolve("sidekick")
            .unwrap_or_else(|e| panic!("[{backend}] sidekick stays certified: {e}"));
        assert_eq!(sup.call("sidekick", b"x").unwrap(), b"x");
        assert!(matches!(
            sup.call("worker", b"x"),
            Err(CoreError::Unavailable(_))
        ));
        assert_eq!(
            sup.health(),
            Health::Degraded(vec!["worker".into()]),
            "[{backend}]"
        );
    }
}
