//! Fleet-scale integration: supervisor quarantine accounting across all
//! six backends, and the `apps::fleet` world's robustness properties
//! (backpressure, churn, recall, conservation) end to end.

use lateral::apps::fleet::{FleetConfig, FleetWorld, FLEET_FW_V2_NAME};
use lateral::core::composer::ComponentFactory;
use lateral::core::manifest::{AppManifest, ComponentManifest, RestartPolicy};
use lateral::core::supervisor::Supervisor;
use lateral::core::CoreError;
use lateral::substrate::component::Component;
use lateral::substrate::fault::{ChurnEvent, ChurnPlan, FaultPlan, FaultSpec};
use lateral_bench::e2_conformance::all_substrates;

/// A small but fully loaded fleet scenario: steady WAN loss, an
/// overload burst, a crash wave, and a mid-fleet firmware recall.
fn chaos_config() -> FleetConfig {
    FleetConfig {
        meters: 120,
        inbox_capacity: 60,
        rounds: 8,
        burst_round: Some(1),
        churn: ChurnPlan::new()
            .with(ChurnEvent::crash_fraction(2, 100_000))
            .with(ChurnEvent::recall(4, FLEET_FW_V2_NAME)),
        ..FleetConfig::default()
    }
}

/// Tentpole: the fleet world's end state — meter states, robustness
/// accounting, aggregated totals, fabric trace — digests identically on
/// every backend, and the run loses nothing under combined overload,
/// churn, and recall.
#[test]
fn fleet_chaos_sweep_is_backend_invariant_and_lossless() {
    let mut digests = Vec::new();
    for (idx, probe) in all_substrates().into_iter().enumerate() {
        let name = probe.profile().name.clone();
        drop(probe);
        let pool: Vec<_> = (0..2).map(|_| all_substrates().remove(idx)).collect();
        let mut world = FleetWorld::new(pool, chaos_config());
        let stats = world.run();
        assert_eq!(
            stats.acked, stats.produced,
            "[{name}] zero lost readings under churn + overload"
        );
        assert!(stats.shed > 0, "[{name}] the burst overran the inboxes");
        assert!(stats.crashes > 0, "[{name}] the crash wave fired");
        assert!(stats.respawns > 0, "[{name}] crashed meters re-attested");
        assert!(
            stats.quarantined_by_recall > 0,
            "[{name}] the recall quarantined the v2 cohort"
        );
        digests.push((name, world.fleet_digest()));
    }
    let (ref first_name, first) = digests[0];
    for (name, d) in &digests {
        assert_eq!(
            d, &first,
            "fleet digest differs between {first_name} and {name}"
        );
    }
}

fn factory() -> Box<dyn ComponentFactory> {
    Box::new(|_: &ComponentManifest| {
        Some(Box::new(lateral::substrate::testkit::Echo) as Box<dyn Component>)
    })
}

fn supervised_app() -> AppManifest {
    AppManifest::new(
        "fleet-quarantine",
        vec![
            ComponentManifest::new("worker").restart(RestartPolicy::Restart {
                max_restarts: 2,
                backoff_base: 10,
            }),
            ComponentManifest::new("sidekick"),
        ],
    )
}

/// Satellite: the `supervisor.quarantines` counter increments exactly
/// once per budget exhaustion — on every one of the six backends.
#[test]
fn quarantine_counter_is_exactly_once_on_all_backends() {
    for sub in all_substrates() {
        let name = sub.profile().name.clone();
        let mut sup = Supervisor::new(supervised_app(), vec![sub], factory())
            .unwrap_or_else(|e| panic!("[{name}] compose failed: {e}"));
        sup.assembly_mut()
            .substrate_mut(0)
            .fabric_mut()
            .install_fault_plan(FaultPlan::new().with(FaultSpec::crash("worker", 1).permanent()));
        let quarantines = |sup: &mut Supervisor| {
            sup.assembly_mut()
                .substrate_mut(0)
                .telemetry_mut()
                .metrics_mut()
                .counter("supervisor.quarantines")
        };
        assert_eq!(quarantines(&mut sup), 0, "[{name}] counter starts at 0");
        // Drive the worker through its full restart budget. Sidekick
        // traffic advances the logical clock through backoff windows.
        for _ in 0..60 {
            match sup.call("worker", b"ping") {
                Ok(_) | Err(CoreError::Unavailable(_)) => {}
                Err(e) => panic!("[{name}] unexpected error: {e}"),
            }
            sup.call("sidekick", b"tick").unwrap();
            if sup.is_quarantined("worker") {
                break;
            }
        }
        assert!(sup.is_quarantined("worker"), "[{name}] budget exhausted");
        assert_eq!(
            quarantines(&mut sup),
            1,
            "[{name}] one exhaustion = one count"
        );
        // Re-hitting the quarantined component must not re-count.
        for _ in 0..5 {
            let _ = sup.call("worker", b"x");
        }
        assert_eq!(quarantines(&mut sup), 1, "[{name}] no double count");
    }
}
