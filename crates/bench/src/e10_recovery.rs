//! E10 — recovery under deterministic fault injection.
//!
//! The containment experiment (E1) shows a fault stays *inside* its
//! domain; this experiment shows the assembly comes *back*. A supervised
//! worker + sidekick pair runs on each of the six backends while a
//! [`FaultPlan`] injects crashes at precise logical-clock points. For
//! every (backend × fault plan) cell we measure how many invocations the
//! crash window lost and how many logical-clock ticks recovery took, and
//! we assert the successor's attestation evidence carries the *same*
//! measurement as the baseline recorded at composition — a restarted
//! impostor cannot slip back into the assembly.
//!
//! Every fault is injected from a deterministic plan and recorded in the
//! fabric trace, so the whole sweep — including the per-backend trace
//! digest printed at the bottom — is byte-identical across runs. The
//! `scripts/check.sh` determinism gate runs this experiment twice and
//! fails on any diff.

use lateral_core::composer::{ComponentFactory, Health};
use lateral_core::manifest::{AppManifest, ComponentManifest, RestartPolicy};
use lateral_core::supervisor::Supervisor;
use lateral_core::CoreError;
use lateral_crypto::Digest;
use lateral_substrate::component::Component;
use lateral_substrate::fault::{FaultPlan, FaultSpec};
use lateral_substrate::substrate::Substrate;
use lateral_substrate::testkit::Echo;

use crate::e2_conformance::all_substrates;
use crate::table::render;

/// Rounds of worker/sidekick traffic driven per scenario — enough to
/// cross every backoff window on every backend.
const ROUNDS: usize = 60;

/// One (backend × fault plan) measurement.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Fault-plan name.
    pub scenario: &'static str,
    /// Worker invocations that returned `Unavailable` during the sweep.
    pub lost: u32,
    /// Logical-clock ticks from the first lost call to the first served
    /// call afterwards; `None` when the worker never recovered.
    pub ticks_to_recovery: Option<u64>,
    /// Restarts the supervisor performed.
    pub restarts: u32,
    /// Final assembly health.
    pub health: String,
    /// Whether post-restart attestation evidence matched the baseline
    /// (`match` / `n/a` for non-attesting or never-recovered cells).
    pub evidence: &'static str,
}

/// All scenario results for one backend, plus its fault-trace digest.
#[derive(Clone, Debug)]
pub struct BackendRecovery {
    /// Backend name (substrate profile).
    pub backend: String,
    /// One entry per fault plan in the sweep.
    pub scenarios: Vec<ScenarioResult>,
    /// Digest over the backend's full fabric trace byte-stream after the
    /// sweep — the determinism witness.
    pub trace_digest: String,
}

fn factory() -> Box<dyn ComponentFactory> {
    Box::new(|_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>))
}

/// The fault-plan sweep: a transient crash that recovers, a crash whose
/// first respawn is also injected to fail, and a permanent crash that
/// exhausts the budget and quarantines.
fn sweep() -> Vec<(&'static str, FaultPlan, RestartPolicy)> {
    vec![
        (
            "transient-crash",
            FaultPlan::new().with(FaultSpec::crash("worker", 2)),
            RestartPolicy::Restart {
                max_restarts: 3,
                backoff_base: 20,
            },
        ),
        (
            "crash+spawn-fail",
            FaultPlan::new()
                .with(FaultSpec::crash("worker", 1))
                .with(FaultSpec::fail_spawn("worker", 1)),
            RestartPolicy::Restart {
                max_restarts: 3,
                backoff_base: 10,
            },
        ),
        (
            "permanent-crash",
            FaultPlan::new().with(FaultSpec::crash("worker", 1).permanent()),
            RestartPolicy::Restart {
                max_restarts: 2,
                backoff_base: 10,
            },
        ),
    ]
}

/// Runs one fault plan against one fresh backend; returns the
/// measurement and the backend's trace bytes.
fn run_one(
    sub: Box<dyn Substrate>,
    scenario: &'static str,
    plan: FaultPlan,
    policy: RestartPolicy,
) -> (ScenarioResult, Vec<u8>) {
    let app = AppManifest::new(
        "e10",
        vec![
            ComponentManifest::new("worker").restart(policy),
            ComponentManifest::new("sidekick"),
        ],
    );
    let mut sup = Supervisor::new(app, vec![sub], factory()).expect("compose e10 app");
    let baseline = sup
        .baseline_measurement("worker")
        .expect("baseline recorded");
    sup.assembly_mut()
        .substrate_mut(0)
        .fabric_mut()
        .install_fault_plan(plan);

    let mut lost = 0u32;
    let mut crash_tick: Option<u64> = None;
    let mut recovered_tick: Option<u64> = None;
    for _ in 0..ROUNDS {
        let now = sup.assembly_mut().substrate_mut(0).now();
        match sup.call("worker", b"ping") {
            Ok(_) => {
                if crash_tick.is_some() && recovered_tick.is_none() {
                    recovered_tick = Some(now);
                }
            }
            Err(CoreError::Unavailable(_)) => {
                lost += 1;
                if crash_tick.is_none() {
                    crash_tick = Some(now);
                }
            }
            Err(e) => panic!("unexpected error on {scenario}: {e}"),
        }
        // Sidekick traffic keeps the logical clock advancing through the
        // backoff window, as unrelated components would in production.
        sup.call("sidekick", b"tick").expect("sidekick stays up");
    }

    // A recovered worker must present evidence carrying the baseline
    // measurement (None on non-attesting substrates — that is `n/a`,
    // not a failure; the supervisor still re-measured the successor).
    let evidence = if recovered_tick.is_some() {
        match sup.evidence("worker") {
            Some(ev) => {
                assert_eq!(
                    ev.measurement, baseline,
                    "recovered evidence must match the baseline measurement"
                );
                "match"
            }
            None => "n/a",
        }
    } else {
        "n/a"
    };
    let result = ScenarioResult {
        scenario,
        lost,
        ticks_to_recovery: match (crash_tick, recovered_tick) {
            (Some(c), Some(r)) => Some(r.saturating_sub(c)),
            _ => None,
        },
        restarts: sup.restarts("worker"),
        health: match sup.health() {
            Health::Healthy => "healthy".to_string(),
            Health::Degraded(names) => format!("degraded({})", names.join(",")),
            Health::Failed => "failed".to_string(),
        },
        evidence,
    };
    let trace = sup.assembly_mut().substrate_mut(0).fabric().trace_bytes();
    (result, trace)
}

/// Runs the full sweep on all six backends.
pub fn run() -> Vec<BackendRecovery> {
    let backend_count = all_substrates().len();
    let mut out = Vec::new();
    for idx in 0..backend_count {
        let mut scenarios = Vec::new();
        let mut trace = Vec::new();
        let mut backend = String::new();
        for (scenario, plan, policy) in sweep() {
            // Each scenario gets a fresh backend instance so fault
            // counters and logical clocks start from zero.
            let sub = all_substrates().remove(idx);
            backend = sub.profile().name.clone();
            let (result, t) = run_one(sub, scenario, plan, policy);
            scenarios.push(result);
            trace.extend_from_slice(&t);
        }
        out.push(BackendRecovery {
            backend,
            scenarios,
            trace_digest: Digest::of(&trace).short_hex(),
        });
    }
    out
}

/// Renders the recovery matrix.
pub fn report() -> String {
    let results = run();
    let mut rows = vec![vec![
        "backend".to_string(),
        "fault plan".to_string(),
        "lost".to_string(),
        "ticks to recovery".to_string(),
        "restarts".to_string(),
        "health".to_string(),
        "evidence".to_string(),
    ]];
    for b in &results {
        for s in &b.scenarios {
            rows.push(vec![
                b.backend.clone(),
                s.scenario.to_string(),
                s.lost.to_string(),
                s.ticks_to_recovery
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                s.restarts.to_string(),
                s.health.clone(),
                s.evidence.to_string(),
            ]);
        }
    }
    let mut digests = vec![vec![
        "backend".to_string(),
        "fault-trace digest".to_string(),
    ]];
    for b in &results {
        digests.push(vec![b.backend.clone(), b.trace_digest.clone()]);
    }
    format!(
        "E10 — recovery under deterministic fault injection\n\n{}\n\
         Transient crashes recover within the declared backoff window and\n\
         re-attest to the baseline measurement; permanent crashes exhaust\n\
         their restart budget and quarantine while the sidekick keeps\n\
         serving. Injected faults are part of the fabric trace:\n\n{}",
        render(&rows),
        render(&digests)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_crash_recovers_on_every_backend() {
        for b in run() {
            let s = &b.scenarios[0];
            assert_eq!(s.scenario, "transient-crash");
            assert!(
                s.ticks_to_recovery.is_some(),
                "{}: transient crash must recover",
                b.backend
            );
            assert_eq!(s.restarts, 1, "{}", b.backend);
            assert_eq!(s.health, "healthy", "{}", b.backend);
            assert!(
                s.lost >= 1,
                "{}: the crash loses at least one call",
                b.backend
            );
        }
    }

    #[test]
    fn permanent_crash_quarantines_on_every_backend() {
        for b in run() {
            let s = &b.scenarios[2];
            assert_eq!(s.scenario, "permanent-crash");
            assert_eq!(s.ticks_to_recovery, None, "{}", b.backend);
            assert_eq!(s.health, "degraded(worker)", "{}", b.backend);
            assert_eq!(s.restarts, 2, "{}: budget fully spent", b.backend);
        }
    }

    #[test]
    fn attesting_backends_reattest_to_baseline() {
        for b in run() {
            let s = &b.scenarios[0];
            if b.backend == "software" {
                assert_eq!(s.evidence, "n/a", "software cannot attest");
            } else {
                assert_eq!(
                    s.evidence, "match",
                    "{}: recovered evidence must match baseline",
                    b.backend
                );
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
