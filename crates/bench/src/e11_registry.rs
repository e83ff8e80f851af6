//! E11 — registry admission and revocation sweep.
//!
//! The component registry (PR 3) turns composition into an *admission*
//! decision: images are content-addressed, certified by a static pass
//! pipeline (publisher chain, POLA lint, TCB budget), and served only
//! while neither uncertified nor revoked. This experiment drives the
//! whole admission state machine on every backend:
//!
//! * **composition** — a certified app is admitted; uncertified,
//!   unknown, and revoked images are refused with a diagnosis;
//! * **caching** — repeated composition of the same app answers
//!   certification from the verdict cache (hit ratio > 0);
//! * **revocation** — revoking a *running* component's digest
//!   quarantines the instance within a bounded number of supervision
//!   ticks, and a crashed component whose image was revoked while down
//!   is refused at respawn without burning restart budget.
//!
//! Every registry operation lands in the registry's deterministic
//! trace; the per-backend trace digest printed at the bottom is the
//! determinism witness for the `scripts/check.sh` run-twice gate.

use lateral_core::composer::{compose_admitted, ComponentFactory, Health};
use lateral_core::manifest::{AppManifest, ComponentManifest, RestartPolicy};
use lateral_core::supervisor::Supervisor;
use lateral_core::CoreError;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_registry::{measurement_of, ManifestDraft, Registry};
use lateral_substrate::component::Component;
use lateral_substrate::fault::{FaultPlan, FaultSpec};
use lateral_substrate::testkit::Echo;

use crate::e2_conformance::all_substrates;
use crate::table::render;

const WORKER_IMAGE: &[u8] = b"e11 worker v1";
const SIDEKICK_IMAGE: &[u8] = b"e11 sidekick v1";
const ROGUE_IMAGE: &[u8] = b"e11 rogue build";
const VICTIM_IMAGE: &[u8] = b"e11 victim v1";

/// Compositions of the certified app per backend — the repeats that
/// exercise the verdict cache.
const COMPOSE_REPEATS: usize = 4;

/// Upper bound on supervision ticks allowed between revocation and
/// quarantine before the cell is reported as `None` (never quarantined).
const TICK_BOUND: u64 = 8;

/// Rounds of driven traffic in the respawn-refusal scenario.
const ROUNDS: usize = 40;

/// One backend's admission measurements.
#[derive(Clone, Debug)]
pub struct BackendAdmission {
    /// Backend name (substrate profile).
    pub backend: String,
    /// Certified app: all `COMPOSE_REPEATS` compositions admitted.
    pub certified_admitted: bool,
    /// Uncertified (untrusted publisher) image refused at composition.
    pub uncertified_refused: bool,
    /// Unknown component refused at composition.
    pub unknown_refused: bool,
    /// Revoked image refused at composition.
    pub revoked_refused: bool,
    /// Crashed-then-revoked image refused at respawn with zero restarts
    /// burned and the component quarantined.
    pub respawn_refused: bool,
    /// Verdict-cache hits across the composition phase.
    pub cache_hits: u64,
    /// Verdict-cache misses across the composition phase.
    pub cache_misses: u64,
    /// Supervision ticks from revocation to quarantine of the running
    /// instance; `None` if it never quarantined within `TICK_BOUND`.
    pub revoke_to_quarantine_ticks: Option<u64>,
    /// Digest over every registry trace byte-stream this backend's
    /// sweep produced — the determinism witness.
    pub trace_digest: String,
}

impl BackendAdmission {
    /// Cache hits as an integer percentage of certification requests.
    pub fn hit_ratio_pct(&self) -> u64 {
        let total = self.cache_hits + self.cache_misses;
        (self.cache_hits * 100).checked_div(total).unwrap_or(0)
    }
}

fn factory() -> Box<dyn ComponentFactory> {
    Box::new(|_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>))
}

/// A registry holding the sweep's images: worker/sidekick/victim from
/// the trusted publisher, rogue from a stranger (fails the publisher
/// -chain pass).
fn seeded_registry(name: &str) -> Registry {
    let publisher = SigningKey::from_seed(b"e11 publisher");
    let stranger = SigningKey::from_seed(b"e11 stranger");
    let mut reg = Registry::new(name);
    reg.trust_root(&publisher.verifying_key());
    for (component, image) in [
        ("worker", WORKER_IMAGE),
        ("sidekick", SIDEKICK_IMAGE),
        ("victim", VICTIM_IMAGE),
    ] {
        reg.publish(
            image,
            ManifestDraft::new(component, image).sign(&publisher, None),
        )
        .expect("publish");
    }
    reg.publish(
        ROGUE_IMAGE,
        ManifestDraft::new("rogue", ROGUE_IMAGE).sign(&stranger, None),
    )
    .expect("rogue publishes; certification is what fails");
    reg
}

fn certified_app() -> AppManifest {
    AppManifest::new(
        "e11",
        vec![
            ComponentManifest::new("worker")
                .image(WORKER_IMAGE)
                .restart(RestartPolicy::Restart {
                    max_restarts: 3,
                    backoff_base: 10,
                }),
            ComponentManifest::new("sidekick").image(SIDEKICK_IMAGE),
        ],
    )
}

fn single(name: &str, image: &[u8]) -> AppManifest {
    AppManifest::new(
        "e11-single",
        vec![ComponentManifest::new(name).image(image)],
    )
}

fn refused(result: Result<lateral_core::composer::Assembly, CoreError>) -> bool {
    matches!(result, Err(CoreError::AdmissionRefused { .. }))
}

/// Runs the sweep for the backend at `idx` in the conformance pool.
fn run_backend(idx: usize) -> BackendAdmission {
    let mut factory_fn = |_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>);
    let mut trace = Vec::new();

    // --- composition admission + verdict cache -------------------------
    let mut registry = seeded_registry("e11-compose");
    let mut backend = String::new();
    let mut certified_admitted = true;
    for _ in 0..COMPOSE_REPEATS {
        let sub = all_substrates().remove(idx);
        backend = sub.profile().name.clone();
        certified_admitted &=
            compose_admitted(&certified_app(), vec![sub], &mut factory_fn, &mut registry).is_ok();
    }
    let uncertified_refused = refused(compose_admitted(
        &single("rogue", ROGUE_IMAGE),
        vec![all_substrates().remove(idx)],
        &mut factory_fn,
        &mut registry,
    ));
    let unknown_refused = refused(compose_admitted(
        &single("ghost", b"e11 ghost"),
        vec![all_substrates().remove(idx)],
        &mut factory_fn,
        &mut registry,
    ));
    registry
        .revoke(measurement_of(VICTIM_IMAGE), "e11 revocation")
        .expect("victim is published");
    let revoked_refused = refused(compose_admitted(
        &single("victim", VICTIM_IMAGE),
        vec![all_substrates().remove(idx)],
        &mut factory_fn,
        &mut registry,
    ));
    let stats = registry.stats().clone();
    trace.extend_from_slice(&registry.trace_bytes());

    // --- revocation of a running instance: ticks to quarantine ---------
    let mut sup = Supervisor::new_admitted(
        certified_app(),
        vec![all_substrates().remove(idx)],
        factory(),
        seeded_registry("e11-tick"),
    )
    .expect("certified app composes");
    sup.call("worker", b"ping").expect("worker serves");
    sup.registry_mut()
        .expect("admitted supervisor holds the registry")
        .revoke(measurement_of(WORKER_IMAGE), "e11 live revocation")
        .expect("worker is published");
    let mut revoke_to_quarantine_ticks = None;
    for t in 1..=TICK_BOUND {
        let quarantined = sup.tick();
        if quarantined.contains(&"worker".to_string()) {
            revoke_to_quarantine_ticks = Some(t);
            break;
        }
    }
    let tick_degraded = sup.health() == Health::Degraded(vec!["worker".to_string()])
        && sup.call("sidekick", b"x").is_ok();
    trace.extend_from_slice(&sup.registry().expect("registry present").trace_bytes());

    // --- revocation while crashed: respawn refused ----------------------
    let mut sup = Supervisor::new_admitted(
        certified_app(),
        vec![all_substrates().remove(idx)],
        factory(),
        seeded_registry("e11-respawn"),
    )
    .expect("certified app composes");
    sup.assembly_mut()
        .substrate_mut(0)
        .fabric_mut()
        .install_fault_plan(FaultPlan::new().with(FaultSpec::crash("worker", 2)));
    sup.call("worker", b"ping").expect("first call serves");
    let _ = sup.call("worker", b"boom"); // injected crash
    sup.registry_mut()
        .expect("registry present")
        .revoke(measurement_of(WORKER_IMAGE), "e11 revoked while down")
        .expect("worker is published");
    let mut served_after_revocation = 0u32;
    for _ in 0..ROUNDS {
        if sup.call("worker", b"ping").is_ok() {
            served_after_revocation += 1;
        }
        // Sidekick traffic advances the logical clock through the
        // backoff window so the respawn attempt actually fires.
        sup.call("sidekick", b"tick").expect("sidekick stays up");
    }
    let respawn_refused =
        served_after_revocation == 0 && sup.is_quarantined("worker") && sup.restarts("worker") == 0;
    trace.extend_from_slice(&sup.registry().expect("registry present").trace_bytes());

    BackendAdmission {
        backend,
        certified_admitted,
        uncertified_refused,
        unknown_refused,
        revoked_refused,
        respawn_refused,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        revoke_to_quarantine_ticks: revoke_to_quarantine_ticks.filter(|_| tick_degraded),
        trace_digest: Digest::of(&trace).short_hex(),
    }
}

/// Runs the full admission sweep on all six backends.
pub fn run() -> Vec<BackendAdmission> {
    (0..all_substrates().len()).map(run_backend).collect()
}

fn mark(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

/// Renders the admission matrix.
pub fn report() -> String {
    let results = run();
    let mut rows = vec![vec![
        "backend".to_string(),
        "certified".to_string(),
        "uncertified".to_string(),
        "unknown".to_string(),
        "revoked".to_string(),
        "respawn".to_string(),
        "cache h/m".to_string(),
        "hit %".to_string(),
        "revoke→quarantine".to_string(),
    ]];
    for b in &results {
        rows.push(vec![
            b.backend.clone(),
            format!("admitted:{}", mark(b.certified_admitted)),
            format!("refused:{}", mark(b.uncertified_refused)),
            format!("refused:{}", mark(b.unknown_refused)),
            format!("refused:{}", mark(b.revoked_refused)),
            format!("refused:{}", mark(b.respawn_refused)),
            format!("{}/{}", b.cache_hits, b.cache_misses),
            b.hit_ratio_pct().to_string(),
            b.revoke_to_quarantine_ticks
                .map(|t| format!("{t} tick(s)"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    let mut digests = vec![vec![
        "backend".to_string(),
        "registry-trace digest".to_string(),
    ]];
    for b in &results {
        digests.push(vec![b.backend.clone(), b.trace_digest.clone()]);
    }
    format!(
        "E11 — registry admission and revocation sweep\n\n{}\n\
         Certified images are admitted on every backend; uncertified,\n\
         unknown, and revoked ones are refused at composition, and a\n\
         revoked image is refused again at supervised respawn without\n\
         burning restart budget. Repeated composition answers from the\n\
         verdict cache, and revoking a running instance quarantines it\n\
         on the next supervision tick. Registry traces:\n\n{}",
        render(&rows),
        render(&digests)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_outcomes_hold_on_every_backend() {
        let results = run();
        assert_eq!(results.len(), 6, "the sweep covers every backend");
        for b in &results {
            assert!(b.certified_admitted, "{}: certified admitted", b.backend);
            assert!(b.uncertified_refused, "{}: uncertified refused", b.backend);
            assert!(b.unknown_refused, "{}: unknown refused", b.backend);
            assert!(b.revoked_refused, "{}: revoked refused", b.backend);
            assert!(b.respawn_refused, "{}: respawn refused", b.backend);
        }
    }

    #[test]
    fn repeated_composition_hits_the_verdict_cache() {
        for b in run() {
            assert!(
                b.cache_hits > 0,
                "{}: repeated composition must hit the cache",
                b.backend
            );
            assert!(b.hit_ratio_pct() > 0, "{}", b.backend);
        }
    }

    #[test]
    fn revocation_quarantines_within_one_tick() {
        for b in run() {
            assert_eq!(
                b.revoke_to_quarantine_ticks,
                Some(1),
                "{}: the next health tick quarantines",
                b.backend
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
