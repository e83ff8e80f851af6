//! E17 — telemetry-driven placement: profile, plan, live-migrate.
//!
//! The composer places security-first: among the substrates that defend
//! a component's required attacker models it picks the smallest TCB, so
//! a pool pairing one hardware backend with a plain software substrate
//! starts every component on the hardware side — and pays that
//! backend's crossing prices on every call. This experiment closes the
//! observability loop the other way: the fabric's retained trace folds
//! into a [`lateral_telemetry::profile::CrossingProfile`], every pool
//! member exposes its cost model as data
//! ([`lateral_substrate::substrate::Substrate::cost_model`]), and the
//! supervisor's placement optimizer re-prices the *observed* traffic on
//! every candidate — still inside the manifest's isolation envelope —
//! then live-migrates the winners (seal-escrow → destroy → respawn →
//! re-measure → re-attest → re-grant).
//!
//! Per backend pair `[X, software]` we drive a fixed workload window,
//! run `optimize()` + `apply_plan()`, and rerun the *identical* window.
//! Gates:
//!
//! * ticks drop after migration on every hardware pair; the degenerate
//!   `[software, software]` pair ties and stays put (zero moves, equal
//!   windows);
//! * the plan's *decision digest* — component names, observed traffic,
//!   eligibility, and chosen-is-optimal flags, with backend-specific
//!   costs excluded — is identical across all six pairs and across two
//!   runs;
//! * zero POLA violations (no fabric denials, undeclared channels stay
//!   refused), measurements match baselines, and escrowed sealed state
//!   reopens at the new home.
//!
//! The report stays on the logical clock: no leg is timed.

use lateral_core::composer::{ComponentFactory, Health};
use lateral_core::manifest::{AppManifest, ComponentManifest};
use lateral_core::supervisor::Supervisor;
use lateral_substrate::component::Component;
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::Substrate;
use lateral_substrate::testkit::Echo;

use crate::e2_conformance::all_substrates;
use crate::table::render;

/// Workload rounds per measured window (each round is three calls:
/// meter→ledger, ledger→audit, environment→meter).
const ROUNDS: usize = 32;

/// Uncounted rounds driven before each window so lazily granted
/// environment capabilities and bridges exist before measuring.
const WARMUP_ROUNDS: usize = 2;

/// Meter → ledger payload (the fat edge).
const METER_PAYLOAD: [u8; 48] = [0x17; 48];
/// Ledger → audit payload.
const AUDIT_PAYLOAD: [u8; 16] = [0x17; 16];
/// Environment → meter payload.
const ENV_PAYLOAD: [u8; 8] = [0x17; 8];

/// The sealed state escrowed through the migration.
const LEDGER_SECRET: &[u8] = b"e17 ledger running total";

/// One `[backend, software]` pair's measurements.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// The pair's first pool member (the security-first home).
    pub backend: String,
    /// Substrate the components started on.
    pub placed_before: String,
    /// Substrate the meter ended on after the plan was applied.
    pub placed_after: String,
    /// Moves the plan proposed.
    pub moves: usize,
    /// Live migrations the supervisor performed.
    pub migrations: u32,
    /// Logical ticks one workload window cost before optimization.
    pub ticks_before: u64,
    /// Logical ticks the identical window cost after optimization.
    pub ticks_after: u64,
    /// Saving the plan predicted from profile × cost model.
    pub predicted_saving: u64,
    /// `clean` when no fabric denial occurred and undeclared channels
    /// stayed refused across the migration.
    pub pola: &'static str,
    /// `intact` when every post-migration measurement matches its
    /// baseline and the escrowed sealed blob reopened at the new home.
    pub state: &'static str,
    /// Digest of the full plan (includes backend-specific costs).
    pub plan_digest: String,
    /// Backend-invariant digest of the decisions (costs excluded).
    pub decision_digest: String,
}

fn app() -> AppManifest {
    AppManifest::new(
        "e17",
        vec![
            ComponentManifest::new("meter").channel("feed", "ledger", 17),
            ComponentManifest::new("ledger").channel("audit", "audit", 18),
            ComponentManifest::new("audit"),
        ],
    )
}

fn factory() -> Box<dyn ComponentFactory> {
    Box::new(|_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>))
}

/// One pool: the conformance backend at `idx` plus a plain software
/// substrate the optimizer can relax onto.
fn pair(idx: usize) -> Vec<Box<dyn Substrate>> {
    vec![
        all_substrates().remove(idx),
        Box::new(SoftwareSubstrate::new("e17-relief")),
    ]
}

/// Drives `rounds` workload rounds (three calls each).
fn drive(sup: &mut Supervisor, rounds: usize) {
    for _ in 0..rounds {
        let fed = sup
            .assembly_mut()
            .call_channel("meter", "feed", &METER_PAYLOAD)
            .expect("meter feed");
        assert_eq!(fed, METER_PAYLOAD, "echo ledger returns the reading");
        sup.assembly_mut()
            .call_channel("ledger", "audit", &AUDIT_PAYLOAD)
            .expect("ledger audit");
        sup.call("meter", &ENV_PAYLOAD).expect("environment poll");
    }
}

/// Sum of the pool's logical clocks — window deltas are exactly the
/// ticks the workload charged.
fn pool_ticks(sup: &mut Supervisor) -> u64 {
    (0..sup.assembly().substrate_count())
        .map(|i| sup.assembly_mut().substrate_mut(i).now())
        .sum()
}

/// Capability presentations the pool's fabrics refused so far.
fn pool_denials(sup: &mut Supervisor) -> u64 {
    (0..sup.assembly().substrate_count())
        .map(|i| {
            let sub = sup.assembly_mut().substrate_mut(i);
            sub.telemetry().metrics().counter("fabric.denials")
        })
        .sum()
}

/// Runs the full profile → plan → migrate → re-measure cycle on the
/// pair at `idx` in the conformance pool.
fn run_pair(idx: usize) -> PairOutcome {
    let mut sup = Supervisor::new(app(), pair(idx), factory()).expect("compose e17 pair");
    let backend = sup.assembly_mut().substrate_mut(0).profile().name.clone();
    let placed_before = sup.assembly().substrate_of("meter").expect("meter placed");
    let denial_base = pool_denials(&mut sup);

    // Seal the ledger's running state at its security-first home and
    // escrow it with the supervisor: sealing keys never cross
    // substrates, so migration must carry the plaintext, not the blob.
    let lp = sup.assembly().placement("ledger").expect("ledger placed");
    let blob = sup
        .assembly_mut()
        .substrate_mut(lp.substrate)
        .seal(lp.domain, LEDGER_SECRET)
        .expect("seal ledger state");
    sup.register_sealed("ledger", blob);

    // Window 1: the observed traffic the profile is folded from.
    drive(&mut sup, WARMUP_ROUNDS);
    let t0 = pool_ticks(&mut sup);
    drive(&mut sup, ROUNDS);
    let ticks_before = pool_ticks(&mut sup) - t0;

    // Profile × every pool cost model → deterministic plan.
    let plan = sup.optimize().expect("optimize");
    let moves = plan.move_count();
    let predicted_saving = plan.predicted_saving();
    let plan_digest = plan.digest().short_hex();
    let decision_digest = plan.decision_digest().short_hex();

    // Live migration: seal-escrow, destroy, respawn on the chosen
    // substrate, re-measure, re-attest, re-grant.
    let applied = sup.apply_plan(&plan).expect("apply plan");
    let migrations: u32 = ["meter", "ledger", "audit"]
        .iter()
        .map(|n| sup.migrations(n))
        .sum();
    assert_eq!(applied, migrations, "apply reports every migration");
    let placed_after = sup.assembly().substrate_of("meter").expect("meter placed");

    // Window 2: the identical workload at the optimized placement.
    drive(&mut sup, WARMUP_ROUNDS);
    let t1 = pool_ticks(&mut sup);
    drive(&mut sup, ROUNDS);
    let ticks_after = pool_ticks(&mut sup) - t1;

    // POLA across the migration: nothing was denied at the fabric, and
    // a channel the manifest never declared still does not exist.
    let undeclared_refused = sup
        .assembly_mut()
        .call_channel("audit", "backdoor", b"x")
        .is_err();
    let pola = if pool_denials(&mut sup) == denial_base
        && undeclared_refused
        && sup.health() == Health::Healthy
    {
        "clean"
    } else {
        "VIOLATION"
    };

    // State across the migration: measurements still match the
    // composition-time baselines, and the escrowed blob — re-sealed by
    // the migration at the new home — reopens to the same plaintext.
    let measurements_match = ["meter", "ledger", "audit"]
        .iter()
        .all(|n| sup.baseline_measurement(n) == sup.assembly().measurement(n).ok());
    let lp = sup.assembly().placement("ledger").expect("ledger placed");
    let blobs = sup.sealed_blobs("ledger").to_vec();
    let reopened = sup
        .assembly_mut()
        .substrate_mut(lp.substrate)
        .unseal(lp.domain, &blobs[0])
        .expect("unseal escrowed state at the current home");
    let state = if measurements_match && reopened == LEDGER_SECRET {
        "intact"
    } else {
        "DIVERGED"
    };

    PairOutcome {
        backend,
        placed_before,
        placed_after,
        moves,
        migrations,
        ticks_before,
        ticks_after,
        predicted_saving,
        pola,
        state,
        plan_digest,
        decision_digest,
    }
}

/// Runs the cycle on every `[backend, software]` pair.
#[must_use]
pub fn run() -> Vec<PairOutcome> {
    (0..all_substrates().len()).map(run_pair).collect()
}

/// Renders the placement report.
#[must_use]
pub fn report() -> String {
    let results = run();

    let mut rows = vec![vec![
        "pair".to_string(),
        "placement".to_string(),
        "moves".to_string(),
        "migr".to_string(),
        "ticks before".to_string(),
        "ticks after".to_string(),
        "predicted".to_string(),
        "pola".to_string(),
        "state".to_string(),
    ]];
    for p in &results {
        let placement = if p.moves == 0 {
            format!("{} (stay)", p.placed_before)
        } else {
            format!("{}\u{2192}{}", p.placed_before, p.placed_after)
        };
        rows.push(vec![
            format!("[{} software]", p.backend),
            placement,
            p.moves.to_string(),
            p.migrations.to_string(),
            p.ticks_before.to_string(),
            p.ticks_after.to_string(),
            p.predicted_saving.to_string(),
            p.pola.to_string(),
            p.state.to_string(),
        ]);
    }

    let mut digests = vec![vec![
        "pair".to_string(),
        "plan digest".to_string(),
        "decision digest".to_string(),
    ]];
    for p in &results {
        digests.push(vec![
            format!("[{} software]", p.backend),
            p.plan_digest.clone(),
            p.decision_digest.clone(),
        ]);
    }

    let invariant = results
        .iter()
        .all(|p| p.decision_digest == results[0].decision_digest)
        && results
            .iter()
            .all(|p| p.pola == "clean" && p.state == "intact");
    format!(
        "E17 — telemetry-driven placement: crossing profiles, cost models, live migration\n\n\
         {}\n\
         Each pool pairs one backend with a plain software substrate; the\n\
         composer's security-first rule starts all three components on the\n\
         smaller-TCB backend. The optimizer folds the fabric's observed\n\
         crossing costs into a profile, re-prices that exact traffic on\n\
         every pool member's introspectable cost model, and live-migrates\n\
         the winners — seal-escrow, destroy, respawn, re-measure,\n\
         re-attest, re-grant — after which the identical {}-round window\n\
         costs the ticks above. The [software software] pair ties and\n\
         stays put. Full-plan digests are backend-specific (they price\n\
         in ticks); the decision digest is not (backend-invariant: {}):\n\n\
         {}",
        render(&rows),
        ROUNDS,
        if invariant { "yes" } else { "NO" },
        render(&digests),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_pays_on_every_hardware_pair() {
        let results = run();
        assert_eq!(results.len(), 6, "one pair per backend");
        for p in &results {
            if p.backend == "software" {
                assert_eq!(p.moves, 0, "a balanced pair must stay put");
                assert_eq!(p.migrations, 0);
                assert_eq!(
                    p.ticks_before, p.ticks_after,
                    "identical windows on an unchanged placement"
                );
            } else {
                assert_eq!(p.placed_before, p.backend, "security-first start");
                assert_eq!(p.placed_after, "software", "optimizer relaxes");
                assert_eq!(p.moves, 3, "{}: all three components move", p.backend);
                assert_eq!(p.migrations, 3, "{}", p.backend);
                assert!(
                    p.ticks_after < p.ticks_before,
                    "{}: migration must pay ({} → {})",
                    p.backend,
                    p.ticks_before,
                    p.ticks_after
                );
                assert!(p.predicted_saving > 0, "{}", p.backend);
            }
        }
    }

    #[test]
    fn decision_digest_is_backend_invariant() {
        let results = run();
        for p in &results {
            assert_eq!(
                p.decision_digest, results[0].decision_digest,
                "{}: decisions must be backend-invariant",
                p.backend
            );
        }
    }

    #[test]
    fn migration_violates_nothing() {
        for p in run() {
            assert_eq!(p.pola, "clean", "{}", p.backend);
            assert_eq!(p.state, "intact", "{}", p.backend);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plan_digest, y.plan_digest, "{}", x.backend);
            assert_eq!(x.ticks_before, y.ticks_before, "{}", x.backend);
            assert_eq!(x.ticks_after, y.ticks_after, "{}", x.backend);
        }
    }
}
