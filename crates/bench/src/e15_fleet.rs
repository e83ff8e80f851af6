//! E15 — fleet robustness: deterministic chaos, backpressure, and
//! graceful degradation at ≥100k meters.
//!
//! E3 reproduces Figure 3 at its natural scale — one meter, one utility
//! server. This experiment gates the same scenario at fleet scale
//! ([`lateral_apps::fleet`]): a 100k-meter fleet (2k in debug builds)
//! ships sealed reading batches through per-shard concentrators into a
//! two-shard aggregation fabric, while the scenario throws everything
//! the robustness machinery claims to absorb:
//!
//! * a **burst round** that overruns each shard's per-tick admission
//!   bound — readings past it are shed onto a deterministic retry
//!   schedule (counted, never dropped);
//! * a **1% crash wave** at an exact tick — crashed meters run the full
//!   destroy → backoff → respawn → re-measure → re-attest → re-grant
//!   cycle;
//! * a **mid-fleet firmware recall** — the registry revokes the v2
//!   digest and the whole v2 cohort quarantines in that same tick while
//!   the v1 fleet keeps aggregating;
//! * **steady WAN loss** — every batch crosses with deadline-aware
//!   capped backoff, and an exhausted schedule defers the sealed batch
//!   byte-identically rather than dropping it.
//!
//! The identical scenario runs on a two-shard fabric of same-seed
//! instances of each of the six backends. The gates: zero lost
//! acknowledged readings (conservation), shed > 0, and a fleet-state
//! digest that is identical across every backend and across two runs.
//!
//! The report stays on the logical clock. perfbench's `fleet` workload
//! measures acknowledged readings per second on the same scenario at
//! 100k meters.

use lateral_apps::fleet::{FleetConfig, FleetStats, FleetWorld, FLEET_FW_V2_NAME};
use lateral_substrate::fault::{ChurnEvent, ChurnPlan};
use lateral_substrate::substrate::Substrate;

use crate::e2_conformance::all_substrates;
use crate::table::{group, render};

/// Fleet size. Debug builds shrink the fleet so `cargo test` stays
/// fast; the scenario (churn fractions, recall, burst) is identical, so
/// the determinism gates exercise the same machinery at either size.
#[cfg(debug_assertions)]
pub const FLEET_METERS: u32 = 2_000;
/// Fleet size (release: the ≥100k-meter claim).
#[cfg(not(debug_assertions))]
pub const FLEET_METERS: u32 = 100_000;

/// Reading rounds per run.
pub const FLEET_ROUNDS: u64 = 6;

/// Crash fraction of the tick-2 churn wave, in ppm (1%).
pub const CRASH_PPM: u32 = 10_000;

/// The round whose double production overruns the admission bound.
pub const BURST_ROUND: u64 = 1;

/// The round the mid-fleet firmware recall lands in.
pub const RECALL_ROUND: u64 = 4;

/// The E15 scenario: burst at tick 1, 1% crash wave at tick 2, v2
/// recall at tick 4, steady WAN loss throughout, admission sized for
/// exactly one calm round.
#[must_use]
pub fn scenario() -> FleetConfig {
    FleetConfig {
        meters: FLEET_METERS,
        shards: 2,
        inbox_capacity: (FLEET_METERS / 2) as usize,
        rounds: FLEET_ROUNDS,
        burst_round: Some(BURST_ROUND),
        churn: ChurnPlan::new()
            .with(ChurnEvent::crash_fraction(2, CRASH_PPM))
            .with(ChurnEvent::recall(RECALL_ROUND, FLEET_FW_V2_NAME)),
        ..FleetConfig::default()
    }
}

/// One backend's fleet sweep outcome.
#[derive(Clone, Debug)]
pub struct BackendFleet {
    /// Backend name (substrate profile).
    pub backend: String,
    /// Final robustness accounting.
    pub stats: FleetStats,
    /// Meters quarantined at the end (recall + budget + respawn
    /// refusals).
    pub quarantined: usize,
    /// The fleet-state digest — meter states, accounting, per-shard
    /// aggregated totals, and the fabric's backend-invariant merged
    /// trace digest. Must match on every backend and across runs.
    pub fleet_digest: String,
}

/// Builds the two-shard substrate pool for the backend at `idx` in the
/// conformance pool.
fn pool(idx: usize) -> Vec<Box<dyn Substrate>> {
    (0..2).map(|_| all_substrates().remove(idx)).collect()
}

/// Runs the chaos scenario on the backend at `idx`.
fn run_backend(idx: usize) -> BackendFleet {
    let backend = all_substrates()
        .get(idx)
        .expect("index within the conformance pool")
        .profile()
        .name
        .clone();
    let mut world = FleetWorld::new(pool(idx), scenario());
    let stats = world.run();
    assert_eq!(
        stats.acked, stats.produced,
        "{backend}: zero lost readings under churn + overload"
    );
    BackendFleet {
        backend,
        stats,
        quarantined: world.quarantined(),
        fleet_digest: world.fleet_digest().short_hex(),
    }
}

/// Runs the deterministic sweep on all six backends.
#[must_use]
pub fn run() -> Vec<BackendFleet> {
    (0..all_substrates().len()).map(run_backend).collect()
}

/// Renders the fleet robustness report.
#[must_use]
pub fn report() -> String {
    let results = run();

    let mut rows = vec![vec![
        "backend".to_string(),
        "produced".to_string(),
        "acked".to_string(),
        "shed".to_string(),
        "wan rexmit".to_string(),
        "crashes".to_string(),
        "respawns".to_string(),
        "quarantined".to_string(),
        "drain ticks".to_string(),
        "fleet digest".to_string(),
    ]];
    for b in &results {
        rows.push(vec![
            b.backend.clone(),
            b.stats.produced.to_string(),
            b.stats.acked.to_string(),
            b.stats.shed.to_string(),
            b.stats.wan_retransmissions.to_string(),
            b.stats.crashes.to_string(),
            b.stats.respawns.to_string(),
            b.quarantined.to_string(),
            b.stats.drain_ticks.to_string(),
            b.fleet_digest.clone(),
        ]);
    }
    let invariant = results
        .iter()
        .all(|b| b.fleet_digest == results[0].fleet_digest);

    format!(
        "E15 — fleet robustness: chaos, backpressure, graceful degradation\n\n\
         {}\n\
         A {}-meter fleet ran {} rounds on a two-shard fabric of each\n\
         backend, through a burst round (double production, tick {}),\n\
         a {}% crash wave (tick 2, full respawn/re-attest cycle), a\n\
         mid-fleet v2 firmware recall (tick {}, same-tick quarantine),\n\
         and steady WAN loss (sealed batches, capped backoff, typed\n\
         timeouts). Every produced reading was acknowledged — shed and\n\
         deferred load is retried deterministically, never dropped —\n\
         and the fleet-state digest is the same on every backend\n\
         (backend-invariant: {}).\n",
        render(&rows),
        group(u64::from(FLEET_METERS)),
        FLEET_ROUNDS,
        BURST_ROUND,
        CRASH_PPM as f64 / 10_000.0,
        RECALL_ROUND,
        if invariant { "yes" } else { "NO" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sweep_is_backend_invariant() {
        let results = run();
        assert_eq!(results.len(), 6, "the sweep covers every backend");
        for b in &results {
            assert_eq!(
                b.fleet_digest, results[0].fleet_digest,
                "{}: fleet-state digest must be backend-invariant",
                b.backend
            );
            assert_eq!(b.stats.acked, b.stats.produced, "{}", b.backend);
            assert!(b.stats.shed > 0, "{}: the burst must shed", b.backend);
            assert!(b.stats.crashes > 0, "{}: the crash wave fired", b.backend);
            assert!(b.stats.respawns > 0, "{}: meters re-attested", b.backend);
            assert!(
                b.stats.quarantined_by_recall > 0,
                "{}: the recall quarantined the v2 cohort",
                b.backend
            );
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let (a, b) = (run_backend(0), run_backend(0));
        assert_eq!(
            a.fleet_digest, b.fleet_digest,
            "the fleet-state digest must be run-invariant"
        );
        assert_eq!(a.stats, b.stats, "the full accounting must match");
    }

    #[test]
    fn report_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
