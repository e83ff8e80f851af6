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
//! Two halves, as in E13/E14:
//!
//! * **Deterministic sweep** (all six backends): the identical scenario
//!   on a two-shard fabric of same-seed instances of each backend. The
//!   gates: zero lost acknowledged readings (conservation), shed > 0,
//!   and a fleet-state digest that is identical across every backend
//!   and across two runs.
//! * **Wall-clock measurement** (software backend only): end-to-end
//!   acknowledged readings/sec for the full chaos scenario, written to
//!   `BENCH_E15.json`. Lines are prefixed `wall-clock` so the
//!   run-twice determinism gate in `scripts/check.sh` can filter them.

use std::time::Instant;

use lateral_apps::fleet::{FleetConfig, FleetStats, FleetWorld, FLEET_FW_V2_NAME};
use lateral_substrate::fault::{ChurnEvent, ChurnPlan};
use lateral_substrate::substrate::Substrate;

use crate::e2_conformance::all_substrates;
use crate::table::render;

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

/// Measures end-to-end acknowledged readings/sec for the full chaos
/// scenario (software backend only).
#[must_use]
pub fn run_wall_clock() -> (u64, FleetStats) {
    let mut world = FleetWorld::new(pool(0), scenario());
    let start = Instant::now();
    let stats = world.run();
    let secs = start.elapsed().as_secs_f64();
    let per_sec = if secs > 0.0 {
        (stats.acked as f64 / secs) as u64
    } else {
        u64::MAX
    };
    (per_sec, stats)
}

fn group(n: u64) -> String {
    let digits: Vec<char> = n.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, d) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*d);
    }
    out.chars().rev().collect()
}

/// The machine-readable benchmark record `repro` writes to
/// `BENCH_E15.json`: the scenario parameters, the conservation ledger,
/// and the wall-clock acknowledged-readings rate.
#[must_use]
pub fn bench_json(per_sec: u64, stats: &FleetStats, invariant: bool, digest: &str) -> String {
    format!(
        "{{\n  \"experiment\": \"e15\",\n  \
         \"meters\": {},\n  \
         \"rounds\": {},\n  \
         \"crash_ppm\": {},\n  \
         \"produced\": {},\n  \
         \"acked\": {},\n  \
         \"shed\": {},\n  \
         \"wan_retransmissions\": {},\n  \
         \"crashes\": {},\n  \
         \"respawns\": {},\n  \
         \"quarantined_by_recall\": {},\n  \
         \"readings_per_sec\": {per_sec},\n  \
         \"backend_invariant\": {invariant},\n  \
         \"fleet_digest\": \"{digest}\"\n}}\n",
        FLEET_METERS,
        FLEET_ROUNDS,
        CRASH_PPM,
        stats.produced,
        stats.acked,
        stats.shed,
        stats.wan_retransmissions,
        stats.crashes,
        stats.respawns,
        stats.quarantined_by_recall,
    )
}

/// Renders the fleet robustness report.
#[must_use]
pub fn report() -> String {
    report_and_json().0
}

/// Renders the report together with the machine-readable
/// `BENCH_E15.json` payload, sharing one measurement run.
#[must_use]
pub fn report_and_json() -> (String, String) {
    let results = run();
    let (per_sec, wall_stats) = run_wall_clock();

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
    let digest = results.first().map_or("-", |b| b.fleet_digest.as_str());

    let json = bench_json(per_sec, &wall_stats, invariant, digest);
    let report = format!(
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
         (backend-invariant: {}).\n\n\
         wall-clock   fleet: {:>11} acked readings/sec (software backend, end to end)\n",
        render(&rows),
        group(u64::from(FLEET_METERS)),
        FLEET_ROUNDS,
        BURST_ROUND,
        CRASH_PPM as f64 / 10_000.0,
        RECALL_ROUND,
        if invariant { "yes" } else { "NO" },
        group(per_sec),
    );
    (report, json)
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
    fn report_is_deterministic_modulo_wall_clock() {
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("wall-clock"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let (a, b) = (report(), report());
        assert_eq!(
            strip(&a),
            strip(&b),
            "two runs must differ only on wall-clock lines"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let stats = FleetStats {
            produced: 700_000,
            acked: 700_000,
            shed: 50_000,
            ..FleetStats::default()
        };
        let json = bench_json(1_500_000, &stats, true, "0011223344556677");
        assert!(json.contains("\"experiment\": \"e15\""));
        assert!(json.contains("\"readings_per_sec\": 1500000"));
        assert!(json.contains("\"backend_invariant\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
