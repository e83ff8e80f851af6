//! `fleet`: E15's chaos mix as a batch job driven through
//! `FleetWorld::tick`.
//!
//! Each episode builds a 100k-meter world on two software shards and
//! ticks it until every reading is acknowledged: a burst round, a ~1%
//! crash wave with re-attestation on respawn, a v2 recall, and WAN
//! `DropEvery(7)` throughout. The seed picks the burst round, the crash
//! round and the crash fraction; the recall round and the number of
//! production rounds are fixed so every seed sees the same mix of tick
//! kinds. Episodes repeat until the time budget is spent; the last one
//! always runs to completion so conservation can be checked.

use std::time::{Duration, Instant};

use lateral_apps::fleet::{FleetConfig, FleetStats, FleetWorld, ShardAggregator, FLEET_FW_V2_NAME};
use lateral_substrate::cap::Badge;
use lateral_substrate::fault::{ChurnEvent, ChurnPlan};
use lateral_substrate::shard::{ShardFabric, ShardId};
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::Echo;

use crate::host::Gauge;
use crate::report::{peak_rss_mb, Modes, Outcome};
use crate::rng::Rng;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::Faults;

/// Meters per world (E15's size: one tick's working set is far above L2).
pub const METERS: u32 = 100_000;
/// Production rounds per episode.
const ROUNDS: u64 = 12;
/// The round the v2 recall lands in: two rounds before the end, as in
/// E15, so the burst's shed backlog outlives production and every
/// episode ends with drain ticks.
const RECALL_ROUND: u64 = ROUNDS - 2;
/// Ticks a crashed meter waits before respawning (the default).
const RESTART_BACKOFF: u64 = 2;
/// Ticks allowed after the last round before the drain counts as stuck.
const DRAIN_BOUND: u64 = 64;
/// Ticks a run takes at least, so its p90 has more than ten beyond it
/// even when the host is slow; episodes continue past the time budget
/// until there are this many.
const MIN_TICKS: u64 = 120;

/// Tick kinds, in report order.
const KINDS: [&str; 4] = ["burst", "churn", "calm", "drain"];

/// The seeded episode schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    burst: u64,
    crash: u64,
    crash_ppm: u32,
}

impl Schedule {
    /// Draws one episode's churn parameters.
    pub fn draw(rng: &mut Rng) -> Schedule {
        let burst = rng.range(1, 3);
        let mut crash = rng.range(2, 5);
        if crash == burst {
            crash += 2;
        }
        Schedule {
            burst,
            crash,
            crash_ppm: rng.range(8_000, 12_000) as u32,
        }
    }

    fn config(&self, meters: u32) -> FleetConfig {
        FleetConfig {
            meters,
            shards: 2,
            inbox_capacity: (meters / 2) as usize,
            rounds: ROUNDS,
            burst_round: Some(self.burst),
            churn: ChurnPlan::new()
                .with(ChurnEvent::crash_fraction(self.crash, self.crash_ppm))
                .with(ChurnEvent::recall(RECALL_ROUND, FLEET_FW_V2_NAME)),
            drop_every: 7,
            restart_backoff: RESTART_BACKOFF,
            ..FleetConfig::default()
        }
    }

    /// The kind of tick `t`.
    fn kind(&self, t: u64) -> usize {
        if t >= ROUNDS {
            3
        } else if t == self.burst {
            0
        } else if t == self.crash || t == self.crash + RESTART_BACKOFF || t == RECALL_ROUND {
            1
        } else {
            2
        }
    }
}

fn pool() -> Vec<Box<dyn Substrate>> {
    (0..2)
        .map(|i| Box::new(SoftwareSubstrate::new(&format!("fleet{i}"))) as Box<dyn Substrate>)
        .collect()
}

/// Checks one finished episode: every produced reading acknowledged,
/// watt-hours conserved into the aggregators, nothing left in flight.
pub fn conservation(
    stats: &FleetStats,
    totals: &[(u64, u64)],
    pending: usize,
) -> Result<(), String> {
    let (count, wh): (u64, u64) = totals
        .iter()
        .fold((0, 0), |(c, w), (tc, tw)| (c + tc, w + tw));
    if stats.acked != stats.produced {
        return Err(format!(
            "acked {} != produced {} readings",
            stats.acked, stats.produced
        ));
    }
    if count != stats.acked {
        return Err(format!(
            "aggregators hold {count} readings, {} acked",
            stats.acked
        ));
    }
    if wh != stats.produced_wh {
        return Err(format!(
            "aggregated {wh} Wh != produced {} Wh",
            stats.produced_wh
        ));
    }
    if pending != 0 {
        return Err(format!("{pending} readings still pending"));
    }
    Ok(())
}

/// Episode results summed over the run.
#[derive(Default)]
struct Tally {
    episodes: u64,
    produced: u64,
    acked: u64,
    shed: u64,
    wan_batches: u64,
    wan_transmissions: u64,
    wan_timeouts: u64,
    wan_duplicates: u64,
    respawns: u64,
    quarantined: u64,
    drain_ticks: u64,
    packets: u64,
    delivered: u64,
    dropped: u64,
    recorded_bytes: u64,
    resolves: u64,
    cache_hits: u64,
    cache_lookups: u64,
    tick_time: Duration,
    tick_ms: Samples,
    kind_ms: [Vec<f64>; 4],
    setup_wall: Vec<f64>,
    setup_s: Vec<f64>,
}

/// Runs whole episodes until `seconds` have passed; see
/// [`crate::invoke::run`] for `trace`.
pub fn run(seed: u64, seconds: f64, trace: bool, faults: Faults) -> Outcome {
    run_sized(seed, seconds, trace, faults, METERS, MIN_TICKS)
}

fn run_sized(
    seed: u64,
    seconds: f64,
    trace: bool,
    faults: Faults,
    meters: u32,
    min_ticks: u64,
) -> Outcome {
    let mut tracer = Tracer::new(false);
    let new_span = tracer.intern("fleet.new");
    let kind_spans: Vec<_> = KINDS
        .iter()
        .map(|k| tracer.intern(&format!("fleet.tick.{k}")))
        .collect();
    let mut rng = Rng::new(seed, "fleet.churn");
    let mut tally = Tally::default();
    let mut modes = Modes::default();
    let mut violations = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let mut gauge = Gauge::new();
    let start = Instant::now();
    // Untraced runs need enough ticks for their p90.
    while start.elapsed() < budget || (!trace && tally.tick_ms.len() < min_ticks) {
        let schedule = Schedule::draw(&mut rng);
        if trace {
            tracer.set_enabled(tally.episodes % 2 == 1);
        }
        let episode = tally.episodes;
        let span = tracer.begin(new_span, episode << 16, 1);
        let (mut world, wall, scaled) =
            gauge.paired(|| FleetWorld::new(pool(), schedule.config(meters)));
        tracer.end(span);
        tally.setup_wall.push(wall);
        tally.setup_s.push(scaled);

        let mut busy = Duration::ZERO;
        let mut t = 0u64;
        while t < ROUNDS || world.pending() > 0 {
            if t >= ROUNDS + DRAIN_BOUND {
                violations.push(format!("episode {episode}: fleet failed to drain"));
                break;
            }
            gauge.maybe();
            let kind = schedule.kind(t);
            let t0 = Instant::now();
            let span = tracer.begin(kind_spans[kind], (episode << 16) | t, 1);
            world.tick();
            tracer.end(span);
            let dt = t0.elapsed();
            busy += dt;
            let ms = dt.as_secs_f64() * 1e3;
            tally.tick_ms.push(ms);
            tally.kind_ms[kind].push(ms);
            tally.drain_ticks += u64::from(kind == 3);
            t += 1;
        }
        tally.tick_time += busy;

        let mut stats = *world.stats();
        if faults.lose_reading {
            stats.acked -= 1;
        }
        if let Err(e) = conservation(&stats, &world.shard_totals(), world.pending()) {
            violations.push(format!("episode {episode}: {e}"));
        }
        modes.add(tracer.enabled(), stats.acked, busy);
        tally.episodes += 1;
        tally.produced += stats.produced;
        tally.acked += stats.acked;
        tally.shed += stats.shed;
        tally.wan_batches += stats.wan_batches;
        tally.wan_transmissions += stats.wan_batches + stats.wan_retransmissions;
        tally.wan_timeouts += stats.wan_timeouts;
        tally.wan_duplicates += stats.wan_duplicates;
        tally.respawns += stats.respawns;
        tally.quarantined += world.quarantined() as u64;
        let net = &world.network;
        tally.packets += net.recorded().len() as u64;
        tally.recorded_bytes += net
            .recorded()
            .iter()
            .map(|p| p.payload.len() as u64)
            .sum::<u64>();
        tally.delivered += net.delivered();
        tally.dropped += net.dropped();
        let reg = world.registry.stats();
        tally.resolves += reg.resolves;
        tally.cache_hits += reg.cache_hits;
        tally.cache_lookups += reg.cache_hits + reg.cache_misses;
    }

    let mut out = Outcome {
        attempted: tally.produced,
        failed: tally.produced - tally.acked.min(tally.produced),
        ..Outcome::default()
    };
    for v in violations {
        out.violation(v);
    }
    out.lines.push(format!(
        "check: {} episodes checked for acked == produced, conserved Wh, nothing pending",
        tally.episodes
    ));
    out.lines.push(format!(
        "episodes {}, ticks {}, meters {meters}",
        tally.episodes,
        tally.tick_ms.len()
    ));
    for (kind, ms) in KINDS.iter().zip(&tally.kind_ms) {
        if !ms.is_empty() {
            out.lines.push(format!(
                "ticks {kind:<5} n={:<4} median={:.3} ms min={:.3} max={:.3}",
                ms.len(),
                median(ms),
                ms.iter().copied().fold(f64::MAX, f64::min),
                ms.iter().copied().fold(0.0, f64::max)
            ));
        }
    }
    if trace {
        layer_metrics(&mut out, &tracer, &tally, &modes);
    } else {
        out.metric(
            "setup_s",
            median(&tally.setup_s),
            tally.setup_s.len() as u64,
            format!(
                "FleetWorld::new as on the reference host, median over episodes ({:.6} s wall-clock)",
                median(&tally.setup_wall)
            ),
        );
        let wall = tally.acked as f64 / tally.tick_time.as_secs_f64();
        out.metric(
            "ops_per_s",
            gauge.rate(wall),
            tally.acked,
            format!(
                "acked readings over {:.3} s of ticks, {wall:.0}/s wall-clock",
                tally.tick_time.as_secs_f64()
            ),
        );
        let scale = gauge.time(1.0);
        out.percentile("latency_p50_us", &tally.tick_ms, 500, 1e3 * scale, "ticks");
        out.percentile("round_p50_ms", &tally.tick_ms, 500, scale, "ticks");
        out.percentile("round_p90_ms", &tally.tick_ms, 900, scale, "ticks");
        out.metric("peak_rss_mb", peak_rss_mb(), 1, "VmHWM");
        out.metric(
            "failed_ratio",
            out.failed as f64 / tally.produced.max(1) as f64,
            tally.produced,
            "(produced - acked) / produced",
        );
        out.lines.push(gauge.line());
    }
    out
}

fn layer_metrics(out: &mut Outcome, tracer: &Tracer, tally: &Tally, modes: &Modes) {
    for (kind, ms) in KINDS.iter().zip(&tally.kind_ms) {
        if !ms.is_empty() {
            out.metric(
                &format!("fleet.tick_ms.{kind}"),
                median(ms),
                ms.len() as u64,
                "median tick of this kind",
            );
        }
    }
    out.metric(
        "fleet.ingest_useful_ratio",
        tally.acked as f64 / (tally.acked + tally.shed).max(1) as f64,
        tally.acked + tally.shed,
        "accepted / (accepted + shed)",
    );
    out.metric(
        "fleet.wan_useful_ratio",
        tally.wan_batches as f64 / tally.wan_transmissions.max(1) as f64,
        tally.wan_transmissions,
        "batches / transmissions",
    );
    out.count("fleet.wan_timeouts", tally.wan_timeouts, "whole run");
    out.count("fleet.wan_duplicates", tally.wan_duplicates, "whole run");
    out.count("fleet.respawns", tally.respawns, "whole run");
    out.count("fleet.quarantined", tally.quarantined, "at episode ends");
    out.count("fleet.drain_ticks", tally.drain_ticks, "whole run");
    out.count("net.packets", tally.packets, "WAN, whole run");
    out.count("net.delivered", tally.delivered, "WAN, whole run");
    out.count("net.dropped", tally.dropped, "WAN, whole run");
    out.metric(
        "net.recorded_mb",
        tally.recorded_bytes as f64 / (1024.0 * 1024.0),
        tally.packets,
        "payload bytes the WAN recorded",
    );
    let acked = tally.acked.max(1) as f64;
    out.metric(
        "net.records_per_request",
        tally.packets as f64 / acked,
        tally.acked,
        "per acked reading",
    );
    out.metric(
        "net.bytes_per_request",
        tally.recorded_bytes as f64 / acked,
        tally.acked,
        "per acked reading",
    );
    out.count(
        "registry.resolves",
        tally.resolves,
        "respawn re-resolves, whole run",
    );
    out.metric(
        "registry.cache_hit_ratio",
        tally.cache_hits as f64 / tally.cache_lookups.max(1) as f64,
        tally.cache_lookups,
        "verdict cache",
    );
    modes.report(out);
    batch_probe(out);
    crate::selftime_table(out, tracer, tally.tick_ms.len());
    crate::write_trace(tracer, "fleet", out);
}

/// `fabric.batch_ns_per_call` at the fleet's size: one `invoke_batch` of
/// a shard's per-tick readings into a `ShardAggregator` on a shard fabric.
fn batch_probe(out: &mut Outcome) {
    let mut fab = ShardFabric::new(pool());
    fab.pin("agg", ShardId(0));
    fab.pin("ingress", ShardId(0));
    let agg = fab
        .spawn(
            DomainSpec::named("agg"),
            Box::new(ShardAggregator::default()),
        )
        .expect("spawn");
    let env = fab
        .spawn(DomainSpec::named("ingress"), Box::new(Echo))
        .expect("spawn");
    let cap = fab.grant_channel(env, agg, Badge(15)).expect("grant");
    let readings: Vec<Vec<u8>> = (0..u64::from(METERS / 2))
        .map(|m| {
            let mut r = Vec::with_capacity(11);
            r.extend_from_slice(&(m as u32).to_le_bytes());
            r.extend_from_slice(&1u32.to_le_bytes());
            r.push(0);
            r.extend_from_slice(&(1_000 + (m % 7) as u16 * 50).to_le_bytes());
            r
        })
        .collect();
    let views: Vec<&[u8]> = readings.iter().map(Vec::as_slice).collect();
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let acks = fab
            .invoke_batch(env, &cap, &views)
            .expect("aggregation batch");
        per_call.push(t0.elapsed().as_nanos() as f64 / acks.len() as f64);
    }
    out.metric(
        "fabric.batch_ns_per_call",
        median(&per_call),
        per_call.len() as u64,
        format!("probe, invoke_batch of {} readings", views.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_comes_from_the_seed() {
        let draw = |seed| Schedule::draw(&mut Rng::new(seed, "fleet.churn"));
        assert_eq!(draw(5), draw(5));
        let distinct: std::collections::BTreeSet<_> =
            (0..32).map(|s| format!("{:?}", draw(s))).collect();
        assert!(distinct.len() > 8, "seeds vary the churn");
        for s in 0..64 {
            let d = draw(s);
            assert!((1..=3).contains(&d.burst));
            assert!(d.crash != d.burst && d.crash < RECALL_ROUND);
            assert!((8_000..=12_000).contains(&d.crash_ppm));
        }
    }

    #[test]
    fn conservation_catches_a_lost_reading() {
        let stats = FleetStats {
            produced: 10,
            produced_wh: 10_000,
            acked: 10,
            ..FleetStats::default()
        };
        let totals = [(6, 6_000), (4, 4_000)];
        assert!(conservation(&stats, &totals, 0).is_ok());
        let lost = FleetStats { acked: 9, ..stats };
        assert!(conservation(&lost, &totals, 0).is_err());
        assert!(conservation(&stats, &[(6, 6_000), (4, 3_999)], 0).is_err());
        assert!(conservation(&stats, &totals, 1).is_err());
    }

    #[test]
    fn a_small_fleet_passes_its_checks_and_a_lost_reading_fails_the_run() {
        for seed in [1, 2] {
            let ok = run_sized(seed, 0.01, false, Faults::default(), 2_000, 1);
            assert!(ok.correct(), "seed {seed}: {:?}", ok.violations);
            assert_eq!(ok.failed, 0);
        }
        let lost = run_sized(
            1,
            0.01,
            false,
            Faults {
                lose_reading: true,
                ..Faults::default()
            },
            2_000,
            1,
        );
        assert!(!lost.correct());
    }
}
