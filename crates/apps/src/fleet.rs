//! Fleet-scale smart metering: N simulated meters, a sharded
//! anonymizer/aggregation pipeline, and deterministic chaos.
//!
//! [`smart_meter`](crate::smart_meter) reproduces Figure 3 at its
//! natural scale — one meter, one utility server. The ROADMAP
//! north-star is *production* scale, and this module is the world that
//! gets there: a configurable fleet (stress runs use ≥100k meters)
//! whose readings funnel through per-shard concentrators, cross an
//! adversarial WAN on sealed numbered records, and aggregate inside a
//! [`ShardFabric`] driven with `invoke_batch`. The robustness story is
//! the point:
//!
//! * **Bounded ingest, explicit backpressure** — each tick, a utility
//!   shard admits at most [`FleetConfig::inbox_capacity`] due readings,
//!   encoded back to back into one buffer and aggregated as one
//!   `invoke_batch` round; every reading past the bound is *shed* onto
//!   a deterministic capped-doubling retry schedule (never silently
//!   dropped), and shed load is counted (`fleet.ingest.shed`).
//! * **Deterministic churn** — a [`ChurnPlan`] crashes an exact,
//!   hash-selected fraction of the fleet at exact logical ticks and can
//!   issue a mid-fleet firmware recall that revokes a digest in the
//!   registry; recalled meters quarantine in the same tick while the
//!   rest of the fleet keeps aggregating. A **distrust wave** is the
//!   recall's web-of-trust sibling: the auditor cohort's signed
//!   distrust reviews drop a build's score below the registry's
//!   `wot-threshold` admission bar, quarantining its cohort in the
//!   same tick with zero restart budget burned — no revocation ever
//!   written. Crashed meters run the
//!   supervision cycle: destroy → backoff → respawn (re-resolving
//!   firmware through the registry, where a revocation grounds them) →
//!   re-measure → re-attest ([`TrustPolicy::verify`]) → re-grant.
//! * **Deadline-aware WAN retry** — concentrator batches ship with
//!   [`send_with_backoff`]; silent loss classifies as the typed
//!   [`lateral_net::NetError::Timeout`] inside `RetryExhausted`, and a
//!   failed batch defers whole, to be re-sealed and retried.
//!
//! Everything runs on the fleet's own logical clock — never a
//! substrate clock — so the end-of-run [`FleetWorld::fleet_digest`] is
//! identical across backends and across runs, which experiment E15
//! gates.

use std::collections::VecDeque;

use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_net::channel::{
    send_with_backoff, BackoffSchedule, ChannelPolicy, ClientHandshake, SecureChannel,
    ServerHandshake,
};
use lateral_net::sim::{AttackMode, Network};
use lateral_net::{Addr, NetError};
use lateral_registry::{measurement_of, ManifestDraft, Registry};
use lateral_substrate::attest::{AttestationEvidence, TrustPolicy};
use lateral_substrate::cap::{Badge, ChannelCap};
use lateral_substrate::component::{Component, ComponentError, Invocation};
use lateral_substrate::fault::{ChurnKind, ChurnPlan};
use lateral_substrate::shard::{ShardFabric, ShardId};
use lateral_substrate::substrate::{DomainContext, DomainSpec, Substrate};
use lateral_substrate::DomainId;
use lateral_wot::{Proof, Rating, ReviewProof, TrustGraph, TrustProof};

/// Firmware image of the fleet rollout's v1 cohort.
pub const FLEET_FW_V1: &[u8] = b"fleet meter firmware v1 (rollout)";
/// Firmware image of the v2 cohort — the build a mid-fleet recall
/// revokes in churn scenarios.
pub const FLEET_FW_V2: &[u8] = b"fleet meter firmware v2 (hotfix)";

/// Registry name of the v1 firmware.
pub const FLEET_FW_V1_NAME: &str = "fleet-fw-v1";
/// Registry name of the v2 firmware.
pub const FLEET_FW_V2_NAME: &str = "fleet-fw-v2";

/// Size of the fleet's firmware reviewer cohort (auditors whose signed
/// review proofs feed the registry's trust graph).
pub const FLEET_REVIEWERS: usize = 3;
/// Minimum review score (milli-units) fleet firmware must hold.
pub const FLEET_WOT_THRESHOLD_MILLI: i64 = 500;
/// Epoch of the rollout-time endorsements.
const ENDORSE_EPOCH: u64 = 1;
/// Epoch of a distrust wave (supersedes the endorsements).
const DISTRUST_EPOCH: u64 = 2;

/// Which firmware cohort a meter belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Firmware {
    /// The broad-rollout v1 build.
    V1,
    /// The hotfix v2 build (recall target).
    V2,
}

impl Firmware {
    const ALL: [Firmware; 2] = [Firmware::V1, Firmware::V2];

    /// The build registered under `name`, if the fleet knows it.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Firmware> {
        Firmware::ALL.into_iter().find(|fw| fw.name() == name)
    }

    /// Registry name of this build.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Firmware::V1 => FLEET_FW_V1_NAME,
            Firmware::V2 => FLEET_FW_V2_NAME,
        }
    }

    /// Image bytes of this build.
    #[must_use]
    pub fn image(self) -> &'static [u8] {
        match self {
            Firmware::V1 => FLEET_FW_V1,
            Firmware::V2 => FLEET_FW_V2,
        }
    }

    /// Measurement every instance of this build must exhibit.
    #[must_use]
    pub fn measurement(self) -> Digest {
        measurement_of(self.image())
    }
}

/// One compact meter reading on the wire: 11 bytes, fixed layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetReading {
    /// Producing meter.
    pub meter: u32,
    /// Fleet round the reading was produced in.
    pub round: u32,
    /// Sub-index within the round (burst rounds produce more than one).
    pub idx: u8,
    /// Watt-hours.
    pub wh: u16,
}

const READING_BYTES: usize = 11;

impl FleetReading {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.meter.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.push(self.idx);
        out.extend_from_slice(&self.wh.to_le_bytes());
    }

    fn decode(data: &[u8]) -> Result<FleetReading, String> {
        if data.len() != READING_BYTES {
            return Err(format!("reading must be {READING_BYTES} bytes"));
        }
        Ok(FleetReading {
            meter: u32::from_le_bytes(data[0..4].try_into().expect("length checked")),
            round: u32::from_le_bytes(data[4..8].try_into().expect("length checked")),
            idx: data[8],
            wh: u16::from_le_bytes(data[9..11].try_into().expect("length checked")),
        })
    }
}

/// The per-shard aggregation component: counts and sums every reading
/// it is invoked with, acknowledging each with its running
/// `(count, sum)` — the ack a reading must receive to count as
/// *acknowledged*, and the utility-side ground truth the conservation
/// check compares against.
#[derive(Default, Debug)]
pub struct ShardAggregator {
    count: u64,
    sum: u64,
}

impl Component for ShardAggregator {
    fn label(&self) -> &str {
        "fleet-aggregator"
    }

    fn on_call(
        &mut self,
        _ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        let reading = FleetReading::decode(inv.data).map_err(ComponentError::new)?;
        self.count += 1;
        self.sum += u64::from(reading.wh);
        let mut ack = Vec::with_capacity(16);
        ack.extend_from_slice(&self.count.to_le_bytes());
        ack.extend_from_slice(&self.sum.to_le_bytes());
        Ok(ack)
    }
}

/// Fleet scenario configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Simulated meters (stress configurations use ≥100_000).
    pub meters: u32,
    /// Utility-side aggregation shards (= substrates handed to
    /// [`FleetWorld::new`]).
    pub shards: u32,
    /// Readings each shard admits per tick — the backpressure knob. Due
    /// readings past it are shed and retried on the backoff schedule.
    pub inbox_capacity: usize,
    /// Reading rounds (fleet logical ticks with production).
    pub rounds: u64,
    /// Deterministic fleet churn (crashes, recalls) on the fleet clock.
    pub churn: ChurnPlan,
    /// WAN steady loss: drop every n-th packet (0 = lossless).
    pub drop_every: u64,
    /// Fraction of the fleet rolled out on firmware v2, in ppm. The v2
    /// cohort is the first `meters * ppm / 1e6` meter ids.
    pub v2_fraction_ppm: u32,
    /// Overload leg: in this round every Up meter produces two readings
    /// instead of one, overrunning the per-tick admission bound.
    pub burst_round: Option<u64>,
    /// Retry schedule for both the WAN path and ingest deferral.
    pub backoff: BackoffSchedule,
    /// Logical ticks a crashed meter waits before its respawn attempt.
    pub restart_backoff: u64,
    /// Restart budget per meter; exhaustion quarantines.
    pub max_restarts: u32,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            meters: 240,
            shards: 2,
            inbox_capacity: 120,
            rounds: 6,
            churn: ChurnPlan::new(),
            drop_every: 7,
            v2_fraction_ppm: 250_000,
            burst_round: None,
            backoff: BackoffSchedule::capped(1, 8, 4),
            restart_backoff: 2,
            max_restarts: 2,
        }
    }
}

/// Fleet-wide robustness accounting. Every field is deterministic —
/// all are folded into [`FleetWorld::fleet_digest`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FleetStats {
    /// Readings produced by Up meters.
    pub produced: u64,
    /// Sum of produced watt-hours (meter-side conservation ledger).
    pub produced_wh: u64,
    /// Sealed batches shipped over the WAN.
    pub wan_batches: u64,
    /// Extra WAN transmissions beyond the first attempt.
    pub wan_retransmissions: u64,
    /// Batches whose schedule exhausted with a typed timeout (deferred
    /// whole, re-sealed, retried later).
    pub wan_timeouts: u64,
    /// Duplicate WAN deliveries absorbed by the numbered receive window
    /// (a duplicating adversary or a retransmission race; each copy is
    /// opened once and the replays counted here, never double-ingested).
    pub wan_duplicates: u64,
    /// Readings delivered to the utility side (post-WAN, pre-ingest).
    pub delivered: u64,
    /// Readings shed past a shard's per-tick admission bound (each is
    /// deferred and retried — shed load, never dropped load).
    pub shed: u64,
    /// Readings acknowledged by a shard aggregator.
    pub acked: u64,
    /// Meter crashes injected by churn.
    pub crashes: u64,
    /// Successful meter respawns (full re-attest cycle).
    pub respawns: u64,
    /// Meters quarantined by the same-tick recall sweep.
    pub quarantined_by_recall: u64,
    /// Meters quarantined by a same-tick distrust-wave sweep (the
    /// firmware's review score dropped below the admission threshold).
    pub quarantined_by_distrust: u64,
    /// Meters quarantined on respawn (registry refused the firmware).
    pub quarantined_on_respawn: u64,
    /// Meters quarantined by restart-budget exhaustion.
    pub quarantined_by_budget: u64,
    /// Ticks spent draining deferred readings after the last round.
    pub drain_ticks: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MeterState {
    Up,
    Down { resume_at: u64 },
    Quarantined,
}

#[derive(Debug)]
struct MeterSim {
    firmware: Firmware,
    state: MeterState,
    restarts: u32,
}

/// A reading in flight, with its deterministic retry position.
#[derive(Clone, Copy, Debug)]
struct Pending {
    reading: FleetReading,
    attempt: u32,
    retry_at: u64,
}

/// A sealed batch whose WAN schedule exhausted. Retransmissions must be
/// **byte-identical** — `SecureChannel::open` treats a fresh (higher)
/// sequence as a record-loss signal, so a deferred batch keeps its
/// sealed bytes and goes out again verbatim.
#[derive(Debug)]
struct WanBatch {
    record: Vec<u8>,
    readings: Vec<Pending>,
    attempt: u32,
    retry_at: u64,
}

/// One utility shard's lane: its fabric endpoints, its WAN channel
/// pair, and its two deferral queues.
struct ShardLane {
    env: DomainId,
    cap: ChannelCap,
    /// Concentrator (client) end of the sealed WAN channel.
    up: SecureChannel,
    /// Utility (server) end.
    down: SecureChannel,
    conc_addr: Addr,
    util_addr: Addr,
    /// Readings waiting to be sealed into a WAN batch.
    outbound: VecDeque<Pending>,
    /// A sealed batch awaiting byte-identical retransmission.
    wan_pending: Option<WanBatch>,
    /// Readings delivered but not yet admitted (new or shed).
    deferred: VecDeque<Pending>,
    /// Last aggregator acknowledgment: (count, sum).
    last_ack: (u64, u64),
}

/// The assembled fleet world. Construct with [`FleetWorld::new`], drive
/// with [`FleetWorld::tick`] or [`FleetWorld::run`], then read
/// [`FleetWorld::stats`] and [`FleetWorld::fleet_digest`].
pub struct FleetWorld {
    /// The fleet firmware registry (recalls revoke digests here).
    pub registry: Registry,
    /// The adversarial WAN.
    pub network: Network,
    config: FleetConfig,
    fab: ShardFabric,
    lanes: Vec<ShardLane>,
    meters: Vec<MeterSim>,
    /// The firmware auditor cohort: their signed review proofs are the
    /// registry trust graph's input (endorsements at rollout, distrust
    /// waves under churn).
    reviewers: Vec<SigningKey>,
    trust: TrustPolicy,
    evidence_v1: AttestationEvidence,
    evidence_v2: AttestationEvidence,
    stats: FleetStats,
    round: u64,
    wan_clock: u64,
}

impl std::fmt::Debug for FleetWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FleetWorld({} meters, {} shards, round {})",
            self.meters.len(),
            self.lanes.len(),
            self.round
        )
    }
}

fn build_channel_pair(seed: &str) -> (SecureChannel, SecureChannel) {
    let mut client_rng = Drbg::from_seed(format!("{seed}-client-rng").as_bytes());
    let mut server_rng = Drbg::from_seed(format!("{seed}-server-rng").as_bytes());
    let client_id = SigningKey::from_seed(format!("{seed}-client-id").as_bytes());
    let server_id = SigningKey::from_seed(format!("{seed}-server-id").as_bytes());
    let open = ChannelPolicy::open();
    let (state, hello) = ClientHandshake::start(client_id, &mut client_rng);
    let pending =
        ServerHandshake::accept(&server_id, &mut server_rng, &hello).expect("fleet handshake");
    let (awaiting, server_hello) = pending.respond(None, &hello);
    let (client_chan, finish, _peer) = state
        .finish(&server_hello, &open, |_| None)
        .expect("fleet handshake finish");
    let (server_chan, _peer) = awaiting
        .complete(&finish, &open)
        .expect("fleet handshake complete");
    (client_chan, server_chan)
}

impl FleetWorld {
    /// Builds the world over `substrates` — one per shard, all the same
    /// backend (that is what makes the digest's backend-invariance a
    /// meaningful claim).
    ///
    /// # Panics
    ///
    /// Panics on setup failures (fixed topology: these are programming
    /// errors, not scenario outcomes), when `substrates.len()`
    /// disagrees with `config.shards`, and when a churn event names a
    /// firmware image the fleet does not know.
    pub fn new(substrates: Vec<Box<dyn Substrate>>, config: FleetConfig) -> FleetWorld {
        assert_eq!(
            substrates.len(),
            config.shards as usize,
            "one substrate per shard"
        );
        assert!(config.shards > 0, "at least one shard");
        for ev in config.churn.events() {
            if let ChurnKind::Recall { image } | ChurnKind::DistrustWave { image } = &ev.kind {
                assert!(
                    Firmware::from_name(image).is_some(),
                    "churn event at tick {} names unknown firmware image {image:?}",
                    ev.at
                );
            }
        }

        // --- firmware registry -------------------------------------------
        let publisher = SigningKey::from_seed(b"fleet firmware publisher");
        let mut registry = Registry::new("fleet-registry");
        registry.trust_root(&publisher.verifying_key());
        for fw in Firmware::ALL {
            let manifest = ManifestDraft::new(fw.name(), fw.image())
                .loc(1_500)
                .sign(&publisher, None);
            registry
                .publish(fw.image(), manifest)
                .expect("publish fleet firmware");
        }

        // --- firmware review web -----------------------------------------
        // A small auditor cohort: the first reviewer is the trust root,
        // vouches for the others, and every reviewer endorses both
        // builds at rollout. The registry's wot-threshold pass then
        // gates every resolve on the aggregated score — a later
        // distrust wave (see `ChurnKind::DistrustWave`) supersedes the
        // endorsements and grounds the cohort without any revocation.
        let reviewers: Vec<SigningKey> = (0..FLEET_REVIEWERS)
            .map(|i| SigningKey::from_seed(format!("fleet firmware reviewer {i}").as_bytes()))
            .collect();
        let mut graph = TrustGraph::new();
        graph.seed_root(&reviewers[0].verifying_key().to_bytes());
        registry.attach_wot(graph, FLEET_WOT_THRESHOLD_MILLI);
        for peer in &reviewers[1..] {
            let vouch = TrustProof::issue(
                &reviewers[0],
                &peer.verifying_key(),
                Rating::High,
                ENDORSE_EPOCH,
            );
            registry
                .ingest_proof(&Proof::Trust(vouch))
                .expect("root vouch verifies");
        }
        for fw in Firmware::ALL {
            for reviewer in &reviewers {
                let endorse =
                    ReviewProof::issue(reviewer, fw.measurement(), Rating::High, ENDORSE_EPOCH);
                registry
                    .ingest_proof(&Proof::Review(endorse))
                    .expect("rollout endorsement verifies");
            }
        }

        // --- device attestation root -------------------------------------
        // One platform attestation key stands in for the fleet's device
        // class; per-firmware evidence is what a respawned meter presents
        // on its re-attest leg.
        let platform = SigningKey::from_seed(b"fleet device platform key");
        let boot_state = Digest::of(b"fleet boot stack v1");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(platform.verifying_key());
        trust.expect_measurement(Firmware::V1.measurement());
        trust.expect_measurement(Firmware::V2.measurement());
        trust.expect_platform_state(boot_state);
        let evidence_for = |fw: Firmware| {
            AttestationEvidence::sign(
                "fleet-device",
                &platform,
                fw.measurement(),
                boot_state,
                b"fleet.reattest",
            )
        };

        // --- utility shards ----------------------------------------------
        let mut fab = ShardFabric::new(substrates);
        let mut network = Network::new("fleet-wan");
        let mut lanes = Vec::with_capacity(config.shards as usize);
        for s in 0..config.shards {
            fab.pin(&format!("fleet-agg{s}"), ShardId(s));
            fab.pin(&format!("fleet-ingress{s}"), ShardId(s));
            let agg = fab
                .spawn(
                    DomainSpec::named(&format!("fleet-agg{s}")),
                    Box::new(ShardAggregator::default()),
                )
                .expect("spawn aggregator");
            let env = fab
                .spawn(
                    DomainSpec::named(&format!("fleet-ingress{s}")),
                    Box::new(lateral_substrate::testkit::Echo),
                )
                .expect("spawn ingress");
            let cap = fab.grant_channel(env, agg, Badge(15)).expect("grant");
            let conc_addr = Addr::new(&format!("fleet-conc-{s}.example"));
            let util_addr = Addr::new(&format!("fleet-shard-{s}.utility.example"));
            network.register(conc_addr.clone());
            network.register(util_addr.clone());
            let (up, down) = build_channel_pair(&format!("fleet-lane-{s}"));
            lanes.push(ShardLane {
                env,
                cap,
                up,
                down,
                conc_addr,
                util_addr,
                outbound: VecDeque::new(),
                wan_pending: None,
                deferred: VecDeque::new(),
                last_ack: (0, 0),
            });
        }
        network.set_attack(if config.drop_every > 0 {
            AttackMode::DropEvery(config.drop_every)
        } else {
            AttackMode::Passive
        });

        // --- the fleet ----------------------------------------------------
        // The v2 cohort is the first ppm-fraction of meter ids — a
        // deterministic rollout wave.
        let v2_count =
            (u64::from(config.meters) * u64::from(config.v2_fraction_ppm) / 1_000_000) as u32;
        let meters = (0..config.meters)
            .map(|id| MeterSim {
                firmware: if id < v2_count {
                    Firmware::V2
                } else {
                    Firmware::V1
                },
                state: MeterState::Up,
                restarts: 0,
            })
            .collect();

        FleetWorld {
            registry,
            network,
            config,
            fab,
            lanes,
            meters,
            reviewers,
            trust,
            evidence_v1: evidence_for(Firmware::V1),
            evidence_v2: evidence_for(Firmware::V2),
            stats: FleetStats::default(),
            round: 0,
            wan_clock: 0,
        }
    }

    /// The current fleet round (logical tick).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The robustness accounting so far.
    #[must_use]
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Readings produced but not yet acknowledged: outbound (pre-WAN),
    /// in a sealed batch awaiting retransmission, or delivered and not
    /// yet admitted (including shed readings). Admitted readings are
    /// acknowledged in the tick that admits them, so at tick boundaries
    /// this is the complete in-flight set.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| {
                l.outbound.len()
                    + l.deferred.len()
                    + l.wan_pending.as_ref().map_or(0, |b| b.readings.len())
            })
            .sum()
    }

    /// Meters currently quarantined.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.meters
            .iter()
            .filter(|m| m.state == MeterState::Quarantined)
            .count()
    }

    /// Meters currently up.
    #[must_use]
    pub fn up(&self) -> usize {
        self.meters
            .iter()
            .filter(|m| m.state == MeterState::Up)
            .count()
    }

    /// Per-shard aggregator ground truth from the latest acks:
    /// `(count, wh sum)` per shard.
    #[must_use]
    pub fn shard_totals(&self) -> Vec<(u64, u64)> {
        self.lanes.iter().map(|l| l.last_ack).collect()
    }

    /// One fleet tick: churn → respawns → production → WAN shipping →
    /// bounded admission and batched aggregation → epoch barrier.
    pub fn tick(&mut self) {
        let t = self.round;
        self.apply_churn(t);
        self.respawn_due(t);
        if t < self.config.rounds {
            self.produce(t);
        }
        for s in 0..self.lanes.len() {
            self.ship_lane(s, t);
            self.ingest_lane(s, t);
        }
        self.fab.advance_epoch();
        self.round += 1;
    }

    /// Runs every configured round, then keeps ticking (no production)
    /// until all deferred readings are acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if the fleet cannot drain within a generous bound — under
    /// any loss mode short of a total outage the retry schedules
    /// guarantee it can.
    pub fn run(&mut self) -> FleetStats {
        while self.round < self.config.rounds {
            self.tick();
        }
        let mut guard = 0u64;
        while self.pending() > 0 {
            self.tick();
            self.stats.drain_ticks += 1;
            guard += 1;
            assert!(
                guard <= self.config.rounds + 128,
                "fleet failed to drain {} deferred reading(s)",
                self.pending()
            );
        }
        self.stats
    }

    /// The deterministic fleet-state digest: fleet clock, every meter's
    /// state and restart count, the full robustness accounting, every
    /// shard's acknowledged totals, and the shard fabric's
    /// backend-invariant merged-trace digest. Identical across backends
    /// and across runs — E15's gate.
    #[must_use]
    pub fn fleet_digest(&self) -> Digest {
        let mut bytes = Vec::with_capacity(self.meters.len() * 2 + 256);
        bytes.extend_from_slice(&self.round.to_le_bytes());
        for m in &self.meters {
            bytes.push(match m.state {
                MeterState::Up => 0,
                MeterState::Down { .. } => 1,
                MeterState::Quarantined => 2,
            });
            bytes.push(m.restarts as u8);
        }
        let s = &self.stats;
        for v in [
            s.produced,
            s.produced_wh,
            s.wan_batches,
            s.wan_retransmissions,
            s.wan_timeouts,
            s.wan_duplicates,
            s.delivered,
            s.shed,
            s.acked,
            s.crashes,
            s.respawns,
            s.quarantined_by_recall,
            s.quarantined_by_distrust,
            s.quarantined_on_respawn,
            s.quarantined_by_budget,
            s.drain_ticks,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for lane in &self.lanes {
            bytes.extend_from_slice(&lane.last_ack.0.to_le_bytes());
            bytes.extend_from_slice(&lane.last_ack.1.to_le_bytes());
        }
        Digest::of_parts(&[
            b"lateral.fleet.v1",
            &bytes,
            self.fab.merged_invariant_digest().as_bytes(),
        ])
    }

    // --- tick phases -----------------------------------------------------

    fn apply_churn(&mut self, t: u64) {
        let known = |image: &str| Firmware::from_name(image).expect("checked in FleetWorld::new");
        let events: Vec<_> = self.config.churn.due(t).cloned().collect();
        for ev in events {
            match &ev.kind {
                ChurnKind::CrashFraction { .. } => {
                    for (id, m) in self.meters.iter_mut().enumerate() {
                        if m.state != MeterState::Up || !ev.selects(id as u64) {
                            continue;
                        }
                        self.stats.crashes += 1;
                        // destroy: the instance is gone; what remains is
                        // either a scheduled respawn or a quarantine.
                        if m.restarts >= self.config.max_restarts {
                            m.state = MeterState::Quarantined;
                            self.stats.quarantined_by_budget += 1;
                        } else {
                            m.state = MeterState::Down {
                                resume_at: t + self.config.restart_backoff,
                            };
                        }
                    }
                }
                ChurnKind::Recall { image } => self.recall(known(image)),
                ChurnKind::DistrustWave { image } => self.distrust_wave(known(image)),
            }
        }
    }

    /// The mid-fleet recall: revoke the build's digest in the registry,
    /// then quarantine every meter running it — in this same tick.
    fn recall(&mut self, fw: Firmware) {
        let _ = self.registry.revoke(fw.measurement(), "fleet-wide recall");
        for m in &mut self.meters {
            if m.firmware == fw && m.state != MeterState::Quarantined {
                m.state = MeterState::Quarantined;
                self.stats.quarantined_by_recall += 1;
            }
        }
    }

    /// The distrust wave: every auditor issues a distrust review on the
    /// build, superseding its rollout endorsement. No revocation is
    /// written — the registry's trust graph alone drops the score below
    /// the admission threshold, and every meter running the build is
    /// quarantined in this same tick (zero restart budget burned),
    /// down meters included.
    fn distrust_wave(&mut self, fw: Firmware) {
        for reviewer in &self.reviewers {
            let wave =
                ReviewProof::issue(reviewer, fw.measurement(), Rating::Distrust, DISTRUST_EPOCH);
            self.registry
                .ingest_proof(&Proof::Review(wave))
                .expect("distrust review verifies");
        }
        debug_assert!(
            self.registry.wot_demoted(fw.measurement()),
            "a full-cohort distrust wave must demote the build"
        );
        for m in &mut self.meters {
            if m.firmware == fw && m.state != MeterState::Quarantined {
                m.state = MeterState::Quarantined;
                self.stats.quarantined_by_distrust += 1;
            }
        }
    }

    /// The supervision cycle for every meter whose backoff expired:
    /// re-resolve firmware through the registry (a recall refuses the
    /// respawn and quarantines), re-measure the served bytes, re-attest
    /// against the fleet trust policy, re-grant the send right.
    fn respawn_due(&mut self, t: u64) {
        for m in &mut self.meters {
            let MeterState::Down { resume_at } = m.state else {
                continue;
            };
            if resume_at > t {
                continue;
            }
            // re-resolve: the registry is the recall authority.
            let resolved = match self.registry.resolve(m.firmware.name()) {
                Ok(r) => r,
                Err(_) => {
                    m.state = MeterState::Quarantined;
                    self.stats.quarantined_on_respawn += 1;
                    continue;
                }
            };
            // re-measure: the served bytes must measure as the build
            // this meter is certified for.
            assert_eq!(
                measurement_of(&resolved.image),
                m.firmware.measurement(),
                "registry served unexpected firmware bytes"
            );
            // re-attest: hardware-rooted evidence for the respawned
            // instance must satisfy the fleet trust policy.
            let evidence = match m.firmware {
                Firmware::V1 => &self.evidence_v1,
                Firmware::V2 => &self.evidence_v2,
            };
            self.trust
                .verify(evidence)
                .expect("respawned meter re-attests");
            // re-grant: the meter regains its concentrator send right.
            m.restarts += 1;
            m.state = MeterState::Up;
            self.stats.respawns += 1;
        }
    }

    fn produce(&mut self, t: u64) {
        let per_meter: u8 = if self.config.burst_round == Some(t) {
            2
        } else {
            1
        };
        let shards = self.lanes.len() as u32;
        for (id, m) in self.meters.iter().enumerate() {
            if m.state != MeterState::Up {
                continue;
            }
            let id = id as u32;
            for idx in 0..per_meter {
                let wh = 1_000 + ((u64::from(id) + t + u64::from(idx)) % 7) as u16 * 50;
                let reading = FleetReading {
                    meter: id,
                    round: t as u32,
                    idx,
                    wh,
                };
                self.stats.produced += 1;
                self.stats.produced_wh += u64::from(wh);
                self.lanes[(id % shards) as usize]
                    .outbound
                    .push_back(Pending {
                        reading,
                        attempt: 0,
                        retry_at: t,
                    });
            }
        }
    }

    /// Ships one lane's traffic over the WAN with deadline-aware capped
    /// backoff. A previously deferred sealed batch goes out first —
    /// retransmitted **byte-identical** so the receive window stays
    /// coherent; only once the lane is clear is the next due batch
    /// sealed. An exhausted schedule (typed timeout) defers the batch;
    /// it is never dropped.
    fn ship_lane(&mut self, s: usize, t: u64) {
        // Leg 1: retransmit a deferred sealed batch, if one is due.
        if let Some(batch) = self.lanes[s].wan_pending.take() {
            if batch.retry_at > t {
                self.lanes[s].wan_pending = Some(batch);
                return;
            }
            match self.transmit(s, &batch.record) {
                Some(plain) => self.accept_batch(s, &plain, t),
                None => {
                    let lane = &mut self.lanes[s];
                    lane.wan_pending = Some(WanBatch {
                        retry_at: t + self.config.backoff.delay_before(batch.attempt + 1).max(1),
                        attempt: batch.attempt + 1,
                        ..batch
                    });
                    return;
                }
            }
        }
        // Leg 2: seal and ship the next batch of due readings.
        let lane = &mut self.lanes[s];
        let mut due = Vec::new();
        let mut rest = VecDeque::new();
        for p in lane.outbound.drain(..) {
            if p.retry_at <= t {
                due.push(p);
            } else {
                rest.push_back(p);
            }
        }
        lane.outbound = rest;
        if due.is_empty() {
            return;
        }
        let mut batch = Vec::with_capacity(due.len() * READING_BYTES);
        for p in &due {
            p.reading.encode_into(&mut batch);
        }
        let record = lane.up.seal(&batch);
        self.stats.wan_batches += 1;
        match self.transmit(s, &record) {
            Some(plain) => self.accept_batch(s, &plain, t),
            None => {
                self.lanes[s].wan_pending = Some(WanBatch {
                    record,
                    readings: due,
                    attempt: 1,
                    retry_at: t + self.config.backoff.delay_before(1).max(1),
                });
            }
        }
    }

    /// One `send_with_backoff` round for a sealed record: returns the
    /// opened plaintext on delivery, `None` when the schedule exhausted
    /// or nothing arrived intact (classified and counted as a typed
    /// timeout).
    fn transmit(&mut self, s: usize, record: &[u8]) -> Option<Vec<u8>> {
        let lane = &mut self.lanes[s];
        let mut clock = self.wan_clock;
        let sent = send_with_backoff(
            &mut self.network,
            &lane.conc_addr,
            &lane.util_addr,
            record,
            &self.config.backoff,
            &mut clock,
        );
        self.wan_clock = clock;
        match sent {
            Ok(attempts) => {
                self.stats.wan_retransmissions += u64::from(attempts.saturating_sub(1));
                // Drain EVERY delivered copy: a duplicating adversary
                // (or a retransmission race) can land the same record
                // several times in one round. The channel opens the
                // fresh copy once and reports each replay as a typed
                // `Duplicate`; treating a leftover duplicate as a fresh
                // ack — or leaving it to poison the next round's inbox —
                // was the bug this loop fixes. A copy that fails to
                // authenticate was corrupted in flight: it is skipped as
                // loss, and the window stays where it was for the
                // byte-identical retransmission.
                let mut plain = None;
                while let Some(p) = self
                    .network
                    .recv(&lane.util_addr)
                    .expect("utility endpoint is registered")
                {
                    match lane.down.open(&p.payload) {
                        Ok(fresh) => {
                            debug_assert!(plain.is_none(), "one record per transmit");
                            plain = Some(fresh);
                        }
                        Err(NetError::Duplicate(_)) => self.stats.wan_duplicates += 1,
                        Err(_) => {}
                    }
                }
                if plain.is_none() {
                    // Delivered per the network's ledger but nothing
                    // arrived intact — treat as loss and let the caller
                    // defer.
                    self.stats.wan_timeouts += 1;
                }
                plain
            }
            Err(NetError::RetryExhausted { last_err, .. }) => {
                if matches!(*last_err, NetError::Timeout(_)) {
                    self.stats.wan_timeouts += 1;
                }
                None
            }
            // Any other WAN failure is loss too: the caller defers the
            // batch and retransmits it.
            Err(_) => {
                self.stats.wan_timeouts += 1;
                None
            }
        }
    }

    /// Hands a delivered batch's readings to the ingest stage.
    fn accept_batch(&mut self, s: usize, plain: &[u8], t: u64) {
        let lane = &mut self.lanes[s];
        for chunk in plain.chunks(READING_BYTES) {
            let reading = FleetReading::decode(chunk).expect("sealed batch is well-formed");
            self.stats.delivered += 1;
            lane.deferred.push_back(Pending {
                reading,
                attempt: 0,
                retry_at: t,
            });
        }
    }

    /// Admits up to `inbox_capacity` due delivered readings, in arrival
    /// order, and aggregates them as one `invoke_batch` round on the
    /// shard's engine. The rest are shed onto their deterministic retry
    /// schedule — counted, never dropped.
    fn ingest_lane(&mut self, s: usize, t: u64) {
        let lane = &mut self.lanes[s];
        let bound = self.config.inbox_capacity * READING_BYTES;
        let mut admitted = Vec::with_capacity(bound.min(lane.deferred.len() * READING_BYTES));
        let mut shed_now = 0u64;
        let mut still_deferred = VecDeque::new();
        for mut p in lane.deferred.drain(..) {
            if p.retry_at > t {
                still_deferred.push_back(p);
            } else if admitted.len() < bound {
                p.reading.encode_into(&mut admitted);
            } else {
                shed_now += 1;
                p.attempt += 1;
                p.retry_at = t + self.config.backoff.delay_before(p.attempt).max(1);
                still_deferred.push_back(p);
            }
        }
        lane.deferred = still_deferred;
        if shed_now > 0 {
            self.stats.shed += shed_now;
            if let Some(tel) = self.fab.shard_mut(ShardId(s as u32)).telemetry_mut_ref() {
                tel.metrics_mut().incr("fleet.ingest.shed", shed_now);
            }
        }
        if admitted.is_empty() {
            return;
        }
        let views: Vec<&[u8]> = admitted.chunks_exact(READING_BYTES).collect();
        let replies = self
            .fab
            .invoke_batch(lane.env, &lane.cap, &views)
            .expect("aggregation batch");
        for ack in &replies {
            assert_eq!(ack.len(), 16, "aggregator acks are (count, sum)");
            lane.last_ack = (
                u64::from_le_bytes(ack[0..8].try_into().expect("length checked")),
                u64::from_le_bytes(ack[8..16].try_into().expect("length checked")),
            );
        }
        self.stats.acked += replies.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_hw::machine::MachineBuilder;
    use lateral_microkernel::Microkernel;
    use lateral_substrate::fault::ChurnEvent;
    use lateral_substrate::software::SoftwareSubstrate;

    fn software_pool(shards: u32) -> Vec<Box<dyn Substrate>> {
        (0..shards)
            .map(|_| Box::new(SoftwareSubstrate::new("fleet-test")) as Box<dyn Substrate>)
            .collect()
    }

    fn conservation(world: &FleetWorld) {
        let stats = world.stats();
        let totals = world.shard_totals();
        let agg_count: u64 = totals.iter().map(|(c, _)| c).sum();
        let agg_sum: u64 = totals.iter().map(|(_, s)| s).sum();
        assert_eq!(
            stats.acked, agg_count,
            "every acknowledged reading is in aggregator state"
        );
        assert_eq!(stats.produced, stats.acked + world.pending() as u64);
        if world.pending() == 0 {
            assert_eq!(
                agg_sum, stats.produced_wh,
                "watt-hours conserved end to end"
            );
        }
    }

    #[test]
    fn calm_fleet_acks_every_reading() {
        let mut world = FleetWorld::new(software_pool(2), FleetConfig::default());
        let stats = world.run();
        assert_eq!(stats.produced, 240 * 6);
        assert_eq!(stats.acked, stats.produced, "zero lost readings");
        assert_eq!(stats.shed, 0, "no overload without a burst");
        assert!(
            stats.wan_retransmissions > 0,
            "steady loss forced retransmissions"
        );
        conservation(&world);

        // Run-twice determinism: byte-identical fleet digest.
        let mut again = FleetWorld::new(software_pool(2), FleetConfig::default());
        again.run();
        assert_eq!(world.fleet_digest(), again.fleet_digest());
    }

    #[test]
    fn duplicate_burst_never_double_ingests_a_reading() {
        // Regression: a duplicating adversary lands every WAN record
        // several times. Before the transmit drain-and-dedup fix, the
        // second copy either panicked the single-recv path on the next
        // round or was mistaken for a fresh ack. Every duplicate must be
        // absorbed by the numbered window and counted, with conservation
        // intact.
        let config = FleetConfig {
            drop_every: 0, // duplication replaces steady loss
            ..FleetConfig::default()
        };
        let mut world = FleetWorld::new(software_pool(2), config.clone());
        world.network.set_attack(AttackMode::DuplicateBurst(3));
        let stats = world.run();
        assert_eq!(stats.acked, stats.produced, "no reading lost or doubled");
        assert!(
            stats.wan_duplicates > 0,
            "the burst produced duplicates and each was absorbed"
        );
        conservation(&world);

        // Run-twice determinism survives the duplicating adversary.
        let mut again = FleetWorld::new(software_pool(2), config);
        again.network.set_attack(AttackMode::DuplicateBurst(3));
        again.run();
        assert_eq!(world.fleet_digest(), again.fleet_digest());
    }

    #[test]
    fn overload_burst_sheds_then_drains() {
        let config = FleetConfig {
            burst_round: Some(2),
            ..FleetConfig::default()
        };
        let mut world = FleetWorld::new(software_pool(2), config);
        let stats = world.run();
        assert!(stats.shed > 0, "the burst overran the bounded inboxes");
        assert_eq!(stats.produced, 240 * 6 + 240, "burst round produced double");
        assert_eq!(
            stats.acked, stats.produced,
            "shed load was deferred, not lost"
        );
        conservation(&world);
        // The shed count is also visible as a metric on the fabric.
        let merged = world.fab.merged_metrics();
        assert_eq!(merged.counter("fleet.ingest.shed"), stats.shed);
    }

    #[test]
    fn churn_crash_recall_and_recovery() {
        let config = FleetConfig {
            rounds: 8,
            churn: ChurnPlan::new()
                .with(ChurnEvent::crash_fraction(2, 100_000))
                .with(ChurnEvent::recall(4, FLEET_FW_V2_NAME)),
            ..FleetConfig::default()
        };
        let v2_count = 240 * 250_000 / 1_000_000;
        let mut world = FleetWorld::new(software_pool(2), config);

        // Tick up to (and including) the recall tick.
        while world.round() <= 4 {
            world.tick();
        }
        // The recall quarantined the whole v2 cohort in its own tick.
        assert_eq!(world.quarantined(), v2_count, "same-tick quarantine sweep");
        assert!(world.stats().quarantined_by_recall > 0);
        assert!(world.stats().crashes > 0, "the crash wave fired at tick 2");
        let acked_at_recall = world.stats().acked;

        let stats = world.run();
        assert!(
            stats.acked > acked_at_recall,
            "the v1 fleet kept aggregating after the recall"
        );
        assert_eq!(stats.acked, stats.produced, "zero lost under churn");
        assert!(stats.respawns > 0, "crashed v1 meters came back");
        conservation(&world);

        // Determinism under churn too.
        let config = FleetConfig {
            rounds: 8,
            churn: ChurnPlan::new()
                .with(ChurnEvent::crash_fraction(2, 100_000))
                .with(ChurnEvent::recall(4, FLEET_FW_V2_NAME)),
            ..FleetConfig::default()
        };
        let mut again = FleetWorld::new(software_pool(2), config);
        again.run();
        assert_eq!(world.fleet_digest(), again.fleet_digest());
    }

    #[test]
    fn distrust_wave_quarantines_cohort_same_tick_without_revocation() {
        let config = || FleetConfig {
            rounds: 8,
            churn: ChurnPlan::new().with(ChurnEvent::distrust_wave(4, FLEET_FW_V2_NAME)),
            ..FleetConfig::default()
        };
        let v2_count = 240 * 250_000 / 1_000_000;
        let mut world = FleetWorld::new(software_pool(2), config());

        while world.round() <= 4 {
            world.tick();
        }
        // The wave quarantined the whole v2 cohort in its own tick —
        // through review scores alone, never a revocation.
        assert_eq!(world.quarantined(), v2_count, "same-tick distrust sweep");
        assert_eq!(world.stats().quarantined_by_distrust, v2_count as u64);
        assert!(
            !world.registry.is_revoked(Firmware::V2.measurement()),
            "a distrust wave writes no revocation"
        );
        assert!(
            world.registry.resolve(FLEET_FW_V2_NAME).is_err(),
            "the demoted build must no longer resolve"
        );
        assert_eq!(world.stats().crashes, 0, "no restart budget was touched");
        let acked_at_wave = world.stats().acked;

        let stats = world.run();
        assert!(
            stats.acked > acked_at_wave,
            "the v1 fleet kept aggregating after the wave"
        );
        assert_eq!(stats.acked, stats.produced, "zero lost under the wave");
        conservation(&world);

        // Determinism: a second run reproduces the digest byte for byte.
        let mut again = FleetWorld::new(software_pool(2), config());
        again.run();
        assert_eq!(world.fleet_digest(), again.fleet_digest());
    }

    #[test]
    fn wan_outage_defers_and_recovers_without_loss() {
        let mut world = FleetWorld::new(software_pool(2), FleetConfig::default());
        world.network.set_attack(AttackMode::DropAll);
        for _ in 0..3 {
            world.tick();
        }
        let stats = *world.stats();
        assert!(stats.produced > 0);
        assert_eq!(stats.acked, 0, "a total outage acknowledges nothing");
        assert!(stats.wan_timeouts > 0, "loss classified as typed timeouts");
        assert_eq!(
            world.pending() as u64,
            stats.produced,
            "every reading is still queued, none dropped"
        );
        // Service returns (steady loss only): everything drains.
        world.network.set_attack(AttackMode::DropEvery(7));
        let stats = world.run();
        assert_eq!(stats.acked, stats.produced, "outage deferred, never lost");
        conservation(&world);
    }

    #[test]
    fn corrupting_wan_is_loss_not_a_panic() {
        // Records that fail to authenticate are loss: the batch is
        // deferred and retransmitted byte-identically once the WAN heals.
        let mut world = FleetWorld::new(software_pool(2), FleetConfig::default());
        world.network.set_attack(AttackMode::CorruptAll);
        world.tick();
        assert!(
            world.stats().wan_timeouts > 0,
            "rejected records count as loss"
        );
        world.network.set_attack(AttackMode::DropEvery(7));
        let stats = world.run();
        assert_eq!(
            stats.acked, stats.produced,
            "corruption deferred, never lost"
        );
        conservation(&world);
    }

    #[test]
    fn fleet_digest_is_backend_invariant() {
        let mut soft = FleetWorld::new(software_pool(2), FleetConfig::default());
        soft.run();
        let micro: Vec<Box<dyn Substrate>> = (0..2)
            .map(|_| {
                let machine = MachineBuilder::new().name("fleet-mk").frames(256).build();
                Box::new(Microkernel::new(machine, "fleet-test")) as Box<dyn Substrate>
            })
            .collect();
        let mut micro = FleetWorld::new(micro, FleetConfig::default());
        micro.run();
        assert_eq!(
            soft.fleet_digest(),
            micro.fleet_digest(),
            "fleet digest must not depend on the hosting backend"
        );
    }

    #[test]
    fn recall_grounds_respawning_v2_meters() {
        // A v2 meter that is *down* when the recall lands must be
        // refused at respawn (registry re-resolution), not restarted.
        let config = FleetConfig {
            rounds: 8,
            // Crash 30% at tick 1; recall v2 at tick 2 — before the
            // tick-3 respawns come due.
            churn: ChurnPlan::new()
                .with(ChurnEvent::crash_fraction(1, 300_000))
                .with(ChurnEvent::recall(2, FLEET_FW_V2_NAME)),
            restart_backoff: 3,
            ..FleetConfig::default()
        };
        let mut world = FleetWorld::new(software_pool(2), config);
        let stats = world.run();
        // Every v2 meter ended quarantined, whether it was up at the
        // recall (same-tick sweep) or respawned into the revocation.
        let v2_count = 240 * 250_000 / 1_000_000;
        assert_eq!(
            stats.quarantined_by_recall + stats.quarantined_on_respawn,
            v2_count as u64,
            "recall + respawn refusals cover the v2 cohort"
        );
        assert_eq!(
            world.quarantined() as u64,
            stats.quarantined_by_recall
                + stats.quarantined_on_respawn
                + stats.quarantined_by_budget
        );
        assert_eq!(stats.acked, stats.produced);
        conservation(&world);
    }

    #[test]
    fn burst_admission_is_pinned_and_bounded_per_tick() {
        // Calm rounds bring 120 readings a shard; the tick-3 burst brings
        // 240 against room for 140, so the backlog sheds and outlives
        // production. The pinned stats and digest are those of a
        // per-reading bounded queue of the same capacity, which admits
        // the first 140 due readings of each tick in arrival order.
        let config = FleetConfig {
            inbox_capacity: 140,
            burst_round: Some(3),
            ..FleetConfig::default()
        };
        let mut world = FleetWorld::new(software_pool(2), config.clone());
        let stats = world.run();
        assert_eq!(
            stats,
            FleetStats {
                produced: 1680,
                produced_wh: 1_932_150,
                wan_batches: 12,
                wan_retransmissions: 1,
                delivered: 1680,
                shed: 480,
                acked: 1680,
                drain_ticks: 1,
                ..FleetStats::default()
            }
        );
        assert_eq!(
            world.fleet_digest().to_hex(),
            "6b2b85557dae69f053604ce0370f7db644b36260a774f48316c9a8e2790bbf93"
        );

        // Tick by tick, no shard acknowledges more than its bound, and
        // the backlog fills it.
        let mut world = FleetWorld::new(software_pool(2), config.clone());
        let mut filled = 0;
        while world.round() < config.rounds || world.pending() > 0 {
            let before = world.shard_totals();
            world.tick();
            for (b, a) in before.iter().zip(world.shard_totals()) {
                let admitted = (a.0 - b.0) as usize;
                assert!(
                    admitted <= config.inbox_capacity,
                    "tick {} admitted {admitted}",
                    world.round() - 1
                );
                filled += usize::from(admitted == config.inbox_capacity);
            }
        }
        assert!(filled > 0, "the backlog filled a shard's bound");
    }

    #[test]
    #[should_panic(expected = "fleet-fw-v3")]
    fn unknown_churn_image_is_a_setup_error() {
        // Any name but v2 used to resolve to v1, so this recall revoked
        // the v1 rollout and quarantined three quarters of the fleet.
        let config = FleetConfig {
            churn: ChurnPlan::new().with(ChurnEvent::recall(2, "fleet-fw-v3")),
            ..FleetConfig::default()
        };
        let _ = FleetWorld::new(software_pool(2), config);
    }
}
