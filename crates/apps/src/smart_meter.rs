//! The smart-meter appliance and utility server of Figure 3.
//!
//! Appliance side: a microkernel hosts the virtualized Android UI and
//! the egress gateway; the meter agent lives in the TrustZone secure
//! world, its identity rooted in the fused per-device key. Utility side:
//! the anonymizer frontend runs in an SGX enclave next to an untrusted
//! host database. The two sides meet over an adversarial network with a
//! mutually attested secure channel:
//!
//! * the utility trusts readings only from an attested meter ("otherwise
//!   users could disconnect the actual meter and instead have a software
//!   emulation send fake data");
//! * the meter sends readings only to the *audited* anonymizer build
//!   ("the smart meter would … refuse to talk to a manipulated instance
//!   that may violate user privacy");
//! * the gateway caps what the (assumed compromised) Android side can
//!   send anywhere — the anti-DDoS policy;
//! * the secure GUI's trusted indicator defeats in-appliance phishing.

use lateral_components::anonymizer::{
    Anonymizer, ManipulatedAnonymizer, AUDITED_IMAGE, MANIPULATED_IMAGE,
};
use lateral_components::gateway::Gateway;
use lateral_components::gui::{SecureGui, DRIVER_BADGE};
use lateral_components::split_cmd;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_hw::machine::MachineBuilder;
use lateral_microkernel::Microkernel;
use lateral_net::channel::{
    ChannelPolicy, ClientHandshake, SecureChannel, ServerAwaitFinish, ServerHandshake,
};
use lateral_net::sim::{AttackMode, Network};
use lateral_net::Addr;
use lateral_registry::{ManifestDraft, Registry};
use lateral_sgx::Sgx;
use lateral_substrate::attest::TrustPolicy;
use lateral_substrate::cap::{Badge, ChannelCap};
use lateral_substrate::component::{Component, ComponentError, Invocation};
use lateral_substrate::substrate::{DomainContext, DomainSpec, Substrate};
use lateral_substrate::DomainId;
use lateral_telemetry::outcome as span_outcome;
use lateral_trustzone::TrustZone;

/// Image of the genuine meter firmware.
pub const METER_IMAGE: &[u8] = b"meter firmware v1 (calibrated)";

/// The meter agent: sensor + secure-channel client inside TrustZone.
pub struct MeterAgent {
    identity: SigningKey,
    policy: ChannelPolicy,
    meter_id: String,
    period: u64,
    state: AgentState,
    rng: Option<Drbg>,
}

enum AgentState {
    Idle,
    AwaitingServerHello(ClientHandshake),
    Established(Box<SecureChannel>),
}

impl std::fmt::Debug for MeterAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MeterAgent({})", self.meter_id)
    }
}

impl MeterAgent {
    /// Creates a meter agent that will only talk to peers satisfying
    /// `policy` (i.e. the attested, audited anonymizer frontend).
    pub fn new(meter_id: &str, identity: SigningKey, policy: ChannelPolicy) -> MeterAgent {
        MeterAgent {
            identity,
            policy,
            meter_id: meter_id.to_string(),
            period: 202_607,
            state: AgentState::Idle,
            rng: None,
        }
    }

    fn rng(&mut self, ctx: &mut dyn DomainContext) -> &mut Drbg {
        if self.rng.is_none() {
            let mut seed = Vec::new();
            for _ in 0..4 {
                seed.extend_from_slice(&ctx.rng_u64().to_le_bytes());
            }
            self.rng = Some(Drbg::from_seed(&seed));
        }
        self.rng.as_mut().expect("just initialized")
    }
}

impl Component for MeterAgent {
    fn label(&self) -> &str {
        "meter-agent"
    }

    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        let (cmd, payload) = split_cmd(inv.data)?;
        match cmd {
            "hello" => {
                let identity = self.identity.clone();
                let (state, hello) = ClientHandshake::start(identity, self.rng(ctx));
                self.state = AgentState::AwaitingServerHello(state);
                Ok(hello)
            }
            "complete" => {
                let state = match std::mem::replace(&mut self.state, AgentState::Idle) {
                    AgentState::AwaitingServerHello(s) => s,
                    other => {
                        self.state = other;
                        return Err(ComponentError::new("no handshake in progress"));
                    }
                };
                // The meter attests itself: hardware-rooted evidence bound
                // to this exact channel. A fake meter (no trust anchor)
                // gets None here and is rejected by the utility.
                let (channel, finish, _peer) = state
                    .finish(payload, &self.policy, |transcript| {
                        ctx.attest(transcript.as_bytes()).ok()
                    })
                    .map_err(|e| ComponentError::new(format!("handshake: {e}")))?;
                self.state = AgentState::Established(Box::new(channel));
                Ok(finish)
            }
            "send-reading" => {
                // Simulated sensor: deterministic consumption curve.
                let wh = 1_000 + (self.period % 7) * 150;
                let msg = format!("reading:{},{},{}", self.meter_id, self.period, wh);
                self.period += 1;
                match &mut self.state {
                    AgentState::Established(c) => Ok(c.seal(msg.as_bytes())),
                    _ => Err(ComponentError::new("channel not established")),
                }
            }
            "recv" => match &mut self.state {
                AgentState::Established(c) => c
                    .open(payload)
                    .map_err(|e| ComponentError::new(format!("record: {e}"))),
                _ => Err(ComponentError::new("channel not established")),
            },
            other => Err(ComponentError::new(format!("unknown command '{other}'"))),
        }
    }
}

/// The utility frontend: secure-channel server + anonymizer in one
/// attested enclave.
pub struct UtilityFrontend {
    identity: SigningKey,
    policy: ChannelPolicy,
    anonymizer: Box<dyn Component>,
    state: FrontendState,
    rng: Option<Drbg>,
}

enum FrontendState {
    Idle,
    AwaitingFinish(ServerAwaitFinish),
    Established(Box<SecureChannel>),
}

impl std::fmt::Debug for UtilityFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UtilityFrontend(..)")
    }
}

impl UtilityFrontend {
    /// Creates the frontend; `policy` states what the utility requires of
    /// meters (attested genuine firmware), `anonymizer` is the processing
    /// component (audited or manipulated build).
    pub fn new(
        identity: SigningKey,
        policy: ChannelPolicy,
        anonymizer: Box<dyn Component>,
    ) -> UtilityFrontend {
        UtilityFrontend {
            identity,
            policy,
            anonymizer,
            state: FrontendState::Idle,
            rng: None,
        }
    }

    fn rng(&mut self, ctx: &mut dyn DomainContext) -> &mut Drbg {
        if self.rng.is_none() {
            let mut seed = Vec::new();
            for _ in 0..4 {
                seed.extend_from_slice(&ctx.rng_u64().to_le_bytes());
            }
            self.rng = Some(Drbg::from_seed(&seed));
        }
        self.rng.as_mut().expect("just initialized")
    }
}

impl Component for UtilityFrontend {
    fn label(&self) -> &str {
        "utility-frontend"
    }

    fn on_call(
        &mut self,
        ctx: &mut dyn DomainContext,
        inv: Invocation<'_>,
    ) -> Result<Vec<u8>, ComponentError> {
        let (cmd, payload) = split_cmd(inv.data)?;
        match cmd {
            "accept" => {
                let identity = self.identity.clone();
                let pending = {
                    let rng = self.rng(ctx);
                    ServerHandshake::accept(&identity, rng, payload)
                        .map_err(|e| ComponentError::new(format!("handshake: {e}")))?
                };
                // Channel-bound evidence from the quoting enclave.
                let evidence = ctx.attest(pending.transcript().as_bytes()).ok();
                let (awaiting, server_hello) = pending.respond(evidence, payload);
                self.state = FrontendState::AwaitingFinish(awaiting);
                Ok(server_hello)
            }
            "finish" => {
                let state = match std::mem::replace(&mut self.state, FrontendState::Idle) {
                    FrontendState::AwaitingFinish(s) => s,
                    other => {
                        self.state = other;
                        return Err(ComponentError::new("no handshake in progress"));
                    }
                };
                let (channel, _peer) = state
                    .complete(payload, &self.policy)
                    .map_err(|e| ComponentError::new(format!("handshake: {e}")))?;
                self.state = FrontendState::Established(Box::new(channel));
                Ok(b"ok".to_vec())
            }
            "process" => {
                let plaintext = match &mut self.state {
                    FrontendState::Established(c) => c
                        .open(payload)
                        .map_err(|e| ComponentError::new(format!("record: {e}")))?,
                    _ => return Err(ComponentError::new("channel not established")),
                };
                let reply = self.anonymizer.on_call(
                    ctx,
                    Invocation {
                        badge: inv.badge,
                        data: &plaintext,
                    },
                )?;
                match &mut self.state {
                    FrontendState::Established(c) => Ok(c.seal(&reply)),
                    _ => unreachable!("state checked above"),
                }
            }
            "retained" => self.anonymizer.on_call(ctx, inv),
            "aggregate" => self.anonymizer.on_call(ctx, inv),
            other => Err(ComponentError::new(format!("unknown command '{other}'"))),
        }
    }
}

/// Scenario configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Deploy the manipulated anonymizer build on the utility side.
    pub manipulated_anonymizer: bool,
    /// Replace the meter with a software emulation on a substrate
    /// without a trust anchor (the fake-meter attack).
    pub fake_meter: bool,
    /// The in-path network adversary's behavior.
    pub network_attack: AttackMode,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            manipulated_anonymizer: false,
            fake_meter: false,
            network_attack: AttackMode::Passive,
        }
    }
}

/// Outcome of a billing round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BillingOutcome {
    /// End-to-end success; contains the billing acknowledgment.
    Billed(String),
    /// A party refused during the handshake (attestation / signature /
    /// pinning failure) — contains the reason.
    Refused(String),
    /// The network ate or mangled the traffic; no reply arrived.
    NoService(String),
}

/// The assembled Figure 3 world.
pub struct SmartMeterWorld {
    /// The appliance's component registry: meter firmware is published,
    /// certified, and served from here — spawn and recovery both
    /// resolve through it, so a revocation grounds the meter until
    /// certified firmware ships.
    pub registry: Registry,
    /// Appliance: microkernel side (Android, gateway, GUI).
    pub kernel: Microkernel,
    /// Appliance: TrustZone side (meter agent) — absent for fake meters.
    pub trustzone: Option<TrustZone>,
    /// Utility server (SGX).
    pub utility: Sgx,
    /// The adversarial network.
    pub network: Network,
    meter_domain: DomainId,
    meter_env: DomainId,
    meter_cap: ChannelCap,
    meter_policy: ChannelPolicy,
    frontend_env: DomainId,
    frontend_cap: ChannelCap,
    gateway_cap: ChannelCap,
    gui_driver_cap: ChannelCap,
    android_gui_cap: ChannelCap,
    kernel_env: DomainId,
    meter_addr: Addr,
    utility_addr: Addr,
}

impl std::fmt::Debug for SmartMeterWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SmartMeterWorld")
    }
}

impl SmartMeterWorld {
    /// Builds the whole world under `config`.
    ///
    /// # Panics
    ///
    /// Panics on setup failures (fixed topology; failures are programming
    /// errors, not scenario outcomes).
    pub fn new(config: WorldConfig) -> SmartMeterWorld {
        // --- utility server ------------------------------------------------
        let utility_machine = MachineBuilder::new()
            .name("utility-server")
            .frames(256)
            .build();
        let mut utility = Sgx::new(utility_machine, "utility");
        let frontend_image = if config.manipulated_anonymizer {
            MANIPULATED_IMAGE
        } else {
            AUDITED_IMAGE
        };
        // The utility accepts only genuine attested meter firmware.
        let mut meter_trust = TrustPolicy::new();
        // (platform key filled in below once the meter side exists)

        // --- appliance -----------------------------------------------------
        let kernel_machine = MachineBuilder::new()
            .name("meter-appliance")
            .frames(256)
            .build();
        let mut kernel = Microkernel::new(kernel_machine, "appliance");
        let (trustzone, meter_platform_key) = if config.fake_meter {
            (None, None)
        } else {
            let tz_machine = MachineBuilder::new().name("meter-soc").frames(128).build();
            let tz = TrustZone::new(tz_machine, "meter-device-7")
                .with_platform_state(Digest::of(b"meter boot stack v1"));
            let key = tz.platform_verifying_key().expect("tz attests");
            (Some(tz), Some(key))
        };
        if let Some(k) = meter_platform_key {
            meter_trust.trust_platform(k);
        }
        meter_trust.expect_measurement(
            DomainSpec::named("meter-agent")
                .with_image(METER_IMAGE)
                .measurement(),
        );
        let utility_policy = ChannelPolicy::open().with_attestation(meter_trust);

        // The meter accepts only the audited anonymizer frontend, attested
        // by the utility's SGX.
        let mut utility_trust = TrustPolicy::new();
        utility_trust.trust_platform(utility.platform_verifying_key().expect("sgx attests"));
        utility_trust.expect_measurement(
            DomainSpec::named("utility-frontend")
                .with_image(AUDITED_IMAGE)
                .measurement(),
        );
        let meter_policy = ChannelPolicy::open().with_attestation(utility_trust);

        // --- spawn the utility frontend enclave ----------------------------
        let anonymizer: Box<dyn Component> = if config.manipulated_anonymizer {
            Box::new(ManipulatedAnonymizer::new())
        } else {
            Box::new(Anonymizer::new())
        };
        let frontend = UtilityFrontend::new(
            SigningKey::from_seed(b"utility channel identity"),
            utility_policy,
            anonymizer,
        );
        let frontend_domain = utility
            .spawn(
                DomainSpec::named("utility-frontend").with_image(frontend_image),
                Box::new(frontend),
            )
            .expect("spawn frontend");
        // Untrusted host DB next to it (present for realism; not driven in
        // the happy path).
        utility
            .spawn_host(
                DomainSpec::named("billing-db"),
                Box::new(lateral_substrate::testkit::Echo),
            )
            .expect("spawn db");
        let frontend_env = utility
            .spawn_host(
                DomainSpec::named("__env__"),
                Box::new(lateral_substrate::testkit::Echo),
            )
            .expect("spawn env");
        let frontend_cap = utility
            .grant_channel(frontend_env, frontend_domain, Badge(1))
            .expect("grant");

        // --- component registry --------------------------------------------
        // The meter firmware is served from a registry, not baked into
        // the spawn site: publish + certify here, resolve at every spawn
        // (including supervised recovery).
        let firmware_publisher = SigningKey::from_seed(b"meter firmware publisher");
        let mut registry = Registry::new("appliance-registry");
        registry.trust_root(&firmware_publisher.verifying_key());
        let firmware_manifest = ManifestDraft::new("meter-agent", METER_IMAGE)
            .loc(2_000)
            .sign(&firmware_publisher, None);
        registry
            .publish(METER_IMAGE, firmware_manifest)
            .expect("publish meter firmware");
        let meter_firmware = registry
            .resolve("meter-agent")
            .expect("meter firmware certifies")
            .image;

        // --- spawn the meter agent -----------------------------------------
        let agent = MeterAgent::new(
            "meter-7",
            SigningKey::from_seed(b"meter channel identity"),
            meter_policy.clone(),
        );
        let (meter_domain, meter_env, meter_cap, trustzone) = match trustzone {
            Some(mut tz) => {
                let d = tz
                    .spawn(
                        DomainSpec::named("meter-agent").with_image(&meter_firmware),
                        Box::new(agent),
                    )
                    .expect("spawn meter");
                let env = tz
                    .spawn_normal(
                        DomainSpec::named("__env__"),
                        Box::new(lateral_substrate::testkit::Echo),
                    )
                    .expect("spawn env");
                let cap = tz.grant_channel(env, d, Badge(1)).expect("grant");
                (d, env, cap, Some(tz))
            }
            None => {
                // Fake meter: the agent runs on the plain microkernel with
                // NO attestation identity. Its image even *claims* to be
                // genuine (certified bytes straight from the registry) —
                // attestation is what catches the lie.
                let d = kernel
                    .spawn(
                        DomainSpec::named("meter-agent").with_image(&meter_firmware),
                        Box::new(agent),
                    )
                    .expect("spawn fake meter");
                let env = kernel
                    .spawn(
                        DomainSpec::named("__tz_env__"),
                        Box::new(lateral_substrate::testkit::Echo),
                    )
                    .expect("spawn env");
                let cap = kernel.grant_channel(env, d, Badge(1)).expect("grant");
                (d, env, cap, None)
            }
        };

        // --- appliance legacy side: android, gateway, GUI -------------------
        let android = kernel
            .spawn(
                DomainSpec::named("android").with_mem_pages(8),
                Box::new(lateral_substrate::testkit::Echo),
            )
            .expect("spawn android");
        let gateway = kernel
            .spawn(
                DomainSpec::named("gateway"),
                Box::new(Gateway::new(&["utility.example.org"], 8_000)),
            )
            .expect("spawn gateway");
        let gui = kernel
            .spawn(DomainSpec::named("secure-gui"), Box::new(SecureGui::new()))
            .expect("spawn gui");
        let kernel_env = kernel
            .spawn(
                DomainSpec::named("__env__"),
                Box::new(lateral_substrate::testkit::Echo),
            )
            .expect("spawn env");
        let gateway_cap = kernel
            .grant_channel(android, gateway, Badge(0xA))
            .expect("grant");
        let gui_driver_cap = kernel
            .grant_channel(kernel_env, gui, DRIVER_BADGE)
            .expect("grant");
        let android_gui_cap = kernel
            .grant_channel(android, gui, Badge(0xA))
            .expect("grant");

        // --- network ---------------------------------------------------------
        let mut network = Network::new("smart-meter-world");
        let meter_addr = Addr::new("meter-7.home.example");
        let utility_addr = Addr::new("utility.example.org");
        network.register(meter_addr.clone());
        network.register(utility_addr.clone());
        network.set_attack(config.network_attack);

        let mut world = SmartMeterWorld {
            registry,
            kernel,
            trustzone,
            utility,
            network,
            meter_domain,
            meter_env,
            meter_cap,
            meter_policy,
            frontend_env,
            frontend_cap,
            gateway_cap,
            gui_driver_cap,
            android_gui_cap,
            kernel_env,
            meter_addr,
            utility_addr,
        };
        world.register_gui_labels();
        world
    }

    fn register_gui_labels(&mut self) {
        // The composer binds GUI badges to labels: badge 0xA (=10) is the
        // Android window, permanently labeled untrusted — whatever it
        // paints.
        let env = self.kernel_env;
        let cap = self.gui_driver_cap;
        self.kernel
            .invoke(env, &cap, b"register:10=Android Apps=untrusted")
            .expect("register android window");
    }

    fn meter_call(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        let (env, cap) = (self.meter_env, self.meter_cap);
        match &mut self.trustzone {
            Some(tz) => tz.invoke(env, &cap, data).map_err(|e| e.to_string()),
            None => self
                .kernel
                .invoke(env, &cap, data)
                .map_err(|e| e.to_string()),
        }
    }

    fn meter_call_batch(&mut self, payloads: &[&[u8]]) -> Result<Vec<Vec<u8>>, String> {
        let (env, cap) = (self.meter_env, self.meter_cap);
        match &mut self.trustzone {
            Some(tz) => tz
                .invoke_batch(env, &cap, payloads)
                .map_err(|e| e.to_string()),
            None => self
                .kernel
                .invoke_batch(env, &cap, payloads)
                .map_err(|e| e.to_string()),
        }
    }

    fn utility_call(&mut self, data: &[u8]) -> Result<Vec<u8>, String> {
        let (env, cap) = (self.frontend_env, self.frontend_cap);
        self.utility
            .invoke(env, &cap, data)
            .map_err(|e| e.to_string())
    }

    /// Ships `payload` from the meter to the utility over the adversarial
    /// network, returning what (if anything) arrives.
    fn ship_to_utility(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        let (from, to) = (self.meter_addr.clone(), self.utility_addr.clone());
        self.network.send(&from, &to, payload).ok()?;
        self.network
            .recv(&self.utility_addr.clone())
            .ok()
            .flatten()
            .map(|p| p.payload)
    }

    fn ship_to_meter(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        let (from, to) = (self.utility_addr.clone(), self.meter_addr.clone());
        self.network.send(&from, &to, payload).ok()?;
        self.network
            .recv(&self.meter_addr.clone())
            .ok()
            .flatten()
            .map(|p| p.payload)
    }

    /// Runs one full billing round: handshake with mutual channel-bound
    /// attestation, one reading, one acknowledgment. The whole round is
    /// recorded as one `billing round` span on each side's fabric, so
    /// every handshake and record invocation nests into a causal tree
    /// (rendered by [`SmartMeterWorld::telemetry_report`]).
    pub fn billing_round(&mut self) -> BillingOutcome {
        let meter_span = {
            let sub: &mut dyn Substrate = match &mut self.trustzone {
                Some(tz) => tz,
                None => &mut self.kernel,
            };
            let at = sub.now();
            sub.telemetry_mut().begin_span("billing round", "app", at)
        };
        let utility_span = {
            let at = self.utility.now();
            self.utility
                .telemetry_mut()
                .begin_span("billing round", "app", at)
        };
        let outcome = self.billing_round_steps();
        let code = match &outcome {
            BillingOutcome::Billed(_) => span_outcome::OK,
            _ => span_outcome::FAILED,
        };
        let sub: &mut dyn Substrate = match &mut self.trustzone {
            Some(tz) => tz,
            None => &mut self.kernel,
        };
        let at = sub.now();
        sub.telemetry_mut().end_span(meter_span, at, code);
        let at = self.utility.now();
        self.utility
            .telemetry_mut()
            .end_span(utility_span, at, code);
        outcome
    }

    fn billing_round_steps(&mut self) -> BillingOutcome {
        // 1. Meter → utility: ClientHello.
        let hello = match self.meter_call(b"hello:") {
            Ok(h) => h,
            Err(e) => return BillingOutcome::Refused(format!("meter: {e}")),
        };
        let Some(hello_wire) = self.ship_to_utility(&hello) else {
            return BillingOutcome::NoService("hello lost".into());
        };
        // 2. Utility: accept, produce ServerHello (+ SGX evidence).
        let server_hello = match self.utility_call(&[b"accept:".as_slice(), &hello_wire].concat()) {
            Ok(sh) => sh,
            Err(e) => return BillingOutcome::Refused(format!("utility: {e}")),
        };
        let Some(sh_wire) = self.ship_to_meter(&server_hello) else {
            return BillingOutcome::NoService("server hello lost".into());
        };
        // 3. Meter: verify utility evidence, produce Finish (+ TZ evidence).
        let finish = match self.meter_call(&[b"complete:".as_slice(), &sh_wire].concat()) {
            Ok(f) => f,
            Err(e) => return BillingOutcome::Refused(format!("meter: {e}")),
        };
        let Some(finish_wire) = self.ship_to_utility(&finish) else {
            return BillingOutcome::NoService("finish lost".into());
        };
        // 4. Utility: verify meter evidence.
        if let Err(e) = self.utility_call(&[b"finish:".as_slice(), &finish_wire].concat()) {
            return BillingOutcome::Refused(format!("utility: {e}"));
        }
        // 5. Reading + ack.
        let record = match self.meter_call(b"send-reading:") {
            Ok(r) => r,
            Err(e) => return BillingOutcome::Refused(format!("meter: {e}")),
        };
        let Some(record_wire) = self.ship_to_utility(&record) else {
            return BillingOutcome::NoService("reading lost".into());
        };
        let ack_record = match self.utility_call(&[b"process:".as_slice(), &record_wire].concat()) {
            Ok(a) => a,
            Err(e) => return BillingOutcome::Refused(format!("utility: {e}")),
        };
        let Some(ack_wire) = self.ship_to_meter(&ack_record) else {
            return BillingOutcome::NoService("ack lost".into());
        };
        match self.meter_call(&[b"recv:".as_slice(), &ack_wire].concat()) {
            Ok(ack) => BillingOutcome::Billed(String::from_utf8_lossy(&ack).into_owned()),
            Err(e) => BillingOutcome::Refused(format!("meter: {e}")),
        }
    }

    /// Sends `n` further readings over the session established by a
    /// completed [`SmartMeterWorld::billing_round`], using the batched
    /// invocation path on the meter side: one `send-reading:` batch
    /// produces all sealed records (one capability check, one span),
    /// each record still crosses the adversarial network and is
    /// processed by the utility individually, and one final `recv:`
    /// batch consumes every acknowledgment. Returns the acks in order.
    ///
    /// # Errors
    ///
    /// The first failing step's error, as a message.
    pub fn batched_readings(&mut self, n: usize) -> Result<Vec<String>, String> {
        let requests: Vec<&[u8]> = (0..n).map(|_| b"send-reading:".as_slice()).collect();
        let records = self.meter_call_batch(&requests)?;
        let mut ack_requests = Vec::with_capacity(records.len());
        for record in &records {
            let wire = self
                .ship_to_utility(record)
                .ok_or_else(|| "reading lost".to_string())?;
            let ack = self.utility_call(&[b"process:".as_slice(), &wire].concat())?;
            let ack_wire = self
                .ship_to_meter(&ack)
                .ok_or_else(|| "ack lost".to_string())?;
            ack_requests.push([b"recv:".as_slice(), &ack_wire].concat());
        }
        let views: Vec<&[u8]> = ack_requests.iter().map(Vec::as_slice).collect();
        let acks = self.meter_call_batch(&views)?;
        Ok(acks
            .into_iter()
            .map(|a| String::from_utf8_lossy(&a).into_owned())
            .collect())
    }

    /// Compromised Android floods `dest` with `attempts` sends of
    /// `bytes_each`; returns (allowed, denied) as enforced by the gateway.
    pub fn android_flood(&mut self, dest: &str, attempts: u32, bytes_each: u32) -> (u32, u32) {
        let android_cap = self.gateway_cap;
        let android = android_cap.owner;
        let mut allowed = 0;
        let mut denied = 0;
        for _ in 0..attempts {
            let req = format!("send:{dest}:{bytes_each}");
            match self.kernel.invoke(android, &android_cap, req.as_bytes()) {
                Ok(_) => allowed += 1,
                Err(_) => denied += 1,
            }
        }
        (allowed, denied)
    }

    /// Android draws a phishing screen; returns
    /// `(indicator shown to the user, screen content)`.
    pub fn phishing_attempt(&mut self) -> (String, String) {
        let android_cap = self.android_gui_cap;
        let android = android_cap.owner;
        self.kernel
            .invoke(
                android,
                &android_cap,
                b"draw:== Meter Readings: enter your utility password ==",
            )
            .expect("draw");
        let env = self.kernel_env;
        let driver = self.gui_driver_cap;
        self.kernel
            .invoke(env, &driver, b"focus:10")
            .expect("focus");
        let indicator = self
            .kernel
            .invoke(env, &driver, b"indicator:")
            .expect("indicator");
        let screen = self
            .kernel
            .invoke(env, &driver, b"screen:")
            .expect("screen");
        (
            String::from_utf8_lossy(&indicator).into_owned(),
            String::from_utf8_lossy(&screen).into_owned(),
        )
    }

    /// The meter agent's domain (attack experiments aim hardware probes
    /// at its frames through [`SmartMeterWorld::trustzone`]).
    pub fn meter_domain(&self) -> DomainId {
        self.meter_domain
    }

    /// Renders both sides' span trees — the meter substrate's and the
    /// utility's — so a billing round can be read as the causal story
    /// it is.
    pub fn telemetry_report(&self) -> String {
        let meter = match &self.trustzone {
            Some(tz) => tz.telemetry(),
            None => self.kernel.telemetry(),
        };
        format!(
            "meter:\n{}utility:\n{}",
            meter.render_tree(),
            self.utility.telemetry().render_tree(),
        )
    }

    /// Installs a deterministic fault plan into the TrustZone fabric
    /// (robustness experiments crash the meter agent at precise points).
    ///
    /// # Panics
    ///
    /// Panics for fake-meter worlds — there is no TrustZone to inject
    /// into.
    pub fn inject_meter_fault(&mut self, plan: lateral_substrate::fault::FaultPlan) {
        self.trustzone
            .as_mut()
            .expect("fault injection targets the real TrustZone meter")
            .fabric_mut()
            .install_fault_plan(plan);
    }

    /// The supervision cycle for a crashed meter agent: re-resolve the
    /// firmware through the registry (a revoked image grounds the
    /// meter), destroy the fail-stopped domain, respawn the freshly
    /// served bytes, verify the successor measures identically, and
    /// re-grant the environment channel. Channel state is *not*
    /// replayed — the next [`SmartMeterWorld::billing_round`] performs
    /// a full mutually attested handshake, which is exactly how the
    /// successor proves itself to the utility again.
    ///
    /// # Errors
    ///
    /// A string describing the failure (no TrustZone, refused firmware
    /// resolution, spawn failure, or measurement divergence).
    pub fn recover_meter(&mut self) -> Result<(), String> {
        let firmware = self
            .registry
            .resolve("meter-agent")
            .map_err(|e| format!("firmware resolution: {e}"))?;
        let tz = self
            .trustzone
            .as_mut()
            .ok_or_else(|| "fake meters are not supervised".to_string())?;
        let spec = DomainSpec::named("meter-agent").with_image(&firmware.image);
        let baseline = spec.measurement();
        let _ = tz.destroy(self.meter_domain);
        let agent = MeterAgent::new(
            "meter-7",
            SigningKey::from_seed(b"meter channel identity"),
            self.meter_policy.clone(),
        );
        let successor = tz.spawn(spec, Box::new(agent)).map_err(|e| e.to_string())?;
        if tz.measurement(successor).map_err(|e| e.to_string())? != baseline {
            let _ = tz.destroy(successor);
            return Err("successor measurement diverged from meter firmware".into());
        }
        self.meter_cap = tz
            .grant_channel(self.meter_env, successor, Badge(1))
            .map_err(|e| e.to_string())?;
        self.meter_domain = successor;
        Ok(())
    }

    /// Asks the deployed frontend how many identified records it
    /// retained (ground truth for the privacy property).
    pub fn retained_identified_records(&mut self) -> u64 {
        let raw = self.utility_call(b"retained:").expect("retained query");
        String::from_utf8_lossy(&raw).parse().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_world_bills_successfully() {
        let mut world = SmartMeterWorld::new(WorldConfig::default());
        match world.billing_round() {
            BillingOutcome::Billed(ack) => {
                assert!(ack.starts_with("billed:meter-7:"), "ack: {ack}");
            }
            other => panic!("expected billing, got {other:?}"),
        }
        assert_eq!(world.retained_identified_records(), 0);
        // Subsequent rounds reuse… a new handshake each round also works.
        assert!(matches!(world.billing_round(), BillingOutcome::Billed(_)));
    }

    #[test]
    fn batched_readings_bill_in_order_after_handshake() {
        let mut world = SmartMeterWorld::new(WorldConfig::default());
        assert!(matches!(world.billing_round(), BillingOutcome::Billed(_)));
        let acks = world.batched_readings(3).expect("batched readings bill");
        assert_eq!(acks.len(), 3);
        for ack in &acks {
            assert!(ack.starts_with("billed:meter-7:"), "ack: {ack}");
        }
        assert_eq!(world.retained_identified_records(), 0);
        // The session survives the batch: a fresh full round still works.
        assert!(matches!(world.billing_round(), BillingOutcome::Billed(_)));
    }

    #[test]
    fn billing_round_is_one_span_tree_on_each_side() {
        let mut world = SmartMeterWorld::new(WorldConfig::default());
        assert!(matches!(world.billing_round(), BillingOutcome::Billed(_)));
        let report = world.telemetry_report();
        let (meter, utility) = report
            .split_once("utility:\n")
            .expect("report has both sides");
        for side in [meter, utility] {
            assert!(
                side.contains("billing round [app]"),
                "round root present: {side}"
            );
            // Invocations nest under the round root (two-space indent).
            assert!(
                side.contains("\n  invoke "),
                "invocations nest under the round: {side}"
            );
        }
        // A refused round closes its spans as failed.
        let mut world = SmartMeterWorld::new(WorldConfig {
            manipulated_anonymizer: true,
            ..WorldConfig::default()
        });
        assert!(matches!(world.billing_round(), BillingOutcome::Refused(_)));
        assert!(
            world.telemetry_report().contains("billing round [app]"),
            "failed rounds still record the span"
        );
    }

    #[test]
    fn manipulated_anonymizer_is_refused_by_the_meter() {
        let mut world = SmartMeterWorld::new(WorldConfig {
            manipulated_anonymizer: true,
            ..WorldConfig::default()
        });
        match world.billing_round() {
            BillingOutcome::Refused(reason) => {
                assert!(
                    reason.contains("meter:"),
                    "refusal came from the meter: {reason}"
                );
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        // And crucially: no reading was ever sent, so nothing is retained.
        assert_eq!(world.retained_identified_records(), 0);
    }

    #[test]
    fn fake_meter_is_refused_by_the_utility() {
        let mut world = SmartMeterWorld::new(WorldConfig {
            fake_meter: true,
            ..WorldConfig::default()
        });
        match world.billing_round() {
            BillingOutcome::Refused(reason) => {
                assert!(
                    reason.contains("utility:"),
                    "refusal came from the utility: {reason}"
                );
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn corrupting_network_cannot_forge_but_can_deny() {
        let mut world = SmartMeterWorld::new(WorldConfig {
            network_attack: AttackMode::CorruptAll,
            ..WorldConfig::default()
        });
        match world.billing_round() {
            BillingOutcome::Billed(_) => panic!("corrupted traffic must not bill"),
            BillingOutcome::Refused(_) | BillingOutcome::NoService(_) => {}
        }
    }

    #[test]
    fn dropping_network_denies_service_only() {
        let mut world = SmartMeterWorld::new(WorldConfig {
            network_attack: AttackMode::DropAll,
            ..WorldConfig::default()
        });
        assert!(matches!(
            world.billing_round(),
            BillingOutcome::NoService(_)
        ));
    }

    #[test]
    fn crashed_meter_recovers_and_reattests() {
        use lateral_substrate::fault::{FaultPlan, FaultSpec};

        let mut world = SmartMeterWorld::new(WorldConfig::default());
        assert!(matches!(world.billing_round(), BillingOutcome::Billed(_)));

        // The meter firmware fail-stops on its next invocation.
        world.inject_meter_fault(FaultPlan::new().with(FaultSpec::crash("meter-agent", 1)));
        match world.billing_round() {
            BillingOutcome::Refused(reason) => {
                assert!(reason.contains("crashed"), "fail-stop visible: {reason}");
            }
            other => panic!("expected refusal during the crash window, got {other:?}"),
        }
        // The crash window persists until something supervises it.
        assert!(!matches!(world.billing_round(), BillingOutcome::Billed(_)));

        // Destroy → respawn → re-measure → re-grant; the next round then
        // re-attests the successor to the utility from scratch.
        world.recover_meter().unwrap();
        match world.billing_round() {
            BillingOutcome::Billed(ack) => assert!(ack.starts_with("billed:meter-7:")),
            other => panic!("expected recovery, got {other:?}"),
        }
        assert_eq!(world.retained_identified_records(), 0);
    }

    #[test]
    fn revoked_firmware_grounds_the_meter_until_recertified() {
        use lateral_registry::measurement_of;
        use lateral_substrate::fault::{FaultPlan, FaultSpec};

        let mut world = SmartMeterWorld::new(WorldConfig::default());
        assert!(matches!(world.billing_round(), BillingOutcome::Billed(_)));

        // A vulnerability is found in the deployed firmware; the
        // registry revokes it while the meter happens to crash.
        world
            .registry
            .revoke(measurement_of(METER_IMAGE), "field recall")
            .unwrap();
        world.inject_meter_fault(FaultPlan::new().with(FaultSpec::crash("meter-agent", 1)));
        assert!(!matches!(world.billing_round(), BillingOutcome::Billed(_)));

        // Recovery re-resolves through the registry and is refused — the
        // supervisor must not respawn recalled firmware.
        let err = world.recover_meter().unwrap_err();
        assert!(err.contains("revoked"), "{err}");
        assert!(!matches!(world.billing_round(), BillingOutcome::Billed(_)));
    }

    #[test]
    fn gateway_caps_android_flood() {
        let mut world = SmartMeterWorld::new(WorldConfig::default());
        // Non-whitelisted DDoS target: all denied.
        let (allowed, denied) = world.android_flood("victim.example.net", 50, 100);
        assert_eq!(allowed, 0);
        assert_eq!(denied, 50);
        // Whitelisted utility: budget-capped.
        let (allowed, denied) = world.android_flood("utility.example.org", 50, 1000);
        assert_eq!(allowed, 8, "8000-byte budget = 8 sends");
        assert_eq!(denied, 42);
    }

    #[test]
    fn trusted_indicator_defeats_phishing() {
        let mut world = SmartMeterWorld::new(WorldConfig::default());
        let (indicator, screen) = world.phishing_attempt();
        assert!(screen.contains("enter your utility password"));
        assert_eq!(indicator, "Android Apps [red]");
    }
}
