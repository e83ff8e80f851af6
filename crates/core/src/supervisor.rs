//! The supervision tree: crashed components restart, re-attest, and
//! rejoin the assembly.
//!
//! E1 proves *containment* — a fault stays inside its domain — but a
//! production assembly also needs *recovery*: once a domain fail-stops,
//! every channel into it serves errors forever unless something puts a
//! successor in its place. The [`Supervisor`] is that something. It
//! owns a composed [`Assembly`] together with the [`AppManifest`] and
//! [`ComponentFactory`] that built it (the composer itself retains
//! neither), and drives each crash through the paper-faithful cycle:
//!
//! 1. **destroy** the crashed domain — the fabric revokes every
//!    capability targeting it, so stale channels are dead by
//!    construction, not by convention;
//! 2. wait out a **capped, doubling logical-clock backoff** declared in
//!    the manifest ([`RestartPolicy`]);
//! 3. **respawn** from the manifest image on the same substrate —
//!    nothing is replayed; the successor starts from its image like any
//!    cold boot;
//! 4. **re-measure and re-attest**: the successor must measure
//!    identically to the baseline recorded at composition, and (where
//!    the substrate can attest) produce evidence carrying that same
//!    measurement — a restarted impostor cannot slip in;
//! 5. **re-grant exactly the manifest-declared channels** — POLA
//!    survives the restart because the grant set is recomputed from the
//!    manifest, never from runtime state.
//!
//! Callers see a bounded window of [`CoreError::Unavailable`]; a
//! component that exhausts its restart budget is quarantined while the
//! rest of the assembly keeps serving ([`Health::Degraded`]); an
//! [`RestartPolicy::Escalate`] component failing takes the whole
//! assembly to [`Health::Failed`].

use std::collections::BTreeMap;

use lateral_crypto::Digest;
use lateral_registry::Registry;
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::substrate::Substrate;
use lateral_substrate::SubstrateError;

use crate::composer::{compose, compose_admitted, Assembly, ComponentFactory, Health};
use crate::manifest::{AppManifest, RestartPolicy};
use crate::placement::{plan_placement, PlacementPlan};
use crate::CoreError;

/// Report data bound into both the baseline and every post-restart
/// attestation, so recovered evidence is byte-comparable to the
/// original.
pub const ATTEST_CONTEXT: &[u8] = b"lateral.supervisor.attest";

#[derive(Clone, PartialEq, Eq, Debug)]
enum State {
    Up,
    /// Crashed; next restart attempt allowed once the component's
    /// substrate clock reaches `resume_at`.
    Down {
        resume_at: u64,
    },
    Quarantined,
}

/// Supervises a composed assembly: detects fail-stops on the call path,
/// restarts per the manifest's [`RestartPolicy`], and reports
/// [`Health`].
pub struct Supervisor {
    assembly: Assembly,
    app: AppManifest,
    factory: Box<dyn ComponentFactory>,
    states: BTreeMap<String, State>,
    restart_counts: BTreeMap<String, u32>,
    baselines: BTreeMap<String, Digest>,
    baseline_evidence: BTreeMap<String, Option<AttestationEvidence>>,
    last_evidence: BTreeMap<String, Option<AttestationEvidence>>,
    escalated: Option<String>,
    /// Admission-control mode: present when the supervisor was built
    /// with [`Supervisor::new_admitted`]. Every respawn re-resolves
    /// through it, and [`Supervisor::tick`] sweeps it for revocations.
    registry: Option<Registry>,
    ticks: u64,
    /// Sealed-state escrow: blobs a component sealed on its current
    /// substrate, held so live migration can open them at the source
    /// and re-seal them at the target (sealing keys never cross
    /// substrates).
    sealed_escrow: BTreeMap<String, Vec<Vec<u8>>>,
    migration_counts: BTreeMap<String, u32>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Supervisor({} components, {:?})",
            self.states.len(),
            self.health()
        )
    }
}

impl Supervisor {
    /// Composes `app` over `substrates` and places it under supervision,
    /// recording each component's baseline measurement and (where the
    /// substrate can attest) baseline attestation evidence.
    ///
    /// # Errors
    ///
    /// Everything [`compose`] can return.
    pub fn new(
        app: AppManifest,
        substrates: Vec<Box<dyn Substrate>>,
        mut factory: Box<dyn ComponentFactory>,
    ) -> Result<Supervisor, CoreError> {
        let assembly = compose(&app, substrates, factory.as_mut())?;
        Supervisor::from_parts(assembly, app, factory, None)
    }

    /// Like [`Supervisor::new`], but under **admission control**: the
    /// initial composition and every later respawn resolve images
    /// through `registry` ([`compose_admitted`]), and
    /// [`Supervisor::tick`] quarantines running instances of revoked
    /// digests.
    ///
    /// # Errors
    ///
    /// Everything [`compose_admitted`] can return.
    pub fn new_admitted(
        app: AppManifest,
        substrates: Vec<Box<dyn Substrate>>,
        mut factory: Box<dyn ComponentFactory>,
        mut registry: Registry,
    ) -> Result<Supervisor, CoreError> {
        let assembly = compose_admitted(&app, substrates, factory.as_mut(), &mut registry)?;
        Supervisor::from_parts(assembly, app, factory, Some(registry))
    }

    fn from_parts(
        assembly: Assembly,
        app: AppManifest,
        factory: Box<dyn ComponentFactory>,
        registry: Option<Registry>,
    ) -> Result<Supervisor, CoreError> {
        let mut sup = Supervisor {
            assembly,
            app,
            factory,
            states: BTreeMap::new(),
            restart_counts: BTreeMap::new(),
            baselines: BTreeMap::new(),
            baseline_evidence: BTreeMap::new(),
            last_evidence: BTreeMap::new(),
            escalated: None,
            registry,
            ticks: 0,
            sealed_escrow: BTreeMap::new(),
            migration_counts: BTreeMap::new(),
        };
        for cm in &sup.app.components.clone() {
            sup.states.insert(cm.name.clone(), State::Up);
            sup.restart_counts.insert(cm.name.clone(), 0);
            let m = sup.assembly.measurement(&cm.name)?;
            sup.baselines.insert(cm.name.clone(), m);
            let ev = sup.attest_raw(&cm.name)?;
            sup.baseline_evidence.insert(cm.name.clone(), ev.clone());
            sup.last_evidence.insert(cm.name.clone(), ev);
        }
        Ok(sup)
    }

    /// Attests a component with [`ATTEST_CONTEXT`], returning `None`
    /// where the substrate cannot attest (e.g. pure software).
    fn attest_raw(&mut self, name: &str) -> Result<Option<AttestationEvidence>, CoreError> {
        let p = self.assembly.placement(name)?;
        match self.assembly.substrates[p.substrate].attest(p.domain, ATTEST_CONTEXT) {
            Ok(ev) => Ok(Some(ev)),
            Err(SubstrateError::Unsupported(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn clock_of(&self, name: &str) -> Result<u64, CoreError> {
        let p = self.assembly.placement(name)?;
        Ok(self.assembly.substrates[p.substrate].now())
    }

    /// Supervised environment invocation of a component. Routes through
    /// the assembly when the component is up; during a crash window it
    /// returns [`CoreError::Unavailable`] and, once the backoff deadline
    /// passes, performs the restart inline before dispatching.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unavailable`] while the component is down,
    /// quarantined, or the assembly has failed; otherwise the underlying
    /// assembly errors.
    pub fn call(&mut self, name: &str, data: &[u8]) -> Result<Vec<u8>, CoreError> {
        if let Some(who) = &self.escalated {
            return Err(CoreError::Unavailable(format!(
                "assembly failed: crash of '{who}' escalated"
            )));
        }
        let state = self
            .states
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("component '{name}'")))?;
        match state {
            State::Quarantined => Err(CoreError::Unavailable(format!(
                "'{name}' is quarantined (restart budget exhausted)"
            ))),
            State::Down { resume_at } => {
                if self.clock_of(name)? < resume_at {
                    return Err(CoreError::Unavailable(format!(
                        "'{name}' is down, restart at tick {resume_at}"
                    )));
                }
                match self.try_restart(name) {
                    Ok(()) => {
                        self.states.insert(name.to_string(), State::Up);
                        self.dispatch(name, data)
                    }
                    Err(e @ CoreError::AdmissionRefused { .. }) => {
                        // A refused image will stay refused until the
                        // registry changes: no point burning restart
                        // budget on retries — quarantine now.
                        self.quarantine(name);
                        Err(CoreError::Unavailable(format!(
                            "restart of '{name}' refused: {e}"
                        )))
                    }
                    Err(e) => {
                        self.note_restart_failure(name);
                        Err(CoreError::Unavailable(format!(
                            "restart of '{name}' failed: {e}"
                        )))
                    }
                }
            }
            State::Up => self.dispatch(name, data),
        }
    }

    fn dispatch(&mut self, name: &str, data: &[u8]) -> Result<Vec<u8>, CoreError> {
        match self.assembly.call_component(name, data) {
            Err(CoreError::Unavailable(r)) => {
                // The fabric reported a fail-stop mid-call: begin the
                // supervision cycle now.
                self.on_crash(name);
                Err(CoreError::Unavailable(r))
            }
            other => other,
        }
    }

    /// Crash handling: destroy the domain immediately (stale caps die
    /// with it), then schedule per policy.
    fn on_crash(&mut self, name: &str) {
        if let Ok(p) = self.assembly.placement(name) {
            let _ = self.assembly.substrates[p.substrate].destroy(p.domain);
        }
        let policy = self
            .app
            .component(name)
            .map(|c| c.restart)
            .unwrap_or(RestartPolicy::Never);
        match policy {
            RestartPolicy::Never => {
                self.quarantine(name);
            }
            RestartPolicy::Escalate => {
                self.quarantine(name);
                self.escalated = Some(name.to_string());
            }
            RestartPolicy::Restart { max_restarts, .. } => {
                let count = *self.restart_counts.get(name).unwrap_or(&0);
                if count >= max_restarts {
                    self.quarantine(name);
                } else {
                    let resume_at = self
                        .clock_of(name)
                        .unwrap_or(0)
                        .saturating_add(policy.backoff(count));
                    self.states
                        .insert(name.to_string(), State::Down { resume_at });
                }
            }
        }
    }

    fn note_restart_failure(&mut self, name: &str) {
        let count = {
            let c = self.restart_counts.entry(name.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        let policy = self
            .app
            .component(name)
            .map(|c| c.restart)
            .unwrap_or(RestartPolicy::Never);
        match policy {
            RestartPolicy::Restart { max_restarts, .. } if count < max_restarts => {
                let resume_at = self
                    .clock_of(name)
                    .unwrap_or(0)
                    .saturating_add(policy.backoff(count));
                self.states
                    .insert(name.to_string(), State::Down { resume_at });
            }
            _ => {
                self.quarantine(name);
            }
        }
    }

    /// The single quarantine transition point: flips `name` to
    /// [`State::Quarantined`] and counts the transition — exactly once
    /// per component lifetime — as `supervisor.quarantines` on the
    /// component's substrate telemetry. Re-quarantining is a state
    /// no-op and never double-counts.
    fn quarantine(&mut self, name: &str) {
        let already = matches!(self.states.get(name), Some(State::Quarantined));
        self.states.insert(name.to_string(), State::Quarantined);
        if already {
            return;
        }
        if let Ok(p) = self.assembly.placement(name) {
            self.assembly
                .substrate_mut(p.substrate)
                .telemetry_mut()
                .metrics_mut()
                .incr("supervisor.quarantines", 1);
        }
    }

    /// The restart cycle: **re-resolve the image** (never reuse the
    /// copy captured at first spawn — revocations and certified image
    /// updates must take effect on restart), respawn, verify the
    /// successor measures as expected, re-attest, re-grant declared
    /// channels.
    ///
    /// Without a registry the expected measurement is the composition
    /// baseline. With one, a *different* certified digest for the name
    /// is a legitimate image update: the supervisor adopts it and the
    /// new measurement becomes the baseline; a revoked or uncertified
    /// digest refuses the restart outright.
    fn try_restart(&mut self, name: &str) -> Result<(), CoreError> {
        // The whole recovery cycle — rebuild, respawn, re-measure,
        // re-attest, re-grant — is one `respawn` span on the
        // component's substrate.
        let idx = self.assembly.placement(name)?.substrate;
        self.traced_cycle(
            idx,
            (&format!("respawn {name}"), "supervisor"),
            ("supervisor.restarts", "supervisor.respawn.ticks"),
            |sup| sup.restart_cycle(name),
        )
    }

    /// Runs `cycle` under one `span` (name, layer) on pool substrate
    /// `idx`, so the spawn and grant spans the cycle triggers nest under
    /// it causally; counts `counter` when the cycle succeeds and
    /// observes its ticks in `ticks` either way.
    fn traced_cycle(
        &mut self,
        idx: usize,
        span: (&str, &'static str),
        (counter, ticks): (&str, &str),
        cycle: impl FnOnce(&mut Supervisor) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let sub = self.assembly.substrate_mut(idx);
        let started = sub.now();
        let id = sub.telemetry_mut().begin_span(span.0, span.1, started);
        let result = cycle(self);
        let sub = self.assembly.substrate_mut(idx);
        let at = sub.now();
        let outcome = if result.is_ok() {
            lateral_telemetry::outcome::OK
        } else {
            lateral_telemetry::outcome::FAILED
        };
        let t = sub.telemetry_mut();
        t.end_span(id, at, outcome);
        let metrics = t.metrics_mut();
        if result.is_ok() {
            metrics.incr(counter, 1);
        }
        metrics.observe(ticks, at.saturating_sub(started));
        result
    }

    fn restart_cycle(&mut self, name: &str) -> Result<(), CoreError> {
        let mut cm = self
            .app
            .component(name)
            .ok_or_else(|| CoreError::NotFound(format!("component '{name}'")))?
            .clone();
        let mut adopted_update = false;
        if let Some(registry) = &mut self.registry {
            let resolved = registry
                .resolve(name)
                .map_err(|e| CoreError::AdmissionRefused {
                    component: name.to_string(),
                    reason: format!("respawn re-resolution: {e}"),
                })?;
            if resolved.image != cm.image {
                // A newer certified image was published since the last
                // spawn: adopt it, in the app manifest too, so later
                // restarts and re-grants agree.
                cm.image = resolved.image.clone();
                adopted_update = true;
                if let Some(c) = self.app.components.iter_mut().find(|c| c.name == name) {
                    c.image = resolved.image;
                }
            }
        }
        let component = self.factory.build(&cm).ok_or_else(|| {
            CoreError::InvalidManifest(format!("factory cannot rebuild '{name}'"))
        })?;
        self.assembly.respawn(&cm, component)?;
        let m = self.assembly.measurement(name)?;
        if adopted_update {
            self.baselines.insert(name.to_string(), m);
        } else {
            let baseline = self.baselines[name];
            if m != baseline {
                return Err(CoreError::Substrate(format!(
                    "respawned '{name}' measurement diverged from baseline"
                )));
            }
        }
        let ev = self.attest_raw(name)?;
        if let Some(ev) = &ev {
            if ev.measurement != self.baselines[name] {
                return Err(CoreError::Substrate(format!(
                    "respawned '{name}' attestation evidence diverged from baseline"
                )));
            }
        }
        if adopted_update {
            self.baseline_evidence.insert(name.to_string(), ev.clone());
        }
        self.last_evidence.insert(name.to_string(), ev);
        self.restart_counts
            .entry(name.to_string())
            .and_modify(|c| *c += 1)
            .or_insert(1);
        self.assembly.regrant(&self.app, name)?;
        Ok(())
    }

    /// Places a sealed blob under the supervisor's migration escrow for
    /// `name`. During a live migration every registered blob is opened
    /// at the source (while the domain is still alive), carried across,
    /// and re-sealed at the target — the escrow entry is replaced by
    /// the re-sealed form, readable via [`Supervisor::sealed_blobs`].
    pub fn register_sealed(&mut self, name: &str, blob: Vec<u8>) {
        self.sealed_escrow
            .entry(name.to_string())
            .or_default()
            .push(blob);
    }

    /// The sealed blobs currently escrowed for `name` (re-sealed under
    /// the target substrate's keys after a migration).
    #[must_use]
    pub fn sealed_blobs(&self, name: &str) -> &[Vec<u8>] {
        self.sealed_escrow.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Live migrations performed for a component so far.
    #[must_use]
    pub fn migrations(&self, name: &str) -> u32 {
        *self.migration_counts.get(name).unwrap_or(&0)
    }

    /// The optimizer pass: folds the pool's crossing profiles into one
    /// merged [`lateral_telemetry::profile::CrossingProfile`] and
    /// scores every placed component against every pool candidate
    /// ([`plan_placement`]) under a `placement.score` span per pool
    /// substrate, counting `placement.plans` and `placement.moves` in
    /// each substrate's metrics. The plan is returned, not applied —
    /// [`Supervisor::apply_plan`] is the actuation step.
    ///
    /// # Errors
    ///
    /// Everything [`plan_placement`] can return.
    pub fn optimize(&mut self) -> Result<PlacementPlan, CoreError> {
        let spans: Vec<lateral_telemetry::SpanId> = (0..self.assembly.substrate_count())
            .map(|idx| {
                let sub = self.assembly.substrate_mut(idx);
                let at = sub.now();
                sub.telemetry_mut()
                    .begin_span("placement.score", "placement", at)
            })
            .collect();
        let profile = self.assembly.crossing_profile();
        let result = plan_placement(&self.app, &self.assembly, &profile);
        let outcome = if result.is_ok() {
            lateral_telemetry::outcome::OK
        } else {
            lateral_telemetry::outcome::FAILED
        };
        for (idx, span) in spans.into_iter().enumerate() {
            let sub = self.assembly.substrate_mut(idx);
            let at = sub.now();
            let t = sub.telemetry_mut();
            t.end_span(span, at, outcome);
            if let Ok(plan) = &result {
                let metrics = t.metrics_mut();
                metrics.incr("placement.plans", 1);
                metrics.incr("placement.moves", plan.move_count() as u64);
            }
        }
        result
    }

    /// Applies a [`PlacementPlan`]: every decision that moves its
    /// component is actuated via [`Supervisor::migrate_component`], in
    /// plan (component-name) order. Components that are not currently
    /// up are skipped — a crashed or quarantined component has no live
    /// state to migrate; its own recovery path owns it. Returns the
    /// number of migrations performed.
    ///
    /// # Errors
    ///
    /// The first failing migration's error (later moves unattempted).
    pub fn apply_plan(&mut self, plan: &PlacementPlan) -> Result<u32, CoreError> {
        let mut applied = 0;
        for d in plan.moves() {
            if !matches!(self.states.get(&d.component), Some(State::Up)) {
                continue;
            }
            self.migrate_component(&d.component, d.chosen)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Live-migrates one component to the `target` pool substrate,
    /// under a `placement.migrate {name}` span on the target (the spawn
    /// and grant spans of the cycle nest under it), counting
    /// `placement.migrations` and observing `placement.migrate.ticks`.
    /// A `target` equal to the current placement is a no-op.
    ///
    /// The cycle mirrors the restart cycle, with a seal-escrow leg:
    /// re-resolve the image when admission-controlled, open every
    /// escrowed blob at the source while the domain is live, destroy,
    /// spawn from the manifest image on the target, verify the
    /// successor measures as the baseline, re-attest where supported,
    /// re-seal the escrow under the target's keys, and re-grant exactly
    /// the manifest-declared channels.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown components or pool indexes;
    /// [`CoreError::AdmissionRefused`] when the registry refuses the
    /// re-resolution; substrate errors from any leg of the cycle.
    pub fn migrate_component(&mut self, name: &str, target: usize) -> Result<(), CoreError> {
        let p = self.assembly.placement(name)?;
        if target >= self.assembly.substrate_count() {
            return Err(CoreError::NotFound(format!(
                "pool substrate index {target}"
            )));
        }
        if p.substrate == target {
            return Ok(());
        }
        self.traced_cycle(
            target,
            (&format!("placement.migrate {name}"), "placement"),
            ("placement.migrations", "placement.migrate.ticks"),
            |sup| sup.migrate_cycle(name, target),
        )
    }

    fn migrate_cycle(&mut self, name: &str, target: usize) -> Result<(), CoreError> {
        let mut cm = self
            .app
            .component(name)
            .ok_or_else(|| CoreError::NotFound(format!("component '{name}'")))?
            .clone();
        let mut adopted_update = false;
        if let Some(registry) = &mut self.registry {
            let resolved = registry
                .resolve(name)
                .map_err(|e| CoreError::AdmissionRefused {
                    component: name.to_string(),
                    reason: format!("migration re-resolution: {e}"),
                })?;
            if resolved.image != cm.image {
                cm.image = resolved.image.clone();
                adopted_update = true;
                if let Some(c) = self.app.components.iter_mut().find(|c| c.name == name) {
                    c.image = resolved.image;
                }
            }
        }
        // Escrow out: open every registered blob at the source while
        // the domain is still alive — after the destroy the sealing key
        // is unreachable and the state would be lost.
        let p = self.assembly.placement(name)?;
        let blobs = self.sealed_escrow.get(name).cloned().unwrap_or_default();
        let mut opened = Vec::with_capacity(blobs.len());
        for blob in &blobs {
            opened.push(self.assembly.substrates[p.substrate].unseal(p.domain, blob)?);
        }
        let component = self.factory.build(&cm).ok_or_else(|| {
            CoreError::InvalidManifest(format!("factory cannot rebuild '{name}'"))
        })?;
        self.assembly.migrate(&cm, component, target)?;
        let m = self.assembly.measurement(name)?;
        if adopted_update {
            self.baselines.insert(name.to_string(), m);
        } else {
            let baseline = self.baselines[name];
            if m != baseline {
                return Err(CoreError::Substrate(format!(
                    "migrated '{name}' measurement diverged from baseline"
                )));
            }
        }
        let ev = self.attest_raw(name)?;
        if let Some(ev) = &ev {
            if ev.measurement != self.baselines[name] {
                return Err(CoreError::Substrate(format!(
                    "migrated '{name}' attestation evidence diverged from baseline"
                )));
            }
        }
        if adopted_update {
            self.baseline_evidence.insert(name.to_string(), ev.clone());
        }
        self.last_evidence.insert(name.to_string(), ev);
        // Escrow in: re-seal under the target's keys; the escrow entry
        // now holds blobs only the migrated incarnation can open.
        let q = self.assembly.placement(name)?;
        let mut resealed = Vec::with_capacity(opened.len());
        for plaintext in &opened {
            resealed.push(self.assembly.substrates[q.substrate].seal(q.domain, plaintext)?);
        }
        if !resealed.is_empty() {
            self.sealed_escrow.insert(name.to_string(), resealed);
        }
        self.migration_counts
            .entry(name.to_string())
            .and_modify(|c| *c += 1)
            .or_insert(1);
        self.assembly.regrant(&self.app, name)?;
        Ok(())
    }

    /// Liveness summary. [`Health::Failed`] when an escalating component
    /// crashed or everything is down; [`Health::Degraded`] names the
    /// components currently down or quarantined.
    pub fn health(&self) -> Health {
        if self.escalated.is_some() {
            return Health::Failed;
        }
        let down: Vec<String> = self
            .states
            .iter()
            .filter(|(_, s)| !matches!(s, State::Up))
            .map(|(n, _)| n.clone())
            .collect();
        if down.is_empty() {
            Health::Healthy
        } else if down.len() == self.states.len() {
            Health::Failed
        } else {
            Health::Degraded(down)
        }
    }

    /// Restarts performed for a component so far.
    pub fn restarts(&self, name: &str) -> u32 {
        *self.restart_counts.get(name).unwrap_or(&0)
    }

    /// Whether a component exhausted its budget (or crashed under
    /// `Never`/`Escalate`) and is out of service for good.
    pub fn is_quarantined(&self, name: &str) -> bool {
        matches!(self.states.get(name), Some(State::Quarantined))
    }

    /// The measurement recorded at composition time.
    pub fn baseline_measurement(&self, name: &str) -> Option<Digest> {
        self.baselines.get(name).copied()
    }

    /// The attestation evidence recorded at composition time (`None`
    /// when the hosting substrate cannot attest).
    pub fn baseline_evidence(&self, name: &str) -> Option<&AttestationEvidence> {
        self.baseline_evidence.get(name).and_then(|e| e.as_ref())
    }

    /// The most recent attestation evidence (updated on every
    /// successful restart).
    pub fn evidence(&self, name: &str) -> Option<&AttestationEvidence> {
        self.last_evidence.get(name).and_then(|e| e.as_ref())
    }

    /// One supervision health tick. With a registry attached, sweeps
    /// every *running* component: an instance whose measurement digest
    /// has been revoked, or whose web-of-trust score has dropped below
    /// the registry's admission threshold (a distrust wave landed since
    /// the spawn), is destroyed and quarantined on the spot — the
    /// revocation-to-quarantine latency is therefore bounded by the
    /// tick cadence, and demotion burns zero restart budget. Returns
    /// the names quarantined by this tick.
    pub fn tick(&mut self) -> Vec<String> {
        self.ticks += 1;
        if self.registry.is_none() {
            return Vec::new();
        }
        let up: Vec<String> = self
            .states
            .iter()
            .filter(|(_, s)| matches!(s, State::Up))
            .map(|(n, _)| n.clone())
            .collect();
        let mut quarantined = Vec::new();
        for name in up {
            let Ok(digest) = self.assembly.measurement(&name) else {
                continue;
            };
            let revoked = self.registry.as_ref().is_some_and(|r| r.is_revoked(digest));
            let demoted = !revoked
                && self
                    .registry
                    .as_mut()
                    .is_some_and(|r| r.wot_demoted(digest));
            if revoked || demoted {
                if let Ok(p) = self.assembly.placement(&name) {
                    let _ = self.assembly.substrates[p.substrate].destroy(p.domain);
                }
                self.quarantine(&name);
                quarantined.push(name);
            }
        }
        quarantined
    }

    /// Health ticks performed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The attached registry, when built with
    /// [`Supervisor::new_admitted`].
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// Mutable access to the attached registry (publishing updates,
    /// revoking digests mid-run).
    pub fn registry_mut(&mut self) -> Option<&mut Registry> {
        self.registry.as_mut()
    }

    /// The supervised assembly (read side).
    pub fn assembly(&self) -> &Assembly {
        &self.assembly
    }

    /// The supervised assembly (write side — fault-plan installation,
    /// attack injection in experiments).
    pub fn assembly_mut(&mut self) -> &mut Assembly {
        &mut self.assembly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ComponentManifest;
    use lateral_substrate::component::Component;
    use lateral_substrate::fault::{FaultPlan, FaultSpec};
    use lateral_substrate::software::SoftwareSubstrate;
    use lateral_substrate::testkit::Echo;

    fn factory() -> Box<dyn ComponentFactory> {
        Box::new(|_: &ComponentManifest| Some(Box::new(Echo) as Box<dyn Component>))
    }

    fn pool() -> Vec<Box<dyn Substrate>> {
        vec![Box::new(SoftwareSubstrate::new("sup-test"))]
    }

    fn two_workers(policy: RestartPolicy) -> AppManifest {
        AppManifest::new(
            "supervised",
            vec![
                ComponentManifest::new("worker").restart(policy),
                ComponentManifest::new("sidekick"),
            ],
        )
    }

    fn install(sup: &mut Supervisor, plan: FaultPlan) {
        sup.assembly_mut()
            .substrate_mut(0)
            .fabric_mut()
            .install_fault_plan(plan);
    }

    /// Drives `worker` + `sidekick` until the worker answers again,
    /// returning (lost calls, answered).
    fn drive(sup: &mut Supervisor, rounds: usize) -> (u32, u32) {
        let (mut lost, mut served) = (0, 0);
        for _ in 0..rounds {
            match sup.call("worker", b"ping") {
                Ok(_) => served += 1,
                Err(CoreError::Unavailable(_)) => lost += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            // Sidekick traffic keeps the logical clock moving through
            // the backoff window.
            sup.call("sidekick", b"tick").unwrap();
        }
        (lost, served)
    }

    #[test]
    fn transient_crash_restarts_within_budget() {
        let app = two_workers(RestartPolicy::Restart {
            max_restarts: 3,
            backoff_base: 20,
        });
        let mut sup = Supervisor::new(app, pool(), factory()).unwrap();
        install(
            &mut sup,
            FaultPlan::new().with(FaultSpec::crash("worker", 2)),
        );
        let baseline = sup.baseline_measurement("worker").unwrap();
        let (lost, served) = drive(&mut sup, 40);
        assert!(lost >= 1, "the injected crash loses at least one call");
        assert!(served >= 30, "service resumed after the bounded window");
        assert_eq!(sup.restarts("worker"), 1);
        assert_eq!(sup.health(), Health::Healthy);
        assert_eq!(sup.assembly().measurement("worker").unwrap(), baseline);
    }

    #[test]
    fn permanent_crash_exhausts_budget_and_quarantines() {
        let app = two_workers(RestartPolicy::Restart {
            max_restarts: 2,
            backoff_base: 10,
        });
        let mut sup = Supervisor::new(app, pool(), factory()).unwrap();
        install(
            &mut sup,
            FaultPlan::new().with(FaultSpec::crash("worker", 1).permanent()),
        );
        let (_, served) = drive(&mut sup, 60);
        assert_eq!(served, 0, "a permanent fault never recovers");
        assert!(sup.is_quarantined("worker"));
        assert_eq!(sup.restarts("worker"), 2, "budget fully spent first");
        assert_eq!(sup.health(), Health::Degraded(vec!["worker".into()]));
        // The rest of the assembly keeps serving.
        assert_eq!(sup.call("sidekick", b"x").unwrap(), b"x");
    }

    #[test]
    fn quarantine_counter_increments_exactly_once_per_exhaustion() {
        let app = two_workers(RestartPolicy::Restart {
            max_restarts: 2,
            backoff_base: 10,
        });
        let mut sup = Supervisor::new(app, pool(), factory()).unwrap();
        install(
            &mut sup,
            FaultPlan::new().with(FaultSpec::crash("worker", 1).permanent()),
        );
        let quarantines = |sup: &mut Supervisor| {
            sup.assembly_mut()
                .substrate_mut(0)
                .telemetry_mut()
                .metrics_mut()
                .counter("supervisor.quarantines")
        };
        assert_eq!(quarantines(&mut sup), 0);
        let _ = drive(&mut sup, 60);
        assert!(sup.is_quarantined("worker"));
        assert_eq!(
            quarantines(&mut sup),
            1,
            "one budget exhaustion = one count"
        );
        // Hitting the quarantined component again never re-counts.
        for _ in 0..5 {
            let _ = sup.call("worker", b"x");
        }
        assert_eq!(quarantines(&mut sup), 1);
    }

    #[test]
    fn never_policy_quarantines_on_first_crash() {
        let app = two_workers(RestartPolicy::Never);
        let mut sup = Supervisor::new(app, pool(), factory()).unwrap();
        install(
            &mut sup,
            FaultPlan::new().with(FaultSpec::crash("worker", 1)),
        );
        assert!(matches!(
            sup.call("worker", b"x"),
            Err(CoreError::Unavailable(_))
        ));
        assert!(sup.is_quarantined("worker"));
        assert_eq!(sup.restarts("worker"), 0);
    }

    #[test]
    fn escalate_policy_fails_the_assembly() {
        let app = two_workers(RestartPolicy::Escalate);
        let mut sup = Supervisor::new(app, pool(), factory()).unwrap();
        install(
            &mut sup,
            FaultPlan::new().with(FaultSpec::crash("worker", 1)),
        );
        let _ = sup.call("worker", b"x");
        assert_eq!(sup.health(), Health::Failed);
        assert!(matches!(
            sup.call("sidekick", b"x"),
            Err(CoreError::Unavailable(_))
        ));
    }

    #[test]
    fn spawn_fault_during_restart_consumes_budget_then_recovers() {
        let app = two_workers(RestartPolicy::Restart {
            max_restarts: 3,
            backoff_base: 10,
        });
        let mut sup = Supervisor::new(app, pool(), factory()).unwrap();
        // Crash once; the first respawn attempt also fails.
        install(
            &mut sup,
            FaultPlan::new()
                .with(FaultSpec::crash("worker", 1))
                .with(FaultSpec::fail_spawn("worker", 1)),
        );
        let (lost, served) = drive(&mut sup, 60);
        assert!(lost >= 2, "crash + failed restart both lose calls");
        assert!(served > 0, "second restart attempt succeeds");
        assert_eq!(sup.restarts("worker"), 2);
        assert_eq!(sup.health(), Health::Healthy);
    }

    mod admitted {
        use super::*;
        use lateral_crypto::sign::SigningKey;
        use lateral_registry::{measurement_of, ManifestDraft};

        /// A registry trusting one root, holding every component of the
        /// two-workers app under its manifest-default image bytes.
        fn registry() -> Registry {
            let root = SigningKey::from_seed(b"supervisor admission root");
            let mut reg = Registry::new("sup-admission");
            reg.trust_root(&root.verifying_key());
            for (name, image) in [("worker", b"worker".as_slice()), ("sidekick", b"sidekick")] {
                reg.publish(image, ManifestDraft::new(name, image).sign(&root, None))
                    .unwrap();
            }
            reg
        }

        fn admitted_sup(policy: RestartPolicy) -> Supervisor {
            Supervisor::new_admitted(two_workers(policy), pool(), factory(), registry()).unwrap()
        }

        #[test]
        fn revoked_running_instance_quarantined_on_next_tick() {
            let mut sup = admitted_sup(RestartPolicy::Restart {
                max_restarts: 3,
                backoff_base: 10,
            });
            assert_eq!(sup.call("worker", b"ping").unwrap(), b"ping");
            assert_eq!(sup.tick(), Vec::<String>::new(), "nothing revoked yet");
            sup.registry_mut()
                .unwrap()
                .revoke(measurement_of(b"worker"), "supply-chain incident")
                .unwrap();
            // Still up until the sweep runs...
            assert!(!sup.is_quarantined("worker"));
            // ...and quarantined by the very next tick.
            assert_eq!(sup.tick(), vec!["worker".to_string()]);
            assert!(sup.is_quarantined("worker"));
            assert_eq!(sup.ticks(), 2);
            assert!(matches!(
                sup.call("worker", b"ping"),
                Err(CoreError::Unavailable(_))
            ));
            // The rest of the assembly keeps serving.
            assert_eq!(sup.call("sidekick", b"x").unwrap(), b"x");
            assert_eq!(sup.health(), Health::Degraded(vec!["worker".into()]));
        }

        #[test]
        fn wot_demoted_instance_quarantined_on_next_tick_without_restarts() {
            use lateral_wot::{Proof, Rating, ReviewProof, TrustGraph};
            let mut reg = registry();
            let reviewer = SigningKey::from_seed(b"fleet reviewer");
            let mut graph = TrustGraph::new();
            graph.seed_root(&reviewer.verifying_key().to_bytes());
            reg.attach_wot(graph, 100);
            // Both images need clearing reviews before admission.
            for image in [b"worker".as_slice(), b"sidekick"] {
                let review = ReviewProof::issue(&reviewer, measurement_of(image), Rating::High, 1);
                reg.ingest_proof(&Proof::Review(review)).unwrap();
            }
            let mut sup = Supervisor::new_admitted(
                two_workers(RestartPolicy::Restart {
                    max_restarts: 3,
                    backoff_base: 10,
                }),
                pool(),
                factory(),
                reg,
            )
            .unwrap();
            assert_eq!(sup.call("worker", b"ping").unwrap(), b"ping");
            assert_eq!(sup.tick(), Vec::<String>::new(), "scores still clear");
            // Distrust wave: the root reviewer's later review supersedes
            // its earlier `high`, dragging the subject score negative.
            let wave =
                ReviewProof::issue(&reviewer, measurement_of(b"worker"), Rating::Distrust, 2);
            sup.registry_mut()
                .unwrap()
                .ingest_proof(&Proof::Review(wave))
                .unwrap();
            assert!(
                !sup.is_quarantined("worker"),
                "demotion waits for the sweep"
            );
            assert_eq!(sup.tick(), vec!["worker".to_string()]);
            assert!(sup.is_quarantined("worker"));
            assert_eq!(
                sup.restarts("worker"),
                0,
                "demotion burns zero restart budget"
            );
            // Re-ticking never re-quarantines, and the rest keeps serving.
            assert_eq!(sup.tick(), Vec::<String>::new());
            assert_eq!(sup.call("sidekick", b"x").unwrap(), b"x");
            assert_eq!(sup.health(), Health::Degraded(vec!["worker".into()]));
        }

        #[test]
        fn respawn_of_revoked_image_refused() {
            let mut sup = admitted_sup(RestartPolicy::Restart {
                max_restarts: 3,
                backoff_base: 10,
            });
            install(
                &mut sup,
                FaultPlan::new().with(FaultSpec::crash("worker", 2)),
            );
            // Crash the worker, then revoke its image while it is down.
            let _ = sup.call("worker", b"ping");
            let _ = sup.call("worker", b"boom");
            sup.registry_mut()
                .unwrap()
                .revoke(measurement_of(b"worker"), "revoked while down")
                .unwrap();
            let (_, served) = drive(&mut sup, 40);
            assert_eq!(served, 0, "a revoked image must never respawn");
            assert!(sup.is_quarantined("worker"));
            assert_eq!(sup.restarts("worker"), 0);
        }

        #[test]
        fn certified_image_update_adopted_on_restart() {
            let mut sup = admitted_sup(RestartPolicy::Restart {
                max_restarts: 3,
                backoff_base: 10,
            });
            let old_baseline = sup.baseline_measurement("worker").unwrap();
            // Publish worker v2 — a *certified* update — then crash v1.
            let root = SigningKey::from_seed(b"supervisor admission root");
            sup.registry_mut()
                .unwrap()
                .publish(
                    b"worker v2",
                    ManifestDraft::new("worker", b"worker v2").sign(&root, None),
                )
                .unwrap();
            install(
                &mut sup,
                FaultPlan::new().with(FaultSpec::crash("worker", 2)),
            );
            let (lost, served) = drive(&mut sup, 40);
            assert!(lost >= 1 && served > 0, "lost={lost} served={served}");
            // The respawn re-resolved: v2 is running and is the new
            // baseline (the old image would have failed the measurement
            // check instead).
            let new_baseline = sup.baseline_measurement("worker").unwrap();
            assert_ne!(new_baseline, old_baseline);
            assert_eq!(new_baseline, measurement_of(b"worker v2"));
            assert_eq!(sup.assembly().measurement("worker").unwrap(), new_baseline);
        }

        #[test]
        fn uncertified_image_refused_at_construction() {
            let stranger = SigningKey::from_seed(b"stranger");
            let mut reg = registry();
            reg.publish(
                b"rogue",
                ManifestDraft::new("rogue", b"rogue").sign(&stranger, None),
            )
            .unwrap();
            let app = AppManifest::new("rogue-app", vec![ComponentManifest::new("rogue")]);
            let err = Supervisor::new_admitted(app, pool(), factory(), reg).unwrap_err();
            assert!(matches!(err, CoreError::AdmissionRefused { .. }), "{err}");
        }
    }

    mod migration {
        use super::*;

        fn wired_app() -> AppManifest {
            AppManifest::new(
                "migratable",
                vec![
                    ComponentManifest::new("caller").channel("ask", "worker", 9),
                    ComponentManifest::new("worker"),
                ],
            )
        }

        fn two_pool() -> Vec<Box<dyn Substrate>> {
            vec![
                Box::new(SoftwareSubstrate::new("pool-a")),
                Box::new(SoftwareSubstrate::new("pool-b")),
            ]
        }

        #[test]
        fn manual_migration_preserves_state_channels_and_baseline() {
            let mut sup = Supervisor::new(wired_app(), two_pool(), factory()).unwrap();
            assert_eq!(sup.assembly().placement("worker").unwrap().substrate, 0);
            let baseline = sup.baseline_measurement("worker").unwrap();
            // Seal state on the source and escrow it.
            let p = sup.assembly().placement("worker").unwrap();
            let blob = sup
                .assembly_mut()
                .substrate_mut(p.substrate)
                .seal(p.domain, b"worker state")
                .unwrap();
            sup.register_sealed("worker", blob);

            sup.migrate_component("worker", 1).unwrap();

            assert_eq!(sup.assembly().placement("worker").unwrap().substrate, 1);
            assert_eq!(sup.migrations("worker"), 1);
            assert_eq!(sup.baseline_measurement("worker").unwrap(), baseline);
            assert_eq!(sup.assembly().measurement("worker").unwrap(), baseline);
            // The escrow was re-sealed: the target incarnation opens it
            // byte-identically.
            let q = sup.assembly().placement("worker").unwrap();
            let resealed = sup.sealed_blobs("worker")[0].clone();
            assert_eq!(
                sup.assembly_mut()
                    .substrate_mut(q.substrate)
                    .unseal(q.domain, &resealed)
                    .unwrap(),
                b"worker state"
            );
            // Declared channels were re-granted — and only declared ones.
            assert_eq!(
                sup.assembly_mut()
                    .call_channel("caller", "ask", b"hi")
                    .unwrap(),
                b"hi"
            );
            assert!(sup
                .assembly_mut()
                .call_channel("worker", "ask", b"x")
                .is_err());
            assert_eq!(sup.call("worker", b"direct").unwrap(), b"direct");
            // Metrics landed on the target substrate.
            let migrations = sup
                .assembly_mut()
                .substrate_mut(1)
                .telemetry_mut()
                .metrics_mut()
                .counter("placement.migrations");
            assert_eq!(migrations, 1);
        }

        #[test]
        fn migration_to_current_placement_is_a_noop() {
            let mut sup = Supervisor::new(wired_app(), two_pool(), factory()).unwrap();
            sup.migrate_component("worker", 0).unwrap();
            assert_eq!(sup.migrations("worker"), 0);
            assert!(matches!(
                sup.migrate_component("worker", 7),
                Err(CoreError::NotFound(_))
            ));
        }

        #[test]
        fn optimize_over_balanced_pool_stays_put() {
            // Two identical software substrates price every candidate
            // equally: the plan must prefer the current placement over
            // churn, and apply_plan must be a no-op.
            let mut sup = Supervisor::new(wired_app(), two_pool(), factory()).unwrap();
            for _ in 0..8 {
                sup.assembly_mut()
                    .call_channel("caller", "ask", b"payload")
                    .unwrap();
            }
            let plan = sup.optimize().unwrap();
            assert_eq!(plan.move_count(), 0);
            assert!(plan.decision("worker").unwrap().calls >= 8);
            assert_eq!(sup.apply_plan(&plan).unwrap(), 0);
            let plans = sup
                .assembly_mut()
                .substrate_mut(0)
                .telemetry_mut()
                .metrics_mut()
                .counter("placement.plans");
            assert_eq!(plans, 1);
        }
    }

    #[test]
    fn restarted_component_keeps_declared_channels_only() {
        let app = AppManifest::new(
            "wired",
            vec![
                ComponentManifest::new("caller").channel("ask", "worker", 9),
                ComponentManifest::new("worker").restartable(3, 10),
                ComponentManifest::new("sidekick"),
            ],
        );
        let mut sup = Supervisor::new(app, pool(), factory()).unwrap();
        assert_eq!(
            sup.assembly_mut()
                .call_channel("caller", "ask", b"hi")
                .unwrap(),
            b"hi"
        );
        install(
            &mut sup,
            FaultPlan::new().with(FaultSpec::crash("worker", 1)),
        );
        let _ = sup.call("worker", b"boom");
        // Drive the clock, then let the supervisor restart the worker.
        for _ in 0..20 {
            let _ = sup.call("sidekick", b"tick");
            let _ = sup.call("worker", b"ping");
        }
        assert_eq!(sup.health(), Health::Healthy);
        // The declared channel was re-granted onto the fresh domain.
        assert_eq!(
            sup.assembly_mut()
                .call_channel("caller", "ask", b"hi")
                .unwrap(),
            b"hi"
        );
        // And nothing undeclared appeared.
        assert!(sup
            .assembly_mut()
            .call_channel("sidekick", "ask", b"x")
            .is_err());
    }
}
