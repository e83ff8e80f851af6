//! The composer: from manifest to running, POLA-wired assembly.
//!
//! The composer is deliberately part of the TCB — it is the software
//! embodiment of the paper's "development workflow" where separation "is
//! built right into" application construction. It:
//!
//! 1. places every component on a substrate whose profile defends the
//!    component's required attacker models (preferring the candidate
//!    with the smallest TCB — the *deliberate* choice §III-A asks for,
//!    instead of "fashionability of a new hardware feature");
//! 2. establishes exactly the channels the manifest declares; nothing
//!    else can ever communicate;
//! 3. bridges channels whose endpoints landed on different substrates
//!    (the smart-meter appliance mixes a microkernel and TrustZone);
//! 4. offers the experiment harness *environment* entry points to drive
//!    components, tracked separately from declared channels.

use std::collections::BTreeMap;

use lateral_crypto::Digest;
use lateral_registry::Registry;
use lateral_substrate::attest::AttestationEvidence;
use lateral_substrate::cap::{Badge, ChannelCap};
use lateral_substrate::component::Component;
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::{DomainId, SubstrateError};

use crate::manifest::{AppManifest, ComponentManifest};
use crate::CoreError;

/// Produces component instances for the composer.
pub trait ComponentFactory {
    /// Builds the component named by `manifest`, or `None` when unknown.
    fn build(&mut self, manifest: &ComponentManifest) -> Option<Box<dyn Component>>;
}

impl<F> ComponentFactory for F
where
    F: FnMut(&ComponentManifest) -> Option<Box<dyn Component>>,
{
    fn build(&mut self, manifest: &ComponentManifest) -> Option<Box<dyn Component>> {
        self(manifest)
    }
}

/// One placed component.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// Index into the assembly's substrate pool.
    pub substrate: usize,
    /// Domain on that substrate.
    pub domain: DomainId,
}

pub(crate) enum ChannelRef {
    /// Caller and target share a substrate: the caller's own capability.
    Local { substrate: usize, cap: ChannelCap },
    /// Endpoints on different substrates: the composer relays through an
    /// environment domain on the target substrate that owns a capability
    /// with the declared badge.
    Bridged { substrate: usize, cap: ChannelCap },
}

/// A running application.
///
/// Internals are crate-visible so the [`crate::supervisor`] can drive
/// the destroy → respawn → re-grant cycle without widening the public
/// surface.
pub struct Assembly {
    pub(crate) substrates: Vec<Box<dyn Substrate>>,
    pub(crate) placements: BTreeMap<String, Placement>,
    /// Declared channels by owning component, then by label: two
    /// lookups by `&str`, so a call builds no key.
    pub(crate) channels: BTreeMap<String, BTreeMap<String, ChannelRef>>,
    pub(crate) env_domains: Vec<Option<DomainId>>,
    /// Environment capabilities by target component, then by badge.
    pub(crate) env_caps: BTreeMap<String, BTreeMap<u64, (usize, ChannelCap)>>,
    pub(crate) regrant_epoch: u64,
}

impl std::fmt::Debug for Assembly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Assembly({} components over {} substrates)",
            self.placements.len(),
            self.substrates.len()
        )
    }
}

/// Badge used for environment (harness) invocations by default.
pub const ENV_BADGE: Badge = Badge(0xE4F);

/// Composes `app` over `substrates` using `factory`.
///
/// ```
/// use lateral_core::composer::compose;
/// use lateral_core::manifest::{AppManifest, ComponentManifest};
/// use lateral_substrate::software::SoftwareSubstrate;
/// use lateral_substrate::substrate::Substrate;
/// use lateral_substrate::testkit::Echo;
///
/// # fn main() -> Result<(), lateral_core::CoreError> {
/// let app = AppManifest::new(
///     "demo",
///     vec![
///         ComponentManifest::new("ui").channel("ask", "service", 1),
///         ComponentManifest::new("service"),
///     ],
/// );
/// let pool: Vec<Box<dyn Substrate>> = vec![Box::new(SoftwareSubstrate::new("doc"))];
/// let mut factory = |_m: &ComponentManifest| {
///     Some(Box::new(Echo) as Box<dyn lateral_substrate::component::Component>)
/// };
/// let mut assembly = compose(&app, pool, &mut factory)?;
/// assert_eq!(assembly.call_channel("ui", "ask", b"ping")?, b"ping");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`CoreError::InvalidManifest`] — the manifest fails validation or
///   the factory does not know a component.
/// * [`CoreError::NoSuitableSubstrate`] — a component's required attacker
///   models are not covered by any pool member.
/// * [`CoreError::Substrate`] — spawn or grant failures.
pub fn compose(
    app: &AppManifest,
    substrates: Vec<Box<dyn Substrate>>,
    factory: &mut dyn ComponentFactory,
) -> Result<Assembly, CoreError> {
    app.validate()?;
    let mut assembly = Assembly {
        env_domains: substrates.iter().map(|_| None).collect(),
        substrates,
        placements: BTreeMap::new(),
        channels: BTreeMap::new(),
        env_caps: BTreeMap::new(),
        regrant_epoch: 0,
    };
    // One `compose` span per pool substrate: every spawn and grant the
    // phases below perform on that substrate nests under it, so the
    // whole composition is one causal tree per fabric.
    let spans: Vec<lateral_telemetry::SpanId> = assembly
        .substrates
        .iter_mut()
        .map(|sub| {
            let at = sub.now();
            sub.telemetry_mut()
                .begin_span(&format!("compose {}", app.name), "compose", at)
        })
        .collect();
    let result = compose_phases(app, &mut assembly, factory);
    let outcome = if result.is_ok() {
        lateral_telemetry::outcome::OK
    } else {
        lateral_telemetry::outcome::FAILED
    };
    for (sub, span) in assembly.substrates.iter_mut().zip(spans) {
        let at = sub.now();
        sub.telemetry_mut().end_span(span, at, outcome);
    }
    result?;
    Ok(assembly)
}

fn compose_phases(
    app: &AppManifest,
    assembly: &mut Assembly,
    factory: &mut dyn ComponentFactory,
) -> Result<(), CoreError> {
    // Phase 1: placement + spawn.
    for cm in &app.components {
        let mut candidates: Vec<(usize, u64)> = assembly
            .substrates
            .iter()
            .enumerate()
            .filter(|(_, s)| s.profile().satisfies(&cm.required_defense))
            .map(|(i, s)| (i, s.profile().tcb_loc))
            .collect();
        candidates.sort_by_key(|(_, tcb)| *tcb);
        let (idx, _) = candidates.first().copied().ok_or_else(|| {
            let required: Vec<String> = cm.required_defense.iter().map(|m| m.to_string()).collect();
            CoreError::NoSuitableSubstrate {
                component: cm.name.clone(),
                reason: format!(
                    "no pool substrate defends against [{}]",
                    required.join(", ")
                ),
            }
        })?;
        let component = factory.build(cm).ok_or_else(|| {
            CoreError::InvalidManifest(format!("factory cannot build '{}'", cm.name))
        })?;
        let spec = DomainSpec::named(&cm.name)
            .with_image(&cm.image)
            .with_mem_pages(cm.mem_pages)
            .with_loc(cm.loc);
        let domain = assembly.substrates[idx].spawn(spec, component)?;
        assembly.placements.insert(
            cm.name.clone(),
            Placement {
                substrate: idx,
                domain,
            },
        );
    }

    // Phase 2: channels (declaration order — components may rely on it
    // when enumerating their capability space).
    for cm in &app.components {
        for ch in &cm.channels {
            assembly.establish_channel(&cm.name, &ch.label, &ch.to, ch.badge)?;
        }
    }
    Ok(())
}

/// Checks one component manifest against the registry: the registry
/// must hold a certified, unrevoked image for the component's name, and
/// the manifest's image bytes must be exactly the certified bytes.
/// Returns the resolution so callers can adopt registry-served images.
///
/// # Errors
///
/// [`CoreError::AdmissionRefused`] carrying the registry's refusal.
pub(crate) fn admit_component(
    cm: &ComponentManifest,
    registry: &mut Registry,
) -> Result<lateral_registry::ResolvedImage, CoreError> {
    let resolved = registry
        .resolve(&cm.name)
        .map_err(|e| CoreError::AdmissionRefused {
            component: cm.name.clone(),
            reason: e.to_string(),
        })?;
    if resolved.image != cm.image {
        return Err(CoreError::AdmissionRefused {
            component: cm.name.clone(),
            reason: format!(
                "manifest image measures {} but the certified image is {}",
                lateral_registry::measurement_of(&cm.image).short_hex(),
                resolved.digest.short_hex()
            ),
        });
    }
    Ok(resolved)
}

/// Composes `app` under **admission control**: every component image is
/// resolved through `registry` first, and composition refuses to start
/// any component whose image is uncertified, revoked, or different from
/// the certified bytes. This is the paper's trusted-distribution story:
/// the composer spawns only what the certification pipeline let through.
///
/// When the manifest declares a `wot-threshold`, it is installed as the
/// registry's per-assembly web-of-trust threshold before any component
/// is resolved, so the certification pipeline's `wot-threshold` pass
/// judges every image against *this* assembly's bar.
///
/// # Errors
///
/// [`CoreError::AdmissionRefused`] on any registry refusal, plus
/// everything [`compose`] can return.
pub fn compose_admitted(
    app: &AppManifest,
    substrates: Vec<Box<dyn Substrate>>,
    factory: &mut dyn ComponentFactory,
    registry: &mut Registry,
) -> Result<Assembly, CoreError> {
    app.validate()?;
    registry.set_wot_threshold(app.wot_threshold);
    for cm in &app.components {
        admit_component(cm, registry)?;
    }
    compose(app, substrates, factory)
}

/// Liveness of an assembly, as reported by
/// [`crate::supervisor::Supervisor::health`] from its own per-component
/// states.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Health {
    /// Every placed component is alive.
    Healthy,
    /// The named components are down (crashed and not yet restarted, or
    /// quarantined); the rest of the assembly keeps serving.
    Degraded(Vec<String>),
    /// Every component is down (or the supervisor escalated a crash).
    Failed,
}

impl Assembly {
    fn env_domain(&mut self, substrate: usize) -> Result<DomainId, SubstrateError> {
        if let Some(d) = self.env_domains[substrate] {
            return Ok(d);
        }
        let d = self.substrates[substrate].spawn(
            DomainSpec::named("__env__").with_mem_pages(1),
            Box::new(lateral_substrate::testkit::Echo),
        )?;
        self.env_domains[substrate] = Some(d);
        Ok(d)
    }

    /// The placement of a component.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`].
    pub fn placement(&self, name: &str) -> Result<Placement, CoreError> {
        self.placements
            .get(name)
            .copied()
            .ok_or_else(|| CoreError::NotFound(format!("component '{name}'")))
    }

    /// The name of the substrate a component landed on.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`].
    pub fn substrate_of(&self, name: &str) -> Result<String, CoreError> {
        let p = self.placement(name)?;
        Ok(self.substrates[p.substrate].profile().name.clone())
    }

    /// Mutable access to a pool substrate (attack injection in
    /// experiments).
    pub fn substrate_mut(&mut self, index: usize) -> &mut dyn Substrate {
        self.substrates[index].as_mut()
    }

    /// Number of substrates in the pool.
    pub fn substrate_count(&self) -> usize {
        self.substrates.len()
    }

    /// Invokes a *declared* channel on behalf of its owning component.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown channels, otherwise the
    /// substrate invocation errors.
    pub fn call_channel(
        &mut self,
        from: &str,
        label: &str,
        data: &[u8],
    ) -> Result<Vec<u8>, CoreError> {
        let (sub, caller, cap) = self.channel_route(from, label)?;
        Ok(self.substrates[sub].invoke(caller, &cap, data)?)
    }

    /// Invokes a declared channel once per payload through the
    /// substrate's batched path: one capability validation, one backend
    /// gate, one telemetry span for the whole batch (see
    /// [`Substrate::invoke_batch`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown channels; otherwise the first
    /// failing payload's substrate error (later payloads unattempted).
    pub fn call_channel_batch(
        &mut self,
        from: &str,
        label: &str,
        payloads: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, CoreError> {
        let (sub, caller, cap) = self.channel_route(from, label)?;
        Ok(self.substrates[sub].invoke_batch(caller, &cap, payloads)?)
    }

    /// The pool substrate, calling domain and capability behind the
    /// declared channel `from`.`label`: the owner's own capability, or
    /// the bridging environment domain's.
    fn channel_route(
        &self,
        from: &str,
        label: &str,
    ) -> Result<(usize, DomainId, ChannelCap), CoreError> {
        let chref = self
            .channels
            .get(from)
            .and_then(|labels| labels.get(label))
            .ok_or_else(|| CoreError::NotFound(format!("channel '{from}'.'{label}'")))?;
        Ok(match *chref {
            ChannelRef::Local { substrate, cap } => (substrate, self.placements[from].domain, cap),
            ChannelRef::Bridged { substrate, cap } => (
                substrate,
                self.env_domains[substrate].expect("bridge env exists"),
                cap,
            ),
        })
    }

    /// Environment invocation of a component with [`ENV_BADGE`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown components, otherwise
    /// substrate errors.
    pub fn call_component(&mut self, name: &str, data: &[u8]) -> Result<Vec<u8>, CoreError> {
        self.call_component_badged(name, ENV_BADGE, data)
    }

    /// Environment invocation with an explicit badge (for components
    /// that demultiplex clients by badge).
    ///
    /// # Errors
    ///
    /// Same as [`Assembly::call_component`].
    pub fn call_component_badged(
        &mut self,
        name: &str,
        badge: Badge,
        data: &[u8],
    ) -> Result<Vec<u8>, CoreError> {
        let placement = self.placement(name)?;
        let granted = self
            .env_caps
            .get(name)
            .and_then(|caps| caps.get(&badge.0))
            .copied();
        let (sub, cap) = match granted {
            Some(granted) => granted,
            None => {
                let env = self.env_domain(placement.substrate)?;
                let cap = self.substrates[placement.substrate].grant_channel(
                    env,
                    placement.domain,
                    badge,
                )?;
                self.env_caps
                    .entry(name.to_string())
                    .or_default()
                    .insert(badge.0, (placement.substrate, cap));
                (placement.substrate, cap)
            }
        };
        let env = self.env_domains[sub].expect("env exists");
        Ok(self.substrates[sub].invoke(env, &cap, data)?)
    }

    /// How many times the supervisor has re-granted channels after a
    /// restart or migration — the session layer's re-grant epoch: any
    /// bump invalidates outstanding remote resumption tickets.
    pub fn regrant_epoch(&self) -> u64 {
        self.regrant_epoch
    }

    /// The measurement of a placed component.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] / substrate errors.
    pub fn measurement(&self, name: &str) -> Result<Digest, CoreError> {
        let p = self.placement(name)?;
        Ok(self.substrates[p.substrate].measurement(p.domain)?)
    }

    /// Attestation evidence for a placed component.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] / substrate errors (including
    /// `Unsupported` when the substrate cannot attest).
    pub fn attest(
        &mut self,
        name: &str,
        report_data: &[u8],
    ) -> Result<AttestationEvidence, CoreError> {
        let p = self.placement(name)?;
        Ok(self.substrates[p.substrate].attest(p.domain, report_data)?)
    }

    /// Component names in placement order.
    pub fn component_names(&self) -> Vec<String> {
        self.placements.keys().cloned().collect()
    }

    /// The merged crossing profile of the whole pool: every substrate's
    /// retained trace folded edge-wise into one
    /// [`lateral_telemetry::profile::CrossingProfile`]. This is the
    /// observation input to [`crate::placement::plan_placement`].
    #[must_use]
    pub fn crossing_profile(&self) -> lateral_telemetry::profile::CrossingProfile {
        let mut merged = lateral_telemetry::profile::CrossingProfile::new();
        for sub in &self.substrates {
            merged.absorb(&sub.crossing_profile());
        }
        merged
    }

    /// Every pool substrate's profile and cost model, in pool order —
    /// the candidate set the placement optimizer scores against.
    #[must_use]
    pub fn pool_profiles_and_models(
        &self,
    ) -> Vec<(
        lateral_substrate::attacker::SubstrateProfile,
        lateral_substrate::fabric::CrossingCostModel,
    )> {
        self.substrates
            .iter()
            .map(|s| (s.profile().clone(), s.cost_model()))
            .collect()
    }

    /// Grants (or re-grants, overwriting the channel-map entry) the
    /// declared channel `from_name.label → to_name`. Both endpoints must
    /// be placed.
    pub(crate) fn establish_channel(
        &mut self,
        from_name: &str,
        label: &str,
        to_name: &str,
        badge: u64,
    ) -> Result<(), CoreError> {
        let from = self.placement(from_name)?;
        let to = self.placement(to_name)?;
        let chref = if from.substrate == to.substrate {
            let cap = self.substrates[from.substrate].grant_channel(
                from.domain,
                to.domain,
                Badge(badge),
            )?;
            ChannelRef::Local {
                substrate: from.substrate,
                cap,
            }
        } else {
            let env = self.env_domain(to.substrate)?;
            let cap = self.substrates[to.substrate].grant_channel(env, to.domain, Badge(badge))?;
            ChannelRef::Bridged {
                substrate: to.substrate,
                cap,
            }
        };
        self.channels
            .entry(from_name.to_string())
            .or_default()
            .insert(label.to_string(), chref);
        Ok(())
    }

    /// Destroys a component's (possibly crashed) domain and spawns a
    /// fresh successor from the manifest on the *same* substrate. The
    /// destroyed domain's capabilities are already dead by fabric
    /// semantics; the channel-map and env-cap entries involving the
    /// component are dropped so the supervisor re-grants from a clean
    /// slate. On spawn failure the component stays placed at its dead
    /// domain id (every call fails until a later restart succeeds).
    pub(crate) fn respawn(
        &mut self,
        cm: &ComponentManifest,
        component: Box<dyn Component>,
    ) -> Result<(), CoreError> {
        let p = self.placement(&cm.name)?;
        // The old domain may already be gone if a previous restart
        // attempt failed after the destroy.
        let _ = self.substrates[p.substrate].destroy(p.domain);
        self.channels.remove(&cm.name);
        self.env_caps.remove(&cm.name);
        let spec = DomainSpec::named(&cm.name)
            .with_image(&cm.image)
            .with_mem_pages(cm.mem_pages)
            .with_loc(cm.loc);
        let domain = self.substrates[p.substrate].spawn(spec, component)?;
        self.placements.insert(
            cm.name.clone(),
            Placement {
                substrate: p.substrate,
                domain,
            },
        );
        Ok(())
    }

    /// Live-migrates a component: destroys its current domain (stale
    /// capabilities die with it, exactly as in a respawn) and spawns a
    /// fresh successor from the manifest on the `target` pool substrate.
    /// Channel-map and env-cap entries involving the component are
    /// dropped so the caller re-grants from a clean slate; sealed-state
    /// escrow is the caller's job (sealing keys never cross substrates).
    pub(crate) fn migrate(
        &mut self,
        cm: &ComponentManifest,
        component: Box<dyn Component>,
        target: usize,
    ) -> Result<(), CoreError> {
        if target >= self.substrates.len() {
            return Err(CoreError::NotFound(format!(
                "pool substrate index {target}"
            )));
        }
        let p = self.placement(&cm.name)?;
        let _ = self.substrates[p.substrate].destroy(p.domain);
        self.channels.remove(&cm.name);
        self.env_caps.remove(&cm.name);
        let spec = DomainSpec::named(&cm.name)
            .with_image(&cm.image)
            .with_mem_pages(cm.mem_pages)
            .with_loc(cm.loc);
        let domain = self.substrates[target].spawn(spec, component)?;
        self.placements.insert(
            cm.name.clone(),
            Placement {
                substrate: target,
                domain,
            },
        );
        Ok(())
    }

    /// Re-establishes every manifest-declared channel from or to `name`
    /// (exactly the declared set — the POLA guarantee survives the
    /// restart). Channels whose other endpoint is itself down are
    /// skipped; that endpoint's own restart re-grants them.
    pub(crate) fn regrant(&mut self, app: &AppManifest, name: &str) -> Result<(), CoreError> {
        // Every re-grant bumps the epoch: outstanding remote resumption
        // tickets were minted against the old channel topology and must
        // force a fresh attestation handshake.
        self.regrant_epoch += 1;
        for cm in &app.components {
            for ch in &cm.channels {
                if cm.name != name && ch.to != name {
                    continue;
                }
                let endpoints_alive = [&cm.name, &ch.to].iter().all(|n| {
                    self.placements
                        .get(n.as_str())
                        .is_some_and(|p| self.substrates[p.substrate].measurement(p.domain).is_ok())
                });
                if !endpoints_alive {
                    continue;
                }
                self.establish_channel(&cm.name, &ch.label, &ch.to, ch.badge)?;
            }
        }
        Ok(())
    }

    /// Tears down a component: its domain is destroyed (memory scrubbed,
    /// inbound capabilities revoked by the substrate) and every declared
    /// channel from or to it stops existing.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown components; substrate errors
    /// from the destroy itself.
    pub fn destroy_component(&mut self, name: &str) -> Result<(), CoreError> {
        let placement = self.placement(name)?;
        self.substrates[placement.substrate].destroy(placement.domain)?;
        self.placements.remove(name);
        self.channels.remove(name);
        self.env_caps.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ComponentManifest;
    use lateral_substrate::attacker::AttackerModel;
    use lateral_substrate::software::SoftwareSubstrate;
    use lateral_substrate::testkit::{BadgeReporter, Counter, Echo};

    fn echo_factory(cm: &ComponentManifest) -> Option<Box<dyn Component>> {
        match cm.name.as_str() {
            "badge-reporter" => Some(Box::new(BadgeReporter)),
            "counter" => Some(Box::new(Counter::default())),
            _ => Some(Box::new(Echo)),
        }
    }

    fn pool() -> Vec<Box<dyn Substrate>> {
        vec![Box::new(SoftwareSubstrate::new("pool-0"))]
    }

    #[test]
    fn composes_and_calls_declared_channels() {
        let app = AppManifest::new(
            "demo",
            vec![
                ComponentManifest::new("ui").channel("count", "counter", 5),
                ComponentManifest::new("counter"),
            ],
        );
        let mut asm = compose(&app, pool(), &mut echo_factory).unwrap();
        let r = asm.call_channel("ui", "count", b"").unwrap();
        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 1);
    }

    #[test]
    fn batched_channel_call_returns_in_order_replies() {
        let app = AppManifest::new(
            "demo",
            vec![
                ComponentManifest::new("ui").channel("count", "counter", 5),
                ComponentManifest::new("counter"),
            ],
        );
        let mut asm = compose(&app, pool(), &mut echo_factory).unwrap();
        let replies = asm
            .call_channel_batch("ui", "count", &[b"", b"", b""])
            .unwrap();
        let counts: Vec<u64> = replies
            .into_iter()
            .map(|r| u64::from_le_bytes(r.try_into().unwrap()))
            .collect();
        assert_eq!(counts, vec![1, 2, 3]);
        assert!(matches!(
            asm.call_channel_batch("ui", "missing", &[b"x"]),
            Err(CoreError::NotFound(_))
        ));
    }

    #[test]
    fn undeclared_channel_does_not_exist() {
        let app = AppManifest::new(
            "demo",
            vec![
                ComponentManifest::new("ui"),
                ComponentManifest::new("counter"),
            ],
        );
        let mut asm = compose(&app, pool(), &mut echo_factory).unwrap();
        assert!(matches!(
            asm.call_channel("ui", "count", b""),
            Err(CoreError::NotFound(_))
        ));
    }

    #[test]
    fn declared_badges_are_delivered() {
        let app = AppManifest::new(
            "demo",
            vec![
                ComponentManifest::new("client").channel("ask", "badge-reporter", 0xBEEF),
                ComponentManifest::new("badge-reporter"),
            ],
        );
        let mut asm = compose(&app, pool(), &mut echo_factory).unwrap();
        let r = asm.call_channel("client", "ask", b"").unwrap();
        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 0xBEEF);
    }

    #[test]
    fn unplaceable_component_is_reported() {
        let app = AppManifest::new(
            "demo",
            vec![ComponentManifest::new("hsm").requires(&[AttackerModel::PhysicalBus])],
        );
        // The software substrate defends only remote-software.
        let err = compose(&app, pool(), &mut echo_factory).unwrap_err();
        assert!(matches!(err, CoreError::NoSuitableSubstrate { .. }));
    }

    #[test]
    fn placement_prefers_smallest_satisfying_tcb() {
        // Two software substrates; fake a big one by constructing a pool
        // where ordering matters. Both satisfy, first has bigger TCB.
        let big: Box<dyn Substrate> = Box::new(SoftwareSubstrate::new("big"));
        let small: Box<dyn Substrate> = Box::new(SoftwareSubstrate::new("small"));
        // Identical profiles → stable: picks index 0 (same tcb). This
        // test just pins the tie-break behavior.
        let app = AppManifest::new("demo", vec![ComponentManifest::new("c")]);
        let asm = compose(&app, vec![big, small], &mut echo_factory).unwrap();
        assert_eq!(asm.placement("c").unwrap().substrate, 0);
    }

    #[test]
    fn environment_calls_work_and_are_badged() {
        let app = AppManifest::new("demo", vec![ComponentManifest::new("badge-reporter")]);
        let mut asm = compose(&app, pool(), &mut echo_factory).unwrap();
        let r = asm
            .call_component_badged("badge-reporter", Badge(42), b"")
            .unwrap();
        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 42);
    }

    #[test]
    fn unknown_factory_component_rejected() {
        struct NoneFactory;
        impl ComponentFactory for NoneFactory {
            fn build(&mut self, _: &ComponentManifest) -> Option<Box<dyn Component>> {
                None
            }
        }
        let app = AppManifest::new("demo", vec![ComponentManifest::new("mystery")]);
        assert!(matches!(
            compose(&app, pool(), &mut NoneFactory),
            Err(CoreError::InvalidManifest(_))
        ));
    }

    #[test]
    fn destroy_component_kills_channels_in_both_directions() {
        let app = AppManifest::new(
            "teardown",
            vec![
                ComponentManifest::new("ui").channel("count", "counter", 5),
                ComponentManifest::new("counter"),
            ],
        );
        let mut asm = compose(&app, pool(), &mut echo_factory).unwrap();
        asm.call_channel("ui", "count", b"").unwrap();
        asm.call_component("counter", b"").unwrap();
        asm.destroy_component("counter").unwrap();
        // Name gone, channel gone, env path gone.
        assert!(asm.placement("counter").is_err());
        assert!(asm.call_channel("ui", "count", b"").is_err());
        assert!(asm.call_component("counter", b"").is_err());
        // The survivor keeps working.
        assert_eq!(
            asm.call_component("ui", b"still here").unwrap(),
            b"still here"
        );
    }

    mod admission {
        use super::*;
        use lateral_crypto::sign::SigningKey;
        use lateral_registry::ManifestDraft;

        fn registry_with(entries: &[(&str, &[u8])]) -> Registry {
            let root = SigningKey::from_seed(b"composer admission root");
            let mut reg = Registry::new("admission-test");
            reg.trust_root(&root.verifying_key());
            for (name, image) in entries {
                reg.publish(image, ManifestDraft::new(name, image).sign(&root, None))
                    .unwrap();
            }
            reg
        }

        #[test]
        fn certified_app_composes() {
            let mut reg = registry_with(&[("ui", b"ui v1"), ("counter", b"counter v1")]);
            let app = AppManifest::new(
                "demo",
                vec![
                    ComponentManifest::new("ui")
                        .image(b"ui v1")
                        .channel("count", "counter", 5),
                    ComponentManifest::new("counter").image(b"counter v1"),
                ],
            );
            let mut asm = compose_admitted(&app, pool(), &mut echo_factory, &mut reg).unwrap();
            let r = asm.call_channel("ui", "count", b"").unwrap();
            assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 1);
            assert!(reg.stats().resolves >= 2);
        }

        #[test]
        fn unregistered_component_refused() {
            let mut reg = registry_with(&[("ui", b"ui v1")]);
            let app = AppManifest::new(
                "demo",
                vec![
                    ComponentManifest::new("ui").image(b"ui v1"),
                    ComponentManifest::new("counter").image(b"counter v1"),
                ],
            );
            let err = compose_admitted(&app, pool(), &mut echo_factory, &mut reg).unwrap_err();
            assert!(
                matches!(err, CoreError::AdmissionRefused { ref component, .. } if component == "counter"),
                "{err}"
            );
        }

        #[test]
        fn revoked_component_refused() {
            let mut reg = registry_with(&[("ui", b"ui v1")]);
            let digest = lateral_registry::measurement_of(b"ui v1");
            reg.revoke(digest, "compromised build host").unwrap();
            let app = AppManifest::new("demo", vec![ComponentManifest::new("ui").image(b"ui v1")]);
            let err = compose_admitted(&app, pool(), &mut echo_factory, &mut reg).unwrap_err();
            match err {
                CoreError::AdmissionRefused { component, reason } => {
                    assert_eq!(component, "ui");
                    assert!(reason.contains("revoked"), "{reason}");
                }
                other => panic!("expected refusal, got {other}"),
            }
        }

        #[test]
        fn manifest_threshold_installs_into_the_registry() {
            use lateral_wot::{Proof, Rating, ReviewProof, TrustGraph};
            let mut reg = registry_with(&[("ui", b"ui v1")]);
            let reviewer = SigningKey::from_seed(b"assembly reviewer");
            let mut graph = TrustGraph::new();
            graph.seed_root(&reviewer.verifying_key().to_bytes());
            reg.attach_wot(graph, 0);
            let digest = lateral_registry::measurement_of(b"ui v1");
            let review = ReviewProof::issue(&reviewer, digest, Rating::Trust, 1);
            reg.ingest_proof(&Proof::Review(review)).unwrap();
            // `trust` from the lone root scores ~1.0 (~1000 milli): it
            // clears a 500-milli assembly bar but not a 1500-milli one.
            let app = |milli| {
                AppManifest::new("demo", vec![ComponentManifest::new("ui").image(b"ui v1")])
                    .with_wot_threshold(milli)
            };
            let err =
                compose_admitted(&app(1500), pool(), &mut echo_factory, &mut reg).unwrap_err();
            assert!(matches!(err, CoreError::AdmissionRefused { .. }), "{err}");
            assert_eq!(reg.wot_threshold_milli(), 1500);
            compose_admitted(&app(500), pool(), &mut echo_factory, &mut reg).unwrap();
            assert_eq!(reg.wot_threshold_milli(), 500);
        }

        #[test]
        fn digest_mismatched_image_refused() {
            let mut reg = registry_with(&[("ui", b"ui v1")]);
            // The app manifest conjures different bytes than certified.
            let app = AppManifest::new(
                "demo",
                vec![ComponentManifest::new("ui").image(b"ui v1 (tampered)")],
            );
            let err = compose_admitted(&app, pool(), &mut echo_factory, &mut reg).unwrap_err();
            match err {
                CoreError::AdmissionRefused { reason, .. } => {
                    assert!(reason.contains("certified image"), "{reason}");
                }
                other => panic!("expected refusal, got {other}"),
            }
        }
    }

    #[test]
    fn cross_substrate_channels_are_bridged() {
        let app = AppManifest::new(
            "demo",
            vec![
                // Force them apart: second requires an attacker model
                // only the second substrate has... with two identical
                // software substrates we cannot force placement, so use
                // the pool order tie-break plus a custom-requirement
                // trick is unavailable; instead verify bridging by
                // placing on one pool of two and checking the call path
                // still works when we *manually* compose a bridged
                // channel via distinct pools in the integration tests.
                ComponentManifest::new("a").channel("go", "b", 9),
                ComponentManifest::new("b"),
            ],
        );
        let mut asm = compose(&app, pool(), &mut echo_factory).unwrap();
        assert_eq!(asm.call_channel("a", "go", b"x").unwrap(), b"x");
    }
}
