//! Deterministic fault injection for the substrate fabric.
//!
//! A [`FaultPlan`] is a declarative schedule of failures — crash on the
//! Nth invocation, fail-stop on spawn, channel-grant denial, seal
//! corruption — installed into a [`crate::fabric::Fabric`] before a run.
//! Faults select their victim by *domain name*, not id, so a plan keeps
//! applying across respawns (a supervised restart allocates a fresh
//! [`crate::DomainId`], but the successor keeps the manifest name).
//!
//! Everything is counted on the fabric's own operation stream: the
//! "Nth invocation" is the Nth capability-validated dispatch attempt at
//! the victim, independent of wall-clock or scheduling. Combined with
//! the simulator's logical clock this makes fault schedules perfectly
//! reproducible — two identical runs inject at identical trace
//! positions and produce byte-identical fault traces
//! ([`crate::fabric::Fabric::trace_bytes`]), which `scripts/check.sh`
//! enforces for the E10 recovery sweep.
//!
//! Transient vs. permanent: a *transient* fault fires exactly once (the
//! Nth matching operation) and never again — a supervised restart then
//! sticks, modelling a heisenbug or a single-event upset. A *persistent*
//! fault keeps firing on every matching operation from the Nth onward —
//! each respawned incarnation dies again, exhausting the component's
//! restart budget and driving the supervisor's quarantine path.

/// The operation class a fault intercepts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Fail-stop the victim during an invocation: the dispatch is
    /// aborted, the domain is marked crashed, and every later call into
    /// it fails with [`crate::SubstrateError::DomainCrashed`] until a
    /// supervisor destroys and respawns it.
    Crash,
    /// Abort a spawn of the victim (by name) before its component
    /// starts — models image-load and resource failures during restart.
    FailSpawn,
    /// Deny a channel grant *into* the victim — models a capability
    /// authority refusing reconnection.
    DenyGrant,
    /// Silently corrupt the output of the victim's next seal operation
    /// — the blob is returned, but unsealing it later fails its
    /// integrity check.
    CorruptSeal,
}

impl FaultKind {
    /// Stable short name (reports, traces).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::FailSpawn => "fail-spawn",
            FaultKind::DenyGrant => "deny-grant",
            FaultKind::CorruptSeal => "corrupt-seal",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault: *which* operation class, against *which* domain
/// name, firing on the *Nth* matching operation, once or persistently.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultSpec {
    /// Victim selector: the domain's diagnostic name
    /// ([`crate::substrate::DomainSpec::name`]). Name-based so the spec
    /// survives respawns, which change the id but not the name.
    pub domain: String,
    /// The operation class intercepted.
    pub kind: FaultKind,
    /// Fires on the `after`-th matching operation (1-based). `after ==
    /// 1` fires immediately on the first match.
    pub after: u64,
    /// `false`: fire exactly once (transient). `true`: fire on every
    /// matching operation from the `after`-th onward (permanent).
    pub persistent: bool,
}

impl FaultSpec {
    /// A transient crash on the `nth` invocation of `domain`.
    pub fn crash(domain: &str, nth: u64) -> FaultSpec {
        FaultSpec {
            domain: domain.to_string(),
            kind: FaultKind::Crash,
            after: nth.max(1),
            persistent: false,
        }
    }

    /// A transient fail-stop on the `nth` spawn of `domain`.
    pub fn fail_spawn(domain: &str, nth: u64) -> FaultSpec {
        FaultSpec {
            domain: domain.to_string(),
            kind: FaultKind::FailSpawn,
            after: nth.max(1),
            persistent: false,
        }
    }

    /// A transient denial of the `nth` channel grant into `domain`.
    pub fn deny_grant(domain: &str, nth: u64) -> FaultSpec {
        FaultSpec {
            domain: domain.to_string(),
            kind: FaultKind::DenyGrant,
            after: nth.max(1),
            persistent: false,
        }
    }

    /// A transient corruption of the `nth` seal performed by `domain`.
    pub fn corrupt_seal(domain: &str, nth: u64) -> FaultSpec {
        FaultSpec {
            domain: domain.to_string(),
            kind: FaultKind::CorruptSeal,
            after: nth.max(1),
            persistent: false,
        }
    }

    /// Marks the fault permanent: it fires on every matching operation
    /// from the `after`-th onward (each respawn dies again).
    #[must_use]
    pub fn permanent(mut self) -> FaultSpec {
        self.persistent = true;
        self
    }
}

/// A deterministic schedule of [`FaultSpec`]s plus the per-spec match
/// counters the fabric advances as operations stream past. Installed
/// via [`crate::fabric::Fabric::install_fault_plan`].
#[derive(Clone, Default, Debug)]
pub struct FaultPlan {
    specs: Vec<(FaultSpec, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style: adds a spec.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.push(spec);
        self
    }

    /// Adds a spec.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push((spec, 0));
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates the scheduled specs (counters not exposed).
    pub fn specs(&self) -> impl Iterator<Item = &FaultSpec> {
        self.specs.iter().map(|(s, _)| s)
    }

    /// Advances every spec matching `(domain, kind)` by one observed
    /// operation and reports whether any of them fires now. Transient
    /// specs fire exactly on their `after`-th match; persistent specs
    /// fire on every match from the `after`-th onward.
    #[inline]
    pub fn observe(&mut self, domain: &str, kind: FaultKind) -> bool {
        let mut fire = false;
        for (spec, seen) in &mut self.specs {
            if spec.kind != kind || spec.domain != domain {
                continue;
            }
            *seen += 1;
            if *seen == spec.after || (spec.persistent && *seen > spec.after) {
                fire = true;
            }
        }
        fire
    }
}

/// What a fleet-scope churn event does when its tick arrives.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChurnKind {
    /// Crash a deterministic fraction of the fleet, expressed in parts
    /// per million (10_000 ppm = 1%). Victim selection is a pure
    /// function of `(tick, member id)` — see [`ChurnEvent::selects`] —
    /// so two runs (and all backends) crash the same members.
    CrashFraction {
        /// Crash probability threshold in parts per million.
        ppm: u32,
    },
    /// Revoke a firmware image (by registry name) mid-fleet — the
    /// recall. The world layer resolves the name to a digest, revokes
    /// it in the registry, and quarantines every member running it.
    Recall {
        /// Registry name of the recalled image.
        image: String,
    },
    /// A web-of-trust distrust wave against a firmware image (by
    /// registry name): the world layer ingests distrust review proofs
    /// into the registry's trust graph, dropping the image's score
    /// below the admission threshold, and every member running it must
    /// quarantine — a recall driven by reputation, not by a publisher
    /// revocation.
    DistrustWave {
        /// Registry name of the distrusted image.
        image: String,
    },
}

/// One scheduled fleet-churn event: *what* happens at *which* logical
/// tick. Unlike [`FaultSpec`], which counts per-domain operations,
/// churn events fire on the world's logical clock and target the fleet
/// as a whole.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChurnEvent {
    /// The logical tick this event fires at.
    pub at: u64,
    /// What happens.
    pub kind: ChurnKind,
}

impl ChurnEvent {
    /// A crash event: at tick `at`, each fleet member independently
    /// crashes with probability `ppm`/1_000_000.
    pub fn crash_fraction(at: u64, ppm: u32) -> ChurnEvent {
        ChurnEvent {
            at,
            kind: ChurnKind::CrashFraction {
                ppm: ppm.min(1_000_000),
            },
        }
    }

    /// A firmware recall: at tick `at`, the image named `image` is
    /// revoked and every member running it must quarantine.
    pub fn recall(at: u64, image: &str) -> ChurnEvent {
        ChurnEvent {
            at,
            kind: ChurnKind::Recall {
                image: image.to_string(),
            },
        }
    }

    /// A distrust wave: at tick `at`, the reviewer cohort turns on the
    /// image named `image` and every member running it must quarantine.
    pub fn distrust_wave(at: u64, image: &str) -> ChurnEvent {
        ChurnEvent {
            at,
            kind: ChurnKind::DistrustWave {
                image: image.to_string(),
            },
        }
    }

    /// Deterministic victim selection for [`ChurnKind::CrashFraction`]:
    /// returns whether member `id` crashes in this event. A pure
    /// splitmix-style hash of `(at, id)` reduced mod 1_000_000 and
    /// compared against the ppm threshold — no RNG state, so selection
    /// is identical across runs, backends, and replay.
    #[must_use]
    pub fn selects(&self, id: u64) -> bool {
        let ChurnKind::CrashFraction { ppm } = &self.kind else {
            return false;
        };
        let mut x = self
            .at
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 29;
        (x % 1_000_000) < u64::from(*ppm)
    }
}

/// A deterministic fleet-churn schedule: [`ChurnEvent`]s ordered by
/// tick, fired exactly once each as the world clock passes them. The
/// fleet-scope sibling of [`FaultPlan`] — where a `FaultPlan` scripts
/// one domain's operation stream, a `ChurnPlan` scripts population-
/// level failure (mass crashes, firmware recalls) on the logical clock.
#[derive(Clone, Default, Debug)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// An empty plan (no churn).
    pub fn new() -> ChurnPlan {
        ChurnPlan::default()
    }

    /// Builder-style: adds an event, keeping the schedule tick-sorted
    /// (stable for same-tick events: insertion order).
    #[must_use]
    pub fn with(mut self, event: ChurnEvent) -> ChurnPlan {
        self.push(event);
        self
    }

    /// Adds an event, keeping the schedule tick-sorted.
    pub fn push(&mut self, event: ChurnEvent) {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
    }

    /// Number of scheduled events (fired or not).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates the scheduled events in tick order.
    pub fn events(&self) -> impl Iterator<Item = &ChurnEvent> {
        self.events.iter()
    }

    /// Events due at exactly `tick`, in schedule order. The world layer
    /// calls this once per tick; events are a pure schedule, so the
    /// plan needs no mutable fired-state.
    pub fn due(&self, tick: u64) -> impl Iterator<Item = &ChurnEvent> {
        self.events.iter().filter(move |e| e.at == tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fires_exactly_once() {
        let mut plan = FaultPlan::new().with(FaultSpec::crash("w", 3));
        assert!(!plan.observe("w", FaultKind::Crash));
        assert!(!plan.observe("w", FaultKind::Crash));
        assert!(plan.observe("w", FaultKind::Crash));
        assert!(!plan.observe("w", FaultKind::Crash));
    }

    #[test]
    fn permanent_keeps_firing() {
        let mut plan = FaultPlan::new().with(FaultSpec::crash("w", 2).permanent());
        assert!(!plan.observe("w", FaultKind::Crash));
        assert!(plan.observe("w", FaultKind::Crash));
        assert!(plan.observe("w", FaultKind::Crash));
        assert!(plan.observe("w", FaultKind::Crash));
    }

    #[test]
    fn selector_is_name_and_kind() {
        let mut plan = FaultPlan::new().with(FaultSpec::crash("w", 1));
        assert!(!plan.observe("other", FaultKind::Crash));
        assert!(!plan.observe("w", FaultKind::FailSpawn));
        assert!(plan.observe("w", FaultKind::Crash));
    }

    #[test]
    fn independent_counters_per_spec() {
        let mut plan = FaultPlan::new()
            .with(FaultSpec::crash("a", 1))
            .with(FaultSpec::fail_spawn("a", 2));
        assert!(plan.observe("a", FaultKind::Crash));
        assert!(!plan.observe("a", FaultKind::FailSpawn));
        assert!(plan.observe("a", FaultKind::FailSpawn));
    }

    #[test]
    fn churn_plan_is_tick_sorted_and_due_is_exact() {
        let plan = ChurnPlan::new()
            .with(ChurnEvent::recall(20, "fw-v2"))
            .with(ChurnEvent::crash_fraction(5, 10_000))
            .with(ChurnEvent::crash_fraction(20, 50_000));
        let ticks: Vec<u64> = plan.events().map(|e| e.at).collect();
        assert_eq!(ticks, [5, 20, 20]);
        assert_eq!(plan.due(5).count(), 1);
        // Same-tick events keep insertion order: recall first.
        let at20: Vec<&ChurnEvent> = plan.due(20).collect();
        assert_eq!(at20.len(), 2);
        assert!(matches!(at20[0].kind, ChurnKind::Recall { .. }));
        assert_eq!(plan.due(6).count(), 0);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn churn_selection_is_deterministic_and_near_rate() {
        // 1% of a 100k population: the hash-based selector must pick a
        // stable set close to the nominal rate, and two evaluations
        // must agree exactly.
        let ev = ChurnEvent::crash_fraction(42, 10_000);
        let picked: Vec<u64> = (0..100_000).filter(|&id| ev.selects(id)).collect();
        let again: Vec<u64> = (0..100_000).filter(|&id| ev.selects(id)).collect();
        assert_eq!(picked, again);
        assert!(
            (800..1200).contains(&picked.len()),
            "1% of 100k should select ~1000, got {}",
            picked.len()
        );
        // Different ticks select different victim sets.
        let other = ChurnEvent::crash_fraction(43, 10_000);
        assert_ne!(
            picked,
            (0..100_000)
                .filter(|&id| other.selects(id))
                .collect::<Vec<u64>>()
        );
        // Recalls and distrust waves never select crash victims.
        assert!(!ChurnEvent::recall(1, "fw").selects(7));
        assert!(!ChurnEvent::distrust_wave(1, "fw").selects(7));
        // ppm 0 selects nobody; ppm 1_000_000 selects everybody.
        assert!(!(0..1000).any(|id| ChurnEvent::crash_fraction(9, 0).selects(id)));
        assert!((0..1000).all(|id| ChurnEvent::crash_fraction(9, 1_000_000).selects(id)));
    }
}
