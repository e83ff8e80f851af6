//! Application manifests: declared components, assets, and channels.
//!
//! A manifest is the paper's "map of communication relationships": the
//! composer establishes exactly the declared channels, and the analysis
//! tools reason about trust and information flow over the same map.

use std::collections::{BTreeMap, BTreeSet};

use lateral_substrate::attacker::AttackerModel;

use crate::CoreError;

/// How sensitive an asset is (used in reports; any compromise of a
/// `Secret` asset counts as a security failure).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Sensitivity {
    /// Public data; disclosure is harmless.
    Public,
    /// Personal data; disclosure is a privacy incident.
    Personal,
    /// Credentials / key material; disclosure is a security failure.
    Secret,
}

/// A named asset held inside one component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Asset {
    /// Asset name (unique within the app).
    pub name: String,
    /// Sensitivity class.
    pub sensitivity: Sensitivity,
}

/// A declared communication channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelDecl {
    /// Label the owning component uses to refer to the channel.
    pub label: String,
    /// Name of the target component.
    pub to: String,
    /// Badge delivered to the target (client identity).
    pub badge: u64,
}

/// Whether a component is trusted or legacy (assumed compromised).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrustClass {
    /// Designed per POLA / small enough to audit — trusted.
    Trusted,
    /// Monolithic legacy code — assumed compromised (§II-A).
    Legacy,
}

/// What the supervisor does when a component's domain fail-stops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RestartPolicy {
    /// Crash once, stay down: the component is quarantined immediately
    /// (the default — supervision is opt-in per component).
    Never,
    /// Destroy, respawn from the image, re-attest, and re-grant — up to
    /// `max_restarts` times, with a doubling logical-clock backoff.
    Restart {
        /// Restart budget over the component's lifetime; exceeding it
        /// quarantines the component.
        max_restarts: u32,
        /// Logical-clock ticks before the first restart attempt; doubles
        /// per consecutive restart (capped at 64× the base).
        backoff_base: u64,
    },
    /// A crash of this component fails the whole assembly (it is load-
    /// bearing beyond repair — e.g. the root of trust).
    Escalate,
}

impl RestartPolicy {
    /// The backoff before restart attempt `n` (0-based): doubling from
    /// the base, capped at 64× base. Zero for policies without restarts.
    pub fn backoff(&self, n: u32) -> u64 {
        match self {
            RestartPolicy::Restart { backoff_base, .. } => {
                backoff_base.saturating_mul(1u64 << n.min(6))
            }
            _ => 0,
        }
    }
}

/// One component in the application.
#[derive(Clone, Debug)]
pub struct ComponentManifest {
    /// Unique component name.
    pub name: String,
    /// Code image (its digest is the attestable measurement).
    pub image: Vec<u8>,
    /// Implementation size in lines of code (TCB accounting).
    pub loc: u64,
    /// Private memory in pages.
    pub mem_pages: usize,
    /// Trusted or legacy.
    pub trust: TrustClass,
    /// The weakest attacker this component must still withstand.
    pub required_defense: BTreeSet<AttackerModel>,
    /// Assets held inside the component.
    pub assets: Vec<Asset>,
    /// Channels this component may use (POLA: nothing else exists).
    pub channels: Vec<ChannelDecl>,
    /// What the supervisor does when this component crashes.
    pub restart: RestartPolicy,
}

impl ComponentManifest {
    /// Starts a builder-flavored manifest with defaults (trusted, 1000
    /// LoC, 4 pages, image = name, defends remote-software).
    pub fn new(name: &str) -> ComponentManifest {
        ComponentManifest {
            name: name.to_string(),
            image: name.as_bytes().to_vec(),
            loc: 1_000,
            mem_pages: 4,
            trust: TrustClass::Trusted,
            required_defense: [AttackerModel::RemoteSoftware].into_iter().collect(),
            assets: Vec::new(),
            channels: Vec::new(),
            restart: RestartPolicy::Never,
        }
    }

    /// Sets the code image.
    #[must_use]
    pub fn image(mut self, image: &[u8]) -> ComponentManifest {
        self.image = image.to_vec();
        self
    }

    /// Sets the line count.
    #[must_use]
    pub fn loc(mut self, loc: u64) -> ComponentManifest {
        self.loc = loc;
        self
    }

    /// Marks the component legacy (assumed compromised).
    #[must_use]
    pub fn legacy(mut self) -> ComponentManifest {
        self.trust = TrustClass::Legacy;
        self
    }

    /// Requires defense against the given attacker models.
    #[must_use]
    pub fn requires(mut self, models: &[AttackerModel]) -> ComponentManifest {
        self.required_defense = models.iter().copied().collect();
        self
    }

    /// Declares an asset.
    #[must_use]
    pub fn asset(mut self, name: &str, sensitivity: Sensitivity) -> ComponentManifest {
        self.assets.push(Asset {
            name: name.to_string(),
            sensitivity,
        });
        self
    }

    /// Declares a channel `label → to` with `badge`.
    #[must_use]
    pub fn channel(mut self, label: &str, to: &str, badge: u64) -> ComponentManifest {
        self.channels.push(ChannelDecl {
            label: label.to_string(),
            to: to.to_string(),
            badge,
        });
        self
    }

    /// Sets the restart policy.
    #[must_use]
    pub fn restart(mut self, policy: RestartPolicy) -> ComponentManifest {
        self.restart = policy;
        self
    }

    /// Shorthand: supervised restart with the given budget and backoff.
    #[must_use]
    pub fn restartable(self, max_restarts: u32, backoff_base: u64) -> ComponentManifest {
        self.restart(RestartPolicy::Restart {
            max_restarts,
            backoff_base,
        })
    }
}

/// A whole application: a set of components and their channel graph.
#[derive(Clone, Debug)]
pub struct AppManifest {
    /// Application name.
    pub name: String,
    /// Minimum web-of-trust review score (in milli-units, `750` =
    /// 0.750) every component image must clear during certification.
    /// `None` uses the registry's default threshold.
    pub wot_threshold: Option<i64>,
    /// The components.
    pub components: Vec<ComponentManifest>,
}

impl AppManifest {
    /// Creates an application manifest from components.
    pub fn new(name: &str, components: Vec<ComponentManifest>) -> AppManifest {
        AppManifest {
            name: name.to_string(),
            wot_threshold: None,
            components,
        }
    }

    /// Sets the per-assembly web-of-trust admission threshold
    /// (milli-units; see the `wot-threshold` manifest directive).
    #[must_use]
    pub fn with_wot_threshold(mut self, milli: i64) -> AppManifest {
        self.wot_threshold = Some(milli);
        self
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&ComponentManifest> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidManifest`] for duplicate component names,
    /// channels to unknown targets, duplicate channel labels within one
    /// component, duplicate asset names across the app, or self-channels.
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut names = BTreeSet::new();
        for c in &self.components {
            if !names.insert(&c.name) {
                return Err(CoreError::InvalidManifest(format!(
                    "duplicate component name '{}'",
                    c.name
                )));
            }
        }
        let mut assets = BTreeSet::new();
        for c in &self.components {
            for a in &c.assets {
                if !assets.insert(&a.name) {
                    return Err(CoreError::InvalidManifest(format!(
                        "duplicate asset name '{}'",
                        a.name
                    )));
                }
            }
            let mut labels = BTreeSet::new();
            let mut targets = BTreeSet::new();
            for ch in &c.channels {
                if !labels.insert(&ch.label) {
                    return Err(CoreError::InvalidManifest(format!(
                        "duplicate channel label '{}' in '{}'",
                        ch.label, c.name
                    )));
                }
                if !targets.insert((&ch.to, ch.badge)) {
                    return Err(CoreError::InvalidManifest(format!(
                        "duplicate channel declaration '{}' -> '{}' badge {} in '{}'",
                        ch.label, ch.to, ch.badge, c.name
                    )));
                }
                if ch.to == c.name {
                    return Err(CoreError::InvalidManifest(format!(
                        "component '{}' declares a channel to itself",
                        c.name
                    )));
                }
                if !names.contains(&ch.to) {
                    return Err(CoreError::InvalidManifest(format!(
                        "channel '{}' in '{}' targets unknown component '{}'",
                        ch.label, c.name, ch.to
                    )));
                }
            }
        }
        Ok(())
    }

    /// The inverse channel map: for each component, who may call it
    /// (caller name, badge).
    pub fn inbound(&self) -> BTreeMap<&str, Vec<(&str, u64)>> {
        let mut map: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for c in &self.components {
            map.entry(c.name.as_str()).or_default();
            for ch in &c.channels {
                map.entry(ch.to.as_str())
                    .or_default()
                    .push((c.name.as_str(), ch.badge));
            }
        }
        map
    }

    /// Total declared lines of application code.
    pub fn total_loc(&self) -> u64 {
        self.components.iter().map(|c| c.loc).sum()
    }

    /// Total number of declared channels.
    pub fn channel_count(&self) -> usize {
        self.components.iter().map(|c| c.channels.len()).sum()
    }

    /// Parses the line-based manifest text format produced by
    /// [`AppManifest::to_text`]:
    ///
    /// ```text
    /// app demo
    /// wot-threshold 750
    /// component meter
    ///   image 6d65746572
    ///   loc 1200
    ///   pages 4
    ///   legacy
    ///   requires remote-software compromised-os
    ///   asset readings personal
    ///   channel report utility 7
    ///   restart 3 1000
    /// component utility
    ///   restart never
    /// ```
    ///
    /// `image` takes the hex-encoded code image; `restart` takes
    /// `never`, `escalate`, or `<max_restarts> <backoff_base>`;
    /// `wot-threshold` is app-level (before the first `component`) and
    /// takes the minimum review score in milli-units. Blank
    /// lines and `#` comments are ignored. The result is validated
    /// before it is returned — adversarial input either parses into a
    /// consistent manifest or fails loudly, never silently half-loads.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidManifest`] on any unknown directive, malformed
    /// number, missing context, or post-parse validation failure.
    pub fn parse(text: &str) -> Result<AppManifest, CoreError> {
        let bad = |line_no: usize, why: &str| {
            CoreError::InvalidManifest(format!("manifest line {}: {why}", line_no + 1))
        };
        let mut app: Option<AppManifest> = None;
        let mut seen_scalars: BTreeSet<String> = BTreeSet::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line has a first word");
            let rest: Vec<&str> = words.collect();
            if directive == "app" {
                if app.is_some() {
                    return Err(bad(no, "duplicate 'app' line"));
                }
                let [name] = rest.as_slice() else {
                    return Err(bad(no, "expected 'app <name>'"));
                };
                app = Some(AppManifest::new(name, Vec::new()));
                continue;
            }
            let app = app
                .as_mut()
                .ok_or_else(|| bad(no, "directive before 'app' line"))?;
            if directive == "wot-threshold" {
                if !app.components.is_empty() {
                    return Err(bad(no, "'wot-threshold' must precede all components"));
                }
                if app.wot_threshold.is_some() {
                    return Err(bad(no, "duplicate 'wot-threshold' directive"));
                }
                let [milli] = rest.as_slice() else {
                    return Err(bad(no, "expected 'wot-threshold <milli>'"));
                };
                app.wot_threshold = Some(
                    milli
                        .parse()
                        .map_err(|_| bad(no, "malformed wot-threshold"))?,
                );
                continue;
            }
            if directive == "component" {
                let [name] = rest.as_slice() else {
                    return Err(bad(no, "expected 'component <name>'"));
                };
                app.components.push(ComponentManifest::new(name));
                seen_scalars.clear();
                continue;
            }
            let cm = app
                .components
                .last_mut()
                .ok_or_else(|| bad(no, "directive before any 'component'"))?;
            // Scalar directives may appear at most once per component;
            // silently letting a later line overwrite an earlier one is
            // exactly the kind of ambiguity adversarial manifests trade
            // on ("restart never" up top, "restart 9 1" further down).
            let scalar = matches!(
                directive,
                "image" | "loc" | "pages" | "legacy" | "requires" | "restart"
            );
            if scalar && !seen_scalars.insert(directive.to_string()) {
                return Err(bad(no, &format!("duplicate '{directive}' directive")));
            }
            match (directive, rest.as_slice()) {
                ("image", [hex]) => {
                    cm.image = lateral_crypto::hex::decode(hex)
                        .ok_or_else(|| bad(no, "malformed image hex"))?;
                }
                ("loc", [n]) => {
                    cm.loc = n.parse().map_err(|_| bad(no, "malformed loc"))?;
                }
                ("pages", [n]) => {
                    cm.mem_pages = n.parse().map_err(|_| bad(no, "malformed pages"))?;
                }
                ("legacy", []) => cm.trust = TrustClass::Legacy,
                ("requires", models) if !models.is_empty() => {
                    cm.required_defense = models
                        .iter()
                        .map(|m| parse_model(m).ok_or_else(|| bad(no, "unknown attacker model")))
                        .collect::<Result<_, _>>()?;
                }
                ("asset", [name, sens]) => {
                    let sensitivity =
                        parse_sensitivity(sens).ok_or_else(|| bad(no, "unknown sensitivity"))?;
                    cm.assets.push(Asset {
                        name: (*name).to_string(),
                        sensitivity,
                    });
                }
                ("channel", [label, to, badge]) => {
                    let badge = badge.parse().map_err(|_| bad(no, "malformed badge"))?;
                    cm.channels.push(ChannelDecl {
                        label: (*label).to_string(),
                        to: (*to).to_string(),
                        badge,
                    });
                }
                ("restart", ["never"]) => cm.restart = RestartPolicy::Never,
                ("restart", ["escalate"]) => cm.restart = RestartPolicy::Escalate,
                ("restart", [max, base]) => {
                    cm.restart = RestartPolicy::Restart {
                        max_restarts: max.parse().map_err(|_| bad(no, "malformed max_restarts"))?,
                        backoff_base: base
                            .parse()
                            .map_err(|_| bad(no, "malformed backoff_base"))?,
                    };
                }
                _ => return Err(bad(no, "unknown or malformed directive")),
            }
        }
        let app = app.ok_or_else(|| CoreError::InvalidManifest("empty manifest text".into()))?;
        app.validate()?;
        Ok(app)
    }

    /// Serializes to the text format [`AppManifest::parse`] accepts.
    /// `parse(m.to_text())` reproduces `m` (the round-trip the fuzz
    /// suite pins down).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "app {}", self.name);
        if let Some(milli) = self.wot_threshold {
            let _ = writeln!(out, "wot-threshold {milli}");
        }
        for c in &self.components {
            let _ = writeln!(out, "component {}", c.name);
            let _ = writeln!(out, "  image {}", encode_hex(&c.image));
            let _ = writeln!(out, "  loc {}", c.loc);
            let _ = writeln!(out, "  pages {}", c.mem_pages);
            if c.trust == TrustClass::Legacy {
                let _ = writeln!(out, "  legacy");
            }
            let models: Vec<String> = c.required_defense.iter().map(|m| m.to_string()).collect();
            if !models.is_empty() {
                let _ = writeln!(out, "  requires {}", models.join(" "));
            }
            for a in &c.assets {
                let _ = writeln!(
                    out,
                    "  asset {} {}",
                    a.name,
                    sensitivity_name(a.sensitivity)
                );
            }
            for ch in &c.channels {
                let _ = writeln!(out, "  channel {} {} {}", ch.label, ch.to, ch.badge);
            }
            match c.restart {
                RestartPolicy::Never => {
                    let _ = writeln!(out, "  restart never");
                }
                RestartPolicy::Escalate => {
                    let _ = writeln!(out, "  restart escalate");
                }
                RestartPolicy::Restart {
                    max_restarts,
                    backoff_base,
                } => {
                    let _ = writeln!(out, "  restart {max_restarts} {backoff_base}");
                }
            }
        }
        out
    }
}

fn parse_sensitivity(s: &str) -> Option<Sensitivity> {
    match s {
        "public" => Some(Sensitivity::Public),
        "personal" => Some(Sensitivity::Personal),
        "secret" => Some(Sensitivity::Secret),
        _ => None,
    }
}

fn sensitivity_name(s: Sensitivity) -> &'static str {
    match s {
        Sensitivity::Public => "public",
        Sensitivity::Personal => "personal",
        Sensitivity::Secret => "secret",
    }
}

fn parse_model(s: &str) -> Option<AttackerModel> {
    match s {
        "remote-software" => Some(AttackerModel::RemoteSoftware),
        "compromised-os" => Some(AttackerModel::CompromisedOs),
        "malicious-device" => Some(AttackerModel::MaliciousDevice),
        "physical-bus" => Some(AttackerModel::PhysicalBus),
        "physical-boot" => Some(AttackerModel::PhysicalBoot),
        _ => None,
    }
}

fn encode_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AppManifest {
        AppManifest::new(
            "mail",
            vec![
                ComponentManifest::new("ui")
                    .channel("render", "renderer", 1)
                    .channel("store", "mail-store", 2),
                ComponentManifest::new("renderer").loc(30_000),
                ComponentManifest::new("mail-store").asset("mail-archive", Sensitivity::Personal),
            ],
        )
    }

    #[test]
    fn valid_manifest_passes() {
        sample().validate().unwrap();
        assert_eq!(sample().channel_count(), 2);
        assert_eq!(sample().total_loc(), 32_000);
    }

    #[test]
    fn duplicate_component_rejected() {
        let app = AppManifest::new(
            "x",
            vec![ComponentManifest::new("a"), ComponentManifest::new("a")],
        );
        assert!(matches!(app.validate(), Err(CoreError::InvalidManifest(_))));
    }

    #[test]
    fn unknown_target_rejected() {
        let app = AppManifest::new(
            "x",
            vec![ComponentManifest::new("a").channel("c", "ghost", 1)],
        );
        assert!(app.validate().is_err());
    }

    #[test]
    fn self_channel_rejected() {
        let app = AppManifest::new(
            "x",
            vec![ComponentManifest::new("a").channel("self", "a", 1)],
        );
        assert!(app.validate().is_err());
    }

    #[test]
    fn duplicate_label_rejected() {
        let app = AppManifest::new(
            "x",
            vec![
                ComponentManifest::new("a")
                    .channel("c", "b", 1)
                    .channel("c", "b", 2),
                ComponentManifest::new("b"),
            ],
        );
        assert!(app.validate().is_err());
    }

    #[test]
    fn duplicate_asset_rejected() {
        let app = AppManifest::new(
            "x",
            vec![
                ComponentManifest::new("a").asset("k", Sensitivity::Secret),
                ComponentManifest::new("b").asset("k", Sensitivity::Secret),
            ],
        );
        assert!(app.validate().is_err());
    }

    #[test]
    fn duplicate_channel_declaration_rejected() {
        // Same (target, badge) pair under two different labels: the
        // grants would be indistinguishable at the receiving end.
        let app = AppManifest::new(
            "x",
            vec![
                ComponentManifest::new("a")
                    .channel("c1", "b", 1)
                    .channel("c2", "b", 1),
                ComponentManifest::new("b"),
            ],
        );
        assert!(matches!(app.validate(), Err(CoreError::InvalidManifest(_))));
    }

    #[test]
    fn duplicate_scalar_directives_rejected_in_text() {
        for bad in [
            "app a\ncomponent c\nloc 1\nloc 2",
            "app a\ncomponent c\nimage 00\nimage 01",
            "app a\ncomponent c\npages 1\npages 2",
            "app a\ncomponent c\nlegacy\nlegacy",
            "app a\ncomponent c\nrequires remote-software\nrequires compromised-os",
            "app a\ncomponent c\nrestart never\nrestart 9 1",
        ] {
            assert!(AppManifest::parse(bad).is_err(), "accepted: {bad:?}");
        }
        // A fresh component resets the once-per-component tracking.
        let app = AppManifest::parse("app a\ncomponent c\nloc 1\ncomponent d\nloc 2").unwrap();
        assert_eq!(app.components.len(), 2);
    }

    #[test]
    fn text_format_round_trips() {
        let app = AppManifest::new(
            "meterapp",
            vec![
                ComponentManifest::new("meter")
                    .image(b"meter-image")
                    .loc(1_200)
                    .asset("readings", Sensitivity::Personal)
                    .channel("report", "utility", 7)
                    .restartable(3, 1_000),
                ComponentManifest::new("utility")
                    .legacy()
                    .requires(&[AttackerModel::RemoteSoftware, AttackerModel::CompromisedOs])
                    .restart(RestartPolicy::Escalate),
            ],
        );
        let text = app.to_text();
        let parsed = AppManifest::parse(&text).unwrap();
        assert_eq!(parsed.to_text(), text);
        assert_eq!(
            parsed.component("meter").unwrap().restart,
            RestartPolicy::Restart {
                max_restarts: 3,
                backoff_base: 1_000
            }
        );
        assert_eq!(parsed.component("meter").unwrap().image, b"meter-image");
        assert_eq!(
            parsed.component("utility").unwrap().restart,
            RestartPolicy::Escalate
        );
    }

    #[test]
    fn parse_rejects_malformed_text() {
        for bad in [
            "",
            "component orphan",
            "app a\nloc 3",
            "app a\ncomponent c\nloc nine",
            "app a\ncomponent c\nfrobnicate 1",
            "app a\napp b",
            "app a\ncomponent c\nrestart sometimes",
            "app a\ncomponent c\nimage zz",
            "app a\ncomponent c\nimage 6D",
            "app a\ncomponent c\nimage +d",
            "app a\ncomponent c\nchannel x c 1", // self-channel fails validate()
            "wot-threshold 750\napp a",
            "app a\nwot-threshold 750\nwot-threshold 600",
            "app a\nwot-threshold many",
            "app a\ncomponent c\nwot-threshold 750", // app-level only
        ] {
            assert!(AppManifest::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn wot_threshold_round_trips() {
        let app = AppManifest::new("x", vec![ComponentManifest::new("a")]).with_wot_threshold(750);
        let text = app.to_text();
        assert!(text.contains("wot-threshold 750"));
        let parsed = AppManifest::parse(&text).unwrap();
        assert_eq!(parsed.wot_threshold, Some(750));
        assert_eq!(parsed.to_text(), text);
        // Absent directive stays absent through the round trip.
        let plain = AppManifest::parse("app a\ncomponent c").unwrap();
        assert_eq!(plain.wot_threshold, None);
        assert!(!plain.to_text().contains("wot-threshold"));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RestartPolicy::Restart {
            max_restarts: 10,
            backoff_base: 100,
        };
        assert_eq!(p.backoff(0), 100);
        assert_eq!(p.backoff(1), 200);
        assert_eq!(p.backoff(6), 6_400);
        assert_eq!(p.backoff(60), 6_400, "capped at 64x base");
        assert_eq!(RestartPolicy::Never.backoff(3), 0);
    }

    #[test]
    fn inbound_map_inverts_channels() {
        let app = sample();
        let inbound = app.inbound();
        assert_eq!(inbound["renderer"], vec![("ui", 1)]);
        assert_eq!(inbound["mail-store"], vec![("ui", 2)]);
        assert!(inbound["ui"].is_empty());
    }
}
