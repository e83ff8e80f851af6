//! Telemetry-driven placement optimization: score where each component
//! *should* run, from where its ticks *actually* go.
//!
//! The composer's initial placement is security-first: every component
//! lands on the smallest-TCB substrate that defends its required
//! attacker models ([`crate::composer::compose`]). That deliberately
//! ignores cost — and the paper's §III-A asks for placement to be a
//! *choice*, not an accident. This module closes the loop with
//! observability:
//!
//! 1. the fabric's retained trace folds into a [`CrossingProfile`] —
//!    per-edge calls, bytes, and tick histograms;
//! 2. every backend's pricing is data — the
//!    [`CrossingCostModel`](lateral_substrate::fabric::CrossingCostModel)
//!    its fabric charges every crossing from;
//! 3. [`plan_placement`] re-prices each component's observed traffic on
//!    every pool candidate and picks the cheapest substrate **among
//!    those that still defend the component's required attacker
//!    models** — the manifest's isolation envelope is a hard
//!    constraint, never traded for ticks.
//!
//! Scoring prices each component's incident edges under a
//! **co-location assumption**: the counterpart is assumed to sit on the
//! same candidate substrate, so an edge is priced as `calls` ordinary
//! trusted-to-trusted invokes carrying the observed bytes. This makes
//! per-component scores independent (no combinatorial search) and is
//! exact whenever the whole assembly moves together — the common case
//! for the pool shapes in-tree.
//!
//! The resulting [`PlacementPlan`] is plain data with the same strict,
//! canonical text codec discipline as the manifest: all-or-nothing
//! decode, canonical integers, ordered entries, trailing garbage
//! rejected. Two digests summarize it:
//!
//! * [`PlacementPlan::digest`] — the full plan (costs included), stable
//!   across runs on the *same* pool;
//! * [`PlacementPlan::decision_digest`] — only the backend-invariant
//!   decision trace (names, observed traffic volumes, per-candidate
//!   eligibility verdicts, and that the choice is cost-minimal), which
//!   must come out identical no matter which backend generated the
//!   profile — the E17 gate.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use lateral_crypto::Digest;
use lateral_substrate::fabric::DomainKind;
use lateral_telemetry::profile::CrossingProfile;

use crate::composer::Assembly;
use crate::manifest::AppManifest;
use crate::CoreError;

/// Domain separator for [`PlacementPlan::digest`].
const PLAN_DOMAIN: &[u8] = b"lateral.core.placement-plan";

/// Domain separator for [`PlacementPlan::decision_digest`].
const DECISION_DOMAIN: &[u8] = b"lateral.core.placement-decisions";

/// Header line opening every encoded plan.
const PLAN_HEADER: &str = "placement-plan v1";

/// Errors from the plan codec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanCodecError(String);

impl fmt::Display for PlanCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed placement-plan: {}", self.0)
    }
}

impl Error for PlanCodecError {}

/// One pool substrate's score for one component.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CandidateScore {
    /// The candidate's profile name (e.g. `"trustzone"`).
    pub backend: String,
    /// Whether the candidate defends the component's required attacker
    /// models — an ineligible candidate is never chosen, no matter how
    /// cheap.
    pub eligible: bool,
    /// Predicted crossing ticks for the component's observed traffic,
    /// re-priced on this candidate's cost model (co-location
    /// assumption).
    pub cost: u64,
}

/// The optimizer's verdict for one component.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ComponentDecision {
    /// Component name.
    pub component: String,
    /// Calls observed on edges incident to the component.
    pub calls: u64,
    /// Payload bytes observed on edges incident to the component.
    pub bytes: u64,
    /// Pool index the component currently occupies.
    pub current: usize,
    /// Pool index the optimizer chose (equal to `current` for a stay).
    pub chosen: usize,
    /// Every pool candidate's score, in pool order.
    pub candidates: Vec<CandidateScore>,
}

impl ComponentDecision {
    /// Whether this decision moves the component.
    #[must_use]
    pub fn is_move(&self) -> bool {
        self.chosen != self.current
    }

    /// The predicted tick saving of applying this decision.
    #[must_use]
    pub fn saving(&self) -> u64 {
        self.candidates[self.current]
            .cost
            .saturating_sub(self.candidates[self.chosen].cost)
    }
}

/// A deterministic placement plan: one decision per placed component,
/// in component-name order. See the module docs for the codec and
/// digest contracts.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct PlacementPlan {
    decisions: Vec<ComponentDecision>,
}

impl PlacementPlan {
    /// All decisions, in component-name order.
    pub fn decisions(&self) -> impl Iterator<Item = &ComponentDecision> {
        self.decisions.iter()
    }

    /// The decisions that move their component.
    pub fn moves(&self) -> impl Iterator<Item = &ComponentDecision> {
        self.decisions.iter().filter(|d| d.is_move())
    }

    /// Number of components the plan migrates.
    #[must_use]
    pub fn move_count(&self) -> usize {
        self.moves().count()
    }

    /// Total predicted tick saving across all decisions.
    #[must_use]
    pub fn predicted_saving(&self) -> u64 {
        self.decisions.iter().map(ComponentDecision::saving).sum()
    }

    /// The decision for one component, if placed.
    #[must_use]
    pub fn decision(&self, component: &str) -> Option<&ComponentDecision> {
        self.decisions.iter().find(|d| d.component == component)
    }

    /// Canonical text form:
    ///
    /// ```text
    /// placement-plan v1
    /// component <name> calls <n> bytes <b> current <i> chosen <j>
    /// candidate <idx> <backend> eligible <0|1> cost <c>
    /// ```
    ///
    /// Components in name order, each followed by its candidates in
    /// pool order. [`PlacementPlan::parse`] accepts exactly this form.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{PLAN_HEADER}");
        for d in &self.decisions {
            let _ = writeln!(
                out,
                "component {} calls {} bytes {} current {} chosen {}",
                d.component, d.calls, d.bytes, d.current, d.chosen,
            );
            for (idx, c) in d.candidates.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "candidate {idx} {} eligible {} cost {}",
                    c.backend,
                    u64::from(c.eligible),
                    c.cost,
                );
            }
        }
        out
    }

    /// Strict decoder for [`PlacementPlan::to_text`]. All-or-nothing: a
    /// missing header, an unknown directive, a malformed or
    /// non-canonical integer, components out of name order or
    /// duplicated, candidate indexes out of sequence, a `current` or
    /// `chosen` index outside the candidate range, a component with no
    /// candidates, or any trailing garbage rejects the whole text.
    /// `parse(p.to_text())` reproduces `p` exactly.
    ///
    /// # Errors
    ///
    /// [`PlanCodecError`] on any malformation.
    pub fn parse(text: &str) -> Result<PlacementPlan, PlanCodecError> {
        let bad =
            |line_no: usize, why: &str| PlanCodecError(format!("line {}: {why}", line_no + 1));
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first == PLAN_HEADER => {}
            _ => return Err(PlanCodecError("missing header".into())),
        }
        let mut decisions: Vec<ComponentDecision> = Vec::new();
        let close = |d: &ComponentDecision| -> Result<(), PlanCodecError> {
            if d.candidates.is_empty() {
                return Err(PlanCodecError(format!(
                    "component '{}' has no candidates",
                    d.component
                )));
            }
            if d.current >= d.candidates.len() || d.chosen >= d.candidates.len() {
                return Err(PlanCodecError(format!(
                    "component '{}' indexes outside the candidate range",
                    d.component
                )));
            }
            Ok(())
        };
        for (no, line) in lines {
            let words: Vec<&str> = line.split(' ').collect();
            let int = |label_idx: usize, label: &str| -> Result<u64, PlanCodecError> {
                if words[label_idx] != label {
                    return Err(bad(no, &format!("expected '{label}'")));
                }
                parse_u64(words[label_idx + 1])
                    .ok_or_else(|| bad(no, &format!("malformed {label}")))
            };
            match words[0] {
                "component" if words.len() == 10 => {
                    if let Some(prev) = decisions.last() {
                        close(prev)?;
                    }
                    let name = words[1];
                    if name.is_empty() {
                        return Err(bad(no, "empty component name"));
                    }
                    if decisions
                        .last()
                        .is_some_and(|prev| prev.component.as_str() >= name)
                    {
                        return Err(bad(no, "components out of canonical order"));
                    }
                    let calls = int(2, "calls")?;
                    let bytes = int(4, "bytes")?;
                    let current = usize::try_from(int(6, "current")?)
                        .map_err(|_| bad(no, "current overflows"))?;
                    let chosen = usize::try_from(int(8, "chosen")?)
                        .map_err(|_| bad(no, "chosen overflows"))?;
                    decisions.push(ComponentDecision {
                        component: name.to_string(),
                        calls,
                        bytes,
                        current,
                        chosen,
                        candidates: Vec::new(),
                    });
                }
                "candidate" if words.len() == 7 => {
                    let d = decisions
                        .last_mut()
                        .ok_or_else(|| bad(no, "candidate before any component"))?;
                    let idx = parse_u64(words[1]).ok_or_else(|| bad(no, "malformed index"))?;
                    if idx != d.candidates.len() as u64 {
                        return Err(bad(no, "candidate index out of sequence"));
                    }
                    let backend = words[2];
                    if backend.is_empty() {
                        return Err(bad(no, "empty backend name"));
                    }
                    let eligible = match int(3, "eligible")? {
                        0 => false,
                        1 => true,
                        _ => return Err(bad(no, "eligible must be 0 or 1")),
                    };
                    let cost = int(5, "cost")?;
                    d.candidates.push(CandidateScore {
                        backend: backend.to_string(),
                        eligible,
                        cost,
                    });
                }
                _ => return Err(bad(no, "expected a 'component' or 'candidate' line")),
            }
        }
        if let Some(last) = decisions.last() {
            close(last)?;
        }
        Ok(PlacementPlan { decisions })
    }

    /// Canonical digest of the full plan (costs included) under a
    /// plan-specific domain separator. Identical across two runs of the
    /// same traffic on the same pool.
    #[must_use]
    pub fn digest(&self) -> Digest {
        Digest::of_parts(&[PLAN_DOMAIN, self.to_text().as_bytes()])
    }

    /// Digest of the **backend-invariant decision trace**: per
    /// component (name order) its name, observed calls and bytes, the
    /// per-candidate eligibility verdicts, and whether the chosen
    /// candidate is cost-minimal among the eligible ones. Costs,
    /// substrate indexes, and the stay/move bit are deliberately
    /// excluded — those legitimately differ between backends; what must
    /// *not* differ is which traffic was seen, which candidates the
    /// isolation envelope admits, and that the optimizer chose
    /// optimally within it.
    #[must_use]
    pub fn decision_digest(&self) -> Digest {
        let mut out = String::from("placement-decisions v1\n");
        for d in &self.decisions {
            let eligible: String = d
                .candidates
                .iter()
                .map(|c| if c.eligible { '1' } else { '0' })
                .collect();
            let optimal = d
                .candidates
                .iter()
                .filter(|c| c.eligible)
                .all(|c| c.cost >= d.candidates[d.chosen].cost);
            let _ = writeln!(
                out,
                "component {} calls {} bytes {} eligible {} optimal {}",
                d.component,
                d.calls,
                d.bytes,
                eligible,
                u64::from(optimal),
            );
        }
        Digest::of_parts(&[DECISION_DOMAIN, out.as_bytes()])
    }

    /// Fixed-width report table: one line per decision.
    #[must_use]
    pub fn render(&self) -> String {
        let width = self
            .decisions
            .iter()
            .map(|d| d.component.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for d in &self.decisions {
            let verdict = if d.is_move() {
                format!(
                    "move {} -> {}",
                    d.candidates[d.current].backend, d.candidates[d.chosen].backend
                )
            } else {
                format!("stay {}", d.candidates[d.current].backend)
            };
            let _ = writeln!(
                out,
                "{:width$}  calls {:>8}  now {:>12}  best {:>12}  {verdict}",
                d.component, d.calls, d.candidates[d.current].cost, d.candidates[d.chosen].cost,
            );
        }
        out
    }
}

/// Scores every placed component of `app` against every pool candidate
/// of `assembly`, using the observed `profile`, and returns the
/// deterministic [`PlacementPlan`].
///
/// Per component, each candidate is scored by re-pricing the
/// component's incident edges (calls and bytes, co-location assumption)
/// on the candidate's [`cost_model`](lateral_substrate::substrate::Substrate::cost_model);
/// eligibility is the candidate profile's
/// [`satisfies`](lateral_substrate::attacker::SubstrateProfile::satisfies)
/// verdict on the component's required attacker models. The cheapest
/// eligible candidate wins; on a cost tie the current placement is
/// preferred (then the lowest pool index), so a plan over balanced
/// candidates is a no-op rather than churn.
///
/// # Errors
///
/// * [`CoreError::NotFound`] — a manifest component is not placed.
/// * [`CoreError::NoSuitableSubstrate`] — no pool candidate defends a
///   component's required attacker models.
pub fn plan_placement(
    app: &AppManifest,
    assembly: &Assembly,
    profile: &CrossingProfile,
) -> Result<PlacementPlan, CoreError> {
    // (backend name, eligible-for?, model) per pool member, computed
    // once — eligibility is per component, models are per substrate.
    let models = assembly.pool_profiles_and_models();
    let mut names: Vec<&str> = app.components.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    let mut decisions = Vec::with_capacity(names.len());
    for name in names {
        let cm = app.component(name).expect("names come from app.components");
        let current = assembly.placement(name)?.substrate;
        // Incident traffic, co-location assumption: every edge touching
        // the component is priced as ordinary trusted-to-trusted
        // invokes on the candidate.
        let (mut calls, mut bytes) = (0u64, 0u64);
        for (key, stats) in profile.edges() {
            if key.from == *name || key.to == *name {
                calls += stats.calls();
                bytes += stats.bytes;
            }
        }
        let candidates: Vec<CandidateScore> = models
            .iter()
            .map(|(sub_profile, model)| CandidateScore {
                backend: sub_profile.name.clone(),
                eligible: sub_profile.satisfies(&cm.required_defense),
                cost: model.price_invokes(DomainKind::Trusted, DomainKind::Trusted, calls, bytes),
            })
            .collect();
        let chosen = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.eligible)
            .min_by_key(|(idx, c)| (c.cost, *idx != current, *idx))
            .map(|(idx, _)| idx)
            .ok_or_else(|| CoreError::NoSuitableSubstrate {
                component: name.to_string(),
                reason: "no pool candidate defends the required attacker models".into(),
            })?;
        decisions.push(ComponentDecision {
            component: name.to_string(),
            calls,
            bytes,
            current,
            chosen,
            candidates,
        });
    }
    Ok(PlacementPlan { decisions })
}

/// Strict decimal parser: rejects empty strings, leading `+`/`-`,
/// leading zeros (except "0" itself), and overflow — the canonical
/// encoder never emits any of those.
fn parse_u64(s: &str) -> Option<u64> {
    if s.is_empty() || (s.len() > 1 && s.starts_with('0')) {
        return None;
    }
    if !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// Groups incident-edge totals per component — exposed for reporting
/// (E17 prints observed traffic next to the plan's predictions).
#[must_use]
pub fn incident_traffic(profile: &CrossingProfile) -> BTreeMap<String, (u64, u64)> {
    let mut per: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (key, stats) in profile.edges() {
        for end in [&key.from, &key.to] {
            let slot = per.entry(end.clone()).or_default();
            slot.0 += stats.calls();
            slot.1 += stats.bytes;
        }
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composer::compose;
    use crate::manifest::ComponentManifest;
    use lateral_substrate::attacker::AttackerModel;
    use lateral_substrate::component::Component;
    use lateral_substrate::software::SoftwareSubstrate;
    use lateral_substrate::substrate::Substrate;
    use lateral_substrate::testkit::Echo;

    fn echo_factory(_: &ComponentManifest) -> Option<Box<dyn Component>> {
        Some(Box::new(Echo))
    }

    /// Two-substrate pool (both software) with a two-component app and
    /// some driven traffic, for plan-shape tests.
    fn plan_over_traffic() -> PlacementPlan {
        let app = AppManifest::new(
            "demo",
            vec![
                ComponentManifest::new("ui").channel("ask", "service", 1),
                ComponentManifest::new("service"),
            ],
        );
        let pool: Vec<Box<dyn Substrate>> = vec![
            Box::new(SoftwareSubstrate::new("pool-a")),
            Box::new(SoftwareSubstrate::new("pool-b")),
        ];
        let mut asm = compose(&app, pool, &mut echo_factory).unwrap();
        for _ in 0..10 {
            asm.call_channel("ui", "ask", b"0123456789abcdef").unwrap();
        }
        let profile = asm.crossing_profile();
        plan_placement(&app, &asm, &profile).unwrap()
    }

    #[test]
    fn balanced_candidates_produce_a_stay_plan() {
        let plan = plan_over_traffic();
        assert_eq!(plan.decisions().count(), 2);
        assert_eq!(plan.move_count(), 0, "identical costs must not churn");
        assert_eq!(plan.predicted_saving(), 0);
        let ui = plan.decision("ui").unwrap();
        assert_eq!(ui.calls, 10);
        assert!(ui.bytes >= 10 * 16, "payloads counted");
        assert_eq!(ui.chosen, ui.current);
        assert!(ui.candidates.iter().all(|c| c.eligible));
    }

    #[test]
    fn ineligible_candidates_are_never_chosen() {
        // "vault" requires a defense the software pool cannot provide on
        // candidate 1 — simulate by requiring a model software lacks and
        // checking the plan refuses, then that a satisfiable component
        // keeps all-eligible verdicts.
        let app = AppManifest::new(
            "demo",
            vec![ComponentManifest::new("vault").requires(&[AttackerModel::PhysicalBus])],
        );
        let pool: Vec<Box<dyn Substrate>> = vec![Box::new(SoftwareSubstrate::new("pool-a"))];
        assert!(compose(&app, pool, &mut echo_factory).is_err());
    }

    #[test]
    fn text_codec_round_trips_canonically() {
        let plan = plan_over_traffic();
        let text = plan.to_text();
        let back = PlacementPlan::parse(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_text(), text);
        assert_eq!(back.digest(), plan.digest());
        assert_eq!(back.decision_digest(), plan.decision_digest());
        // Components appear in name order.
        let service = text.find("component service").unwrap();
        let ui = text.find("component ui").unwrap();
        assert!(service < ui);
        // The empty plan round-trips too.
        let empty = PlacementPlan::default();
        assert_eq!(PlacementPlan::parse(&empty.to_text()).unwrap(), empty);
    }

    #[test]
    fn parse_rejects_malformed_text() {
        let good = plan_over_traffic().to_text();
        let reordered = {
            let mut rev = plan_over_traffic();
            rev.decisions.reverse(); // components out of canonical order
            rev.to_text()
        };
        let duplicated = {
            let mut dup = plan_over_traffic();
            dup.decisions.push(dup.decisions[0].clone());
            dup.to_text()
        };
        for bad in [
            "",
            "placement-plan v2",
            good.trim_end().rsplit_once(' ').unwrap().0, // last token cut off
            &format!("{good}trailing"),                  // trailing garbage
            &good.replace("component", "components"),
            &good.replace("eligible 1", "eligible 2"),
            &good.replace("calls 10", "calls 010"), // non-canonical integer
            &good.replace("calls 10", "calls +10"), // signed integer
            &good.replace("candidate 1", "candidate 3"), // index out of sequence
            &good.replace("chosen 0", "chosen 9"),  // outside candidate range
            &good.replacen("candidate 0", "candidate 1", 1),
            reordered.as_str(),
            duplicated.as_str(),
        ] {
            assert!(PlacementPlan::parse(bad).is_err(), "accepted: {bad:?}");
        }
        // Candidate line before any component line.
        let stray = format!("{PLAN_HEADER}\ncandidate 0 software eligible 1 cost 5\n");
        assert!(PlacementPlan::parse(&stray).is_err());
    }

    #[test]
    fn decision_digest_ignores_costs_but_full_digest_does_not() {
        let plan = plan_over_traffic();
        let mut repriced = plan.clone();
        // A backend charging different (but still optimal-at-chosen)
        // costs: scale every cost; eligibility and optimality intact.
        for d in &mut repriced.decisions {
            for c in &mut d.candidates {
                c.cost *= 100;
            }
        }
        assert_eq!(plan.decision_digest(), repriced.decision_digest());
        assert_ne!(plan.digest(), repriced.digest());
        // But a different eligibility verdict changes the decision trace.
        let mut fenced = plan.clone();
        fenced.decisions[0].candidates[1].eligible = false;
        assert_ne!(plan.decision_digest(), fenced.decision_digest());
    }

    #[test]
    fn incident_traffic_counts_both_endpoints() {
        let mut profile = CrossingProfile::new();
        profile.observe("a", "b", "ipc", 1_000, 64);
        profile.observe("a", "b", "ipc", 1_000, 64);
        let per = incident_traffic(&profile);
        assert_eq!(per["a"], (2, 128));
        assert_eq!(per["b"], (2, 128));
    }

    #[test]
    fn render_names_moves_and_stays() {
        let plan = plan_over_traffic();
        let table = plan.render();
        assert!(table.contains("stay pool-a") || table.contains("stay software"));
        assert_eq!(table, plan.render());
    }
}
