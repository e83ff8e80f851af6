//! E16 — web-of-trust certification: distributed review proofs and
//! incremental EigenTrust scoring at registry scale.
//!
//! E11 gates the registry's single-authority passes (POLA lint, TCB
//! budget, publisher chain). This experiment gates the *distributed*
//! fourth pass ([`lateral_wot`] + the registry's `wot-threshold`): many
//! mutually suspicious reviewers exchange signed review/trust proofs,
//! and a digest is admitted only while its aggregated EigenTrust-
//! weighted review score clears the assembly's threshold. Three legs:
//!
//! * **Backend sweep** (all six backends): the full wot parity case
//!   (spawn, wot-gated resolve, distrust-wave demotion, same-tick
//!   quarantine) followed by a [`SWEEP_REVIEWERS`]-reviewer cohort
//!   scoring [`SWEEP_SUBJECTS`] images through the registry. The gate:
//!   the Q32.32 score-matrix digest and the demotion split are
//!   identical on every backend and across runs — no floats anywhere,
//!   so there is nothing for a backend or host to perturb.
//! * **Incremental audit**: [`MIXED_DELTAS`] review-heavy mixed deltas
//!   (re-reviews, trust-edge changes, revocations) replayed against a
//!   converged graph in rounds; after every round the warm (drift-
//!   bounded incremental) re-convergence must be **byte-identical** to
//!   a forced cold recompute of the same state, and never iterate more
//!   than cold plus its one probe. A final review-only distrust wave
//!   re-certifies with *zero* matrix work ([`ConvergeMode::Clean`]) —
//!   the quarantine path costs no EigenTrust iterations at all.
//! * **Scale run** (software registry): ≥100k component images and ≥1M
//!   signed proofs (release; debug builds shrink the population)
//!   ingested through the registry with every signature verified. The
//!   cold fixed point must run [`ConvergeMode::Full`], a one-delta
//!   re-convergence [`ConvergeMode::Incremental`], and a review-only
//!   distrust wave [`ConvergeMode::Clean`] while it demotes the image.
//!   The proof count and both iteration counts are printed.
//!
//! The report stays on the logical clock: no leg is timed.

use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_registry::Registry;
use lateral_substrate::testkit::parity;
use lateral_wot::{ConvergeMode, Proof, Rating, ReviewProof, Revocation, TrustGraph, TrustProof};

use crate::e2_conformance::all_substrates;
use crate::table::{group, render};

/// Reviewer cohort of the per-backend certification sweep.
pub const SWEEP_REVIEWERS: usize = 60;

/// Component images scored in the per-backend sweep; every third one
/// takes a full distrust wave.
pub const SWEEP_SUBJECTS: usize = 40;

/// Reviewer web of the incremental-identity audit (debug scale).
#[cfg(debug_assertions)]
pub const AUDIT_REVIEWERS: usize = 80;
/// Reviewer web of the incremental-identity audit.
#[cfg(not(debug_assertions))]
pub const AUDIT_REVIEWERS: usize = 2_000;

/// Reviewed images in the audit graph (debug scale).
#[cfg(debug_assertions)]
pub const AUDIT_SUBJECTS: usize = 200;
/// Reviewed images in the audit graph.
#[cfg(not(debug_assertions))]
pub const AUDIT_SUBJECTS: usize = 10_000;

/// Mixed deltas replayed against the audit graph (debug scale).
#[cfg(debug_assertions)]
pub const MIXED_DELTAS: usize = 400;
/// Mixed deltas replayed against the audit graph.
#[cfg(not(debug_assertions))]
pub const MIXED_DELTAS: usize = 10_000;

/// Deltas per audit round; each round gates warm == cold (debug scale).
#[cfg(debug_assertions)]
pub const DELTAS_PER_ROUND: usize = 40;
/// Deltas per audit round; each round gates warm == cold.
#[cfg(not(debug_assertions))]
pub const DELTAS_PER_ROUND: usize = 100;

/// Reviewer population of the scale run (debug scale).
#[cfg(debug_assertions)]
pub const SCALE_REVIEWERS: usize = 240;
/// Reviewer population of the scale run.
#[cfg(not(debug_assertions))]
pub const SCALE_REVIEWERS: usize = 20_000;

/// Component images of the scale run (release: the ≥100k claim,
/// debug scale).
#[cfg(debug_assertions)]
pub const SCALE_SUBJECTS: usize = 600;
/// Component images of the scale run (the ≥100k-component claim).
#[cfg(not(debug_assertions))]
pub const SCALE_SUBJECTS: usize = 100_000;

/// Signed reviews per image in the scale run (debug scale).
#[cfg(debug_assertions)]
pub const SCALE_REVIEWS_PER_SUBJECT: usize = 7;
/// Signed reviews per image in the scale run (with the vouch tree this
/// puts the proof count past one million).
#[cfg(not(debug_assertions))]
pub const SCALE_REVIEWS_PER_SUBJECT: usize = 10;

/// One backend's certification sweep outcome.
#[derive(Clone, Debug)]
pub struct BackendWot {
    /// Backend name (substrate profile).
    pub backend: String,
    /// Reviewer nodes in the trust graph after the sweep.
    pub nodes: u64,
    /// Positive trust edges in the matrix.
    pub edges: u64,
    /// Proofs the registry ingested (every signature verified).
    pub proofs: u64,
    /// Images below the admission threshold after the distrust waves.
    pub demoted: usize,
    /// Canonical Q32.32 score-matrix digest — must match on every
    /// backend and across runs.
    pub scores_digest: String,
}

fn sweep_subject(s: usize) -> Digest {
    Digest::of(format!("e16 sweep image {s}").as_bytes())
}

/// Runs the certification sweep on the backend at `idx` in the
/// conformance pool.
fn run_backend(idx: usize) -> BackendWot {
    let mut sub = all_substrates().remove(idx);
    let backend = sub.profile().name.clone();
    let mut registry = Registry::new(&format!("e16-wot-{backend}"));
    // The full parity case first: wot-gated resolve, spawn, distrust
    // demotion — on *this* backend.
    parity::assert_wot_demotion_quarantined(sub.as_mut(), &mut registry);

    // Grow the parity world into a reviewer cohort: a seeded root, a
    // vouch web, and five reviews per image. Every third image takes a
    // full distrust wave.
    let reviewers: Vec<SigningKey> = (0..SWEEP_REVIEWERS)
        .map(|i| SigningKey::from_seed(format!("e16 sweep reviewer {i}").as_bytes()))
        .collect();
    registry
        .wot_graph_mut()
        .expect("the parity case attaches a trust graph")
        .seed_root(&reviewers[0].verifying_key().to_bytes());
    registry.set_wot_threshold(Some(1));
    let mut rng = Drbg::from_seed(b"e16 sweep");
    for i in 1..SWEEP_REVIEWERS {
        let voucher = rng.gen_range(i as u64) as usize;
        let vouch = TrustProof::issue(
            &reviewers[voucher],
            &reviewers[i].verifying_key(),
            Rating::High,
            1,
        );
        registry
            .ingest_proof(&Proof::Trust(vouch))
            .expect("vouch verifies");
    }
    for _ in 0..SWEEP_REVIEWERS {
        let a = rng.gen_range(SWEEP_REVIEWERS as u64) as usize;
        let mut b = rng.gen_range(SWEEP_REVIEWERS as u64) as usize;
        if a == b {
            b = (b + 1) % SWEEP_REVIEWERS;
        }
        let r = *rng
            .choose(&[Rating::Neutral, Rating::Trust, Rating::High])
            .expect("nonempty");
        let cross = TrustProof::issue(&reviewers[a], &reviewers[b].verifying_key(), r, 2);
        registry
            .ingest_proof(&Proof::Trust(cross))
            .expect("cross edge verifies");
    }
    for s in 0..SWEEP_SUBJECTS {
        for _ in 0..5 {
            let reviewer = &reviewers[rng.gen_range(SWEEP_REVIEWERS as u64) as usize];
            let rating = if s % 3 == 0 {
                Rating::Distrust
            } else {
                *rng.choose(&[Rating::Trust, Rating::High])
                    .expect("nonempty")
            };
            let review = ReviewProof::issue(reviewer, sweep_subject(s), rating, 3);
            registry
                .ingest_proof(&Proof::Review(review))
                .expect("review verifies");
        }
    }
    let demoted = (0..SWEEP_SUBJECTS)
        .filter(|&s| registry.wot_demoted(sweep_subject(s)))
        .count();
    assert!(
        demoted >= SWEEP_SUBJECTS.div_ceil(3),
        "{backend}: every distrust-waved image must demote ({demoted})"
    );
    assert!(
        demoted < SWEEP_SUBJECTS,
        "{backend}: endorsed images must clear the threshold"
    );
    let proofs = registry.stats().wot_proofs;
    let graph = registry.wot_graph_mut().expect("graph attached");
    let scores_digest = graph.scores_digest().short_hex();
    BackendWot {
        backend,
        nodes: graph.node_count() as u64,
        edges: graph.edge_count() as u64,
        proofs,
        demoted,
        scores_digest,
    }
}

/// Runs the certification sweep on all six backends.
#[must_use]
pub fn run() -> Vec<BackendWot> {
    (0..all_substrates().len()).map(run_backend).collect()
}

/// The incremental-identity audit outcome.
#[derive(Clone, Copy, Debug)]
pub struct DeltaAudit {
    /// Mixed deltas replayed.
    pub deltas: u64,
    /// Gate rounds (each checks warm == cold byte-identity).
    pub rounds: u64,
    /// Warm (incremental) iterations across all rounds, probes
    /// included.
    pub warm_iterations: u64,
    /// Cold (forced full) iterations across all rounds.
    pub cold_iterations: u64,
    /// Matrix rows re-normalized by warm runs — only the dirty ones.
    pub rows_rebuilt: u64,
    /// Rounds whose warm converge was matrix-clean (review-only).
    pub clean_rounds: u64,
    /// Rounds whose warm converge ran incrementally.
    pub incremental_rounds: u64,
    /// Every round's warm digest matched its forced cold recompute.
    pub identical: bool,
    /// The final review-only distrust wave re-certified in zero
    /// iterations.
    pub wave_was_free: bool,
}

fn audit_subject(s: usize) -> Digest {
    Digest::of(format!("e16 audit image {s}").as_bytes())
}

/// Replays [`MIXED_DELTAS`] review-heavy mixed deltas (re-reviews,
/// trust edges, revocations) in rounds of [`DELTAS_PER_ROUND`]; after
/// every round the warm re-convergence is checked byte-for-byte
/// against a forced cold recompute of the same state.
#[must_use]
pub fn delta_audit() -> DeltaAudit {
    let reviewers: Vec<SigningKey> = (0..AUDIT_REVIEWERS)
        .map(|i| SigningKey::from_seed(format!("e16 audit reviewer {i}").as_bytes()))
        .collect();
    let mut g = TrustGraph::new();
    g.seed_root(&reviewers[0].verifying_key().to_bytes());
    g.seed_root(&reviewers[1].verifying_key().to_bytes());
    // Binary vouch tree: every reviewer reachable from the roots.
    let mut issued: Vec<(usize, TrustProof)> = Vec::new();
    for i in 1..AUDIT_REVIEWERS {
        let voucher = (i - 1) / 2;
        let p = TrustProof::issue(
            &reviewers[voucher],
            &reviewers[i].verifying_key(),
            Rating::High,
            1,
        );
        g.ingest_trust(&p).expect("vouch verifies");
        issued.push((voucher, p));
    }
    for s in 0..AUDIT_SUBJECTS {
        for k in 0..3 {
            let r = (s + k * 97) % AUDIT_REVIEWERS;
            g.ingest_review(&ReviewProof::issue(
                &reviewers[r],
                audit_subject(s),
                Rating::Trust,
                1,
            ))
            .expect("base review verifies");
        }
    }
    // Cold baseline, so every audited round starts from a fixed point.
    g.converge();

    let rounds = MIXED_DELTAS / DELTAS_PER_ROUND;
    let mut audit = DeltaAudit {
        deltas: 0,
        rounds: rounds as u64,
        warm_iterations: 0,
        cold_iterations: 0,
        rows_rebuilt: 0,
        clean_rounds: 0,
        incremental_rounds: 0,
        identical: true,
        wave_was_free: false,
    };
    let mut rng = Drbg::from_seed(b"e16 audit deltas");
    for round in 0..rounds {
        let epoch = 10 + round as u64;
        for i in 0..DELTAS_PER_ROUND {
            if i % 50 == 49 && !issued.is_empty() {
                // Revocation: the issuer withdraws one of its proofs.
                let victim = rng.gen_range(issued.len() as u64) as usize;
                let (issuer, p) = issued.swap_remove(victim);
                g.ingest_revocation(&Revocation::issue(&reviewers[issuer], p.id(), epoch))
                    .expect("revocation verifies");
            } else if i % 12 == 11 {
                // Trust-edge change: dirties one matrix row.
                let a = rng.gen_range(AUDIT_REVIEWERS as u64) as usize;
                let mut b = rng.gen_range(AUDIT_REVIEWERS as u64) as usize;
                if a == b {
                    b = (b + 1) % AUDIT_REVIEWERS;
                }
                let r = *rng.choose(&Rating::ALL).expect("nonempty");
                let p = TrustProof::issue(&reviewers[a], &reviewers[b].verifying_key(), r, epoch);
                let _ = g.ingest_trust(&p).expect("trust delta verifies");
                issued.push((a, p));
            } else {
                // The common case: a re-review (the distrust-wave shape).
                let s = rng.gen_range(AUDIT_SUBJECTS as u64) as usize;
                let r = rng.gen_range(AUDIT_REVIEWERS as u64) as usize;
                let rating = *rng.choose(&Rating::ALL).expect("nonempty");
                let _ = g
                    .ingest_review(&ReviewProof::issue(
                        &reviewers[r],
                        audit_subject(s),
                        rating,
                        epoch,
                    ))
                    .expect("review delta verifies");
            }
            audit.deltas += 1;
        }
        let warm_digest = g.scores_digest();
        let warm = g.last_report().expect("warm run reported");
        g.force_full();
        let cold_digest = g.scores_digest();
        let cold = g.last_report().expect("cold run reported");
        assert!(
            warm.converged && cold.converged,
            "round {round}: both chains within the iteration budget"
        );
        assert!(
            warm.iterations <= cold.iterations + 1,
            "round {round}: warm must not beat cold by losing ({warm:?} vs {cold:?})"
        );
        if warm_digest != cold_digest {
            audit.identical = false;
        }
        audit.warm_iterations += warm.iterations;
        audit.cold_iterations += cold.iterations;
        audit.rows_rebuilt += warm.rows_rebuilt;
        match warm.mode {
            ConvergeMode::Clean => audit.clean_rounds += 1,
            ConvergeMode::Incremental => audit.incremental_rounds += 1,
            ConvergeMode::Full => {}
        }
    }

    // The flagship saving: a distrust wave is review-only, so
    // re-certification after it needs zero matrix work.
    let wave_subject = audit_subject(AUDIT_SUBJECTS);
    for reviewer in reviewers.iter().take(3) {
        g.ingest_review(&ReviewProof::issue(
            reviewer,
            wave_subject,
            Rating::Distrust,
            1_000,
        ))
        .expect("wave review verifies");
    }
    let wave = g.converge();
    audit.wave_was_free = wave.mode == ConvergeMode::Clean && wave.iterations == 0;
    assert!(
        g.subject_score_fx(wave_subject) < 0,
        "a root-led distrust wave drags the subject negative"
    );
    audit
}

/// The scale run outcome.
#[derive(Clone, Copy, Debug)]
pub struct ScaleRun {
    /// Proofs ingested through the registry (signatures verified).
    pub proofs: u64,
    /// Iterations the cold fixed point took.
    pub full_iterations: u64,
    /// Iterations the warm re-convergence after one trust-edge delta
    /// took (probe included).
    pub incremental_iterations: u64,
}

fn scale_subject(s: usize) -> Digest {
    Digest::of(format!("e16 scale image {s}").as_bytes())
}

/// Ingests the full-scale proof population through a software
/// registry, every signature verified, then converges cold, re-converges
/// warm after one trust delta, and demotes one image with a review-only
/// distrust wave.
#[must_use]
pub fn run_scale() -> ScaleRun {
    let reviewers: Vec<SigningKey> = (0..SCALE_REVIEWERS)
        .map(|i| SigningKey::from_seed(format!("e16 scale reviewer {i}").as_bytes()))
        .collect();
    let mut registry = Registry::new("e16-wot-scale");
    let mut graph = TrustGraph::new();
    graph.seed_root(&reviewers[0].verifying_key().to_bytes());
    registry.attach_wot(graph, 0);

    // Binary vouch tree, then the reviews.
    for i in 1..SCALE_REVIEWERS {
        let vouch = TrustProof::issue(
            &reviewers[(i - 1) / 2],
            &reviewers[i].verifying_key(),
            Rating::High,
            1,
        );
        registry
            .ingest_proof(&Proof::Trust(vouch))
            .expect("vouch verifies");
    }
    for s in 0..SCALE_SUBJECTS {
        let subject = scale_subject(s);
        for k in 0..SCALE_REVIEWS_PER_SUBJECT {
            let r = (s + k * 97) % SCALE_REVIEWERS;
            let rating = match (s + k) % 7 {
                0 => Rating::Trust,
                6 => Rating::Neutral,
                _ => Rating::High,
            };
            let review = ReviewProof::issue(&reviewers[r], subject, rating, 1);
            registry
                .ingest_proof(&Proof::Review(review))
                .expect("review verifies");
        }
    }
    let proofs = registry.stats().wot_proofs;

    let full = registry.wot_graph_mut().expect("graph attached").converge();
    assert_eq!(full.mode, ConvergeMode::Full, "first convergence runs cold");
    assert!(full.converged, "cold chain within the iteration budget");

    // One trust-edge delta, then the warm re-convergence the registry
    // would run on the next resolve.
    let delta = TrustProof::issue(
        &reviewers[0],
        &reviewers[SCALE_REVIEWERS / 2].verifying_key(),
        Rating::Trust,
        2,
    );
    registry
        .ingest_proof(&Proof::Trust(delta))
        .expect("delta verifies");
    let incr = registry.wot_graph_mut().expect("graph attached").converge();
    assert_eq!(
        incr.mode,
        ConvergeMode::Incremental,
        "one edit re-converges warm"
    );
    assert!(incr.converged, "warm chain within the iteration budget");

    // A review-only distrust wave demotes the image with zero matrix
    // work — the fleet-recall path at full registry scale.
    assert!(
        !registry.wot_demoted(scale_subject(0)),
        "a positively reviewed image is certified"
    );
    for k in 0..SCALE_REVIEWS_PER_SUBJECT {
        let r = (k * 97) % SCALE_REVIEWERS;
        let wave = ReviewProof::issue(&reviewers[r], scale_subject(0), Rating::Distrust, 2);
        registry
            .ingest_proof(&Proof::Review(wave))
            .expect("wave review verifies");
    }
    let wave = registry.wot_graph_mut().expect("graph attached").converge();
    assert_eq!(
        wave.mode,
        ConvergeMode::Clean,
        "a review-only wave needs no matrix work"
    );
    assert!(
        registry.wot_demoted(scale_subject(0)),
        "the wave demotes the image"
    );

    ScaleRun {
        proofs,
        full_iterations: full.iterations,
        incremental_iterations: incr.iterations,
    }
}

/// Renders the web-of-trust certification report.
#[must_use]
pub fn report() -> String {
    let results = run();
    let audit = delta_audit();
    let scale = run_scale();

    let mut rows = vec![vec![
        "backend".to_string(),
        "nodes".to_string(),
        "edges".to_string(),
        "proofs".to_string(),
        "demoted".to_string(),
        "scores digest".to_string(),
    ]];
    for b in &results {
        rows.push(vec![
            b.backend.clone(),
            b.nodes.to_string(),
            b.edges.to_string(),
            b.proofs.to_string(),
            b.demoted.to_string(),
            b.scores_digest.clone(),
        ]);
    }
    let invariant = results
        .iter()
        .all(|b| b.scores_digest == results[0].scores_digest);
    format!(
        "E16 — web-of-trust certification: review proofs, incremental EigenTrust\n\n\
         {}\n\
         Each backend ran the wot parity case (wot-gated resolve, spawn,\n\
         distrust-wave demotion) and then scored {} images under a\n\
         {}-reviewer cohort through the registry's wot-threshold pass.\n\
         The Q32.32 fixed point hashes to the same score digest on every\n\
         backend (backend-invariant: {}).\n\n\
         Incremental audit: {} review-heavy mixed deltas in {} rounds;\n\
         every warm re-convergence was byte-identical to a forced cold\n\
         recompute of the same state (identical: {}). Warm runs spent\n\
         {} iterations (probe included, never more than cold + 1 per\n\
         round) against {} cold, re-normalizing only {} dirty matrix\n\
         rows; the closing review-only distrust wave re-certified in 0\n\
         iterations (wave free: {}).\n\n\
         Scale run (software registry): {} proofs from {}\n\
         reviewers over {} images, every signature verified on\n\
         ingest. The cold fixed point took {} iterations and the warm\n\
         re-converge after one trust delta {}; a review-only distrust\n\
         wave then demoted an image with no matrix work.\n",
        render(&rows),
        SWEEP_SUBJECTS,
        SWEEP_REVIEWERS,
        if invariant { "yes" } else { "NO" },
        group(audit.deltas),
        audit.rounds,
        if audit.identical { "yes" } else { "NO" },
        group(audit.warm_iterations),
        group(audit.cold_iterations),
        audit.rows_rebuilt,
        if audit.wave_was_free { "yes" } else { "NO" },
        group(scale.proofs),
        group(SCALE_REVIEWERS as u64),
        group(SCALE_SUBJECTS as u64),
        scale.full_iterations,
        scale.incremental_iterations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_backend_invariant() {
        let results = run();
        assert_eq!(results.len(), 6, "the sweep covers every backend");
        for b in &results {
            assert_eq!(
                b.scores_digest, results[0].scores_digest,
                "{}: the score digest must be backend-invariant",
                b.backend
            );
            assert_eq!(b.demoted, results[0].demoted, "{}", b.backend);
            assert_eq!(b.nodes, results[0].nodes, "{}", b.backend);
            assert!(b.proofs > 2 * SWEEP_REVIEWERS as u64, "{}", b.backend);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let (a, b) = (run_backend(0), run_backend(0));
        assert_eq!(a.scores_digest, b.scores_digest);
        assert_eq!(a.demoted, b.demoted);
        assert_eq!(a.proofs, b.proofs);
    }

    #[test]
    fn mixed_deltas_keep_incremental_byte_identical() {
        let audit = delta_audit();
        assert!(audit.identical, "warm must equal cold every round");
        assert_eq!(audit.deltas, MIXED_DELTAS as u64);
        assert_eq!(
            audit.incremental_rounds, audit.rounds,
            "every round carries trust-edge dirt, so every warm run is incremental"
        );
        assert!(audit.wave_was_free, "review-only waves re-certify clean");
        assert!(audit.rows_rebuilt > 0, "edits dirty matrix rows");
    }

    #[test]
    fn report_is_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a, b, "two identical runs must be byte-identical");
    }
}
