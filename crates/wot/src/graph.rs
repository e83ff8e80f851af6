//! The trust graph: proof ingestion, sparse row-normalized trust
//! matrix, and a deterministic incremental EigenTrust fixed point.
//!
//! # Scoring model
//!
//! Reviewer keys are graph nodes. Active [`TrustProof`]s with a
//! positive rating become weighted edges (`neutral`=1, `trust`=2,
//! `high`=3); `distrust` edges are absent from the matrix, as in
//! EigenTrust's non-negative local trust. Each row is normalized to
//! sum to (at most) 1.0 in Q32.32. Seeded roots form the pre-trust
//! vector `p`; the score vector is the fixed point of
//!
//! ```text
//! t = α·p + (1−α)·Cᵀt        (dangling rows teleport to p)
//! ```
//!
//! computed entirely in Q32.32 with `u128` accumulation — no floats
//! anywhere, so the score vector hashes to the same
//! [`TrustGraph::scores_digest`] on every backend and host.
//!
//! # Exact incremental recomputation
//!
//! The iteration map `F` above, *as implemented* (floor rounding once
//! per component), is **monotone**: `x ≤ y` componentwise implies
//! `F(x) ≤ F(y)`. A full recompute starts from `x₀ = α·p`; since
//! `F(x₀) ≥ x₀`, the iterates form a nondecreasing, bounded integer
//! chain that terminates at the **least fixed point** `lfp` of `F` —
//! a canonical value, independent of iteration count.
//!
//! An incremental recompute must land on *exactly* that value to keep
//! the digest gate honest. Re-iterating from the previous fixed point
//! alone cannot promise this (floor rounding admits multiple fixed
//! points). Instead we restart from
//!
//! ```text
//! y₀ᵢ = max(α·pᵢ, prevᵢ − D)
//! ```
//!
//! where `D ≥ ‖lfp − prev‖∞` is a drift bound computed from one probe
//! iteration: contraction gives `‖lfp − prev‖₁ ≤ (‖F(prev) − prev‖₁
//! + 2n)/α`. Then `x₀ ≤ y₀ ≤ lfp`, and monotonicity squeezes
//! `Fᵏ(x₀) ≤ Fᵏ(y₀) ≤ lfp` for every k — so the warm chain reaches
//! **exactly** `lfp`, in at most as many steps as the cold chain, and
//! usually far fewer. [`ConvergeReport`] counters prove the saved
//! work. Overestimating `D` only costs iterations, never correctness.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use lateral_crypto::Digest;

use crate::fixed::{self, ONE};
use crate::proof::{Proof, Rating, ReviewProof, Revocation, TrustProof};
use crate::WotError;

/// Domain separator for [`TrustGraph::scores_digest`].
const SCORES_DIGEST_DOMAIN: &[u8] = b"lateral.wot.scores.v1";

/// Default teleport weight α = 0.2 in Q32.32 (exact).
const DEFAULT_ALPHA: u64 = ONE / 5;

/// Iteration budget; hitting it is reported, never panicked on.
const MAX_ITERS: u64 = 100_000;

/// What happened to an ingested proof.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IngestOutcome {
    /// The proof filled an empty slot (or a revocation removed an
    /// active proof).
    Applied,
    /// The proof replaced an older proof in its slot.
    Superseded,
    /// An older (or tie-losing) proof for an already-filled slot;
    /// ignored.
    Stale,
    /// Exactly this proof (same id) is already active, or the
    /// revocation was already recorded; ignored.
    Duplicate,
    /// The proof's id is revoked by its issuer; refused.
    Revoked,
    /// A revocation whose target proof has not been seen yet; recorded
    /// so the target is refused if it ever arrives.
    Orphan,
}

/// How the last [`TrustGraph::converge`] ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConvergeMode {
    /// Nothing was dirty; the previous fixed point stands.
    Clean,
    /// Cold start from `α·p` (first run, or pre-trust changed).
    Full,
    /// Warm start from the drift-bounded previous fixed point.
    Incremental,
}

/// Counters from one convergence run — the proof of saved work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConvergeReport {
    /// Cold, warm, or nothing to do.
    pub mode: ConvergeMode,
    /// Iterations of the fixed-point map (including the warm-start
    /// probe iteration).
    pub iterations: u64,
    /// Rows of the trust matrix re-normalized this run.
    pub rows_rebuilt: u64,
    /// Drift bound `D` used for the warm start (0 for full runs).
    pub drift_bound: u64,
    /// Nodes in the graph at convergence time.
    pub nodes: u64,
    /// Positive edges in the matrix at convergence time.
    pub edges: u64,
    /// False only if the iteration budget ran out first.
    pub converged: bool,
}

/// Aggregate counters, in the style of `RegistryStats`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WotStats {
    /// Trust/review proofs applied (new slot or supersede).
    pub proofs_applied: u64,
    /// Proofs ignored as stale or duplicate.
    pub proofs_stale: u64,
    /// Proofs refused because their id was revoked.
    pub proofs_refused_revoked: u64,
    /// Revocations that removed an active proof.
    pub revocations_applied: u64,
    /// Revocations recorded before their target was seen.
    pub revocations_orphaned: u64,
    /// Cold convergence runs.
    pub full_recomputes: u64,
    /// Warm convergence runs.
    pub incremental_recomputes: u64,
    /// Iterations spent in cold runs.
    pub full_iterations: u64,
    /// Iterations spent in warm runs (probes included).
    pub incremental_iterations: u64,
}

impl fmt::Display for WotStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "applied={} stale={} refused={} revoked={} orphaned={} full={}({} iters) incremental={}({} iters)",
            self.proofs_applied,
            self.proofs_stale,
            self.proofs_refused_revoked,
            self.revocations_applied,
            self.revocations_orphaned,
            self.full_recomputes,
            self.full_iterations,
            self.incremental_recomputes,
            self.incremental_iterations
        )
    }
}

/// The active proof occupying a (truster, trustee) or
/// (reviewer, subject) slot. Supersede order is `(epoch, id)`
/// lexicographic — deterministic and ingestion-order independent.
#[derive(Clone, Copy, Debug)]
struct ActiveProof {
    epoch: u64,
    id: Digest,
    rating: Rating,
}

impl ActiveProof {
    fn outranks(&self, epoch: u64, id: Digest) -> bool {
        (self.epoch, self.id.0) >= (epoch, id.0)
    }
}

/// Where a proof id lives, for revocation targeting.
#[derive(Clone, Copy, Debug)]
enum SlotRef {
    Trust(u32, u32),
    Review(u32, Digest),
}

/// The web-of-trust graph. See the [module docs](self) for the model.
///
/// ```
/// use lateral_crypto::sign::SigningKey;
/// use lateral_crypto::Digest;
/// use lateral_wot::{Rating, ReviewProof, TrustGraph, TrustProof};
///
/// let root = SigningKey::from_seed(b"root reviewer");
/// let peer = SigningKey::from_seed(b"peer reviewer");
/// let mut g = TrustGraph::new();
/// g.seed_root(&root.verifying_key().to_bytes());
/// g.ingest_trust(&TrustProof::issue(&root, &peer.verifying_key(), Rating::High, 1)).unwrap();
/// let subject = Digest::of(b"component image");
/// g.ingest_review(&ReviewProof::issue(&peer, subject, Rating::Trust, 1)).unwrap();
/// assert!(g.subject_score_milli(subject) > 0);
/// ```
pub struct TrustGraph {
    alpha: u64,
    epsilon: u64,
    keys: Vec<[u8; 32]>,
    ids: BTreeMap<[u8; 32], u32>,
    roots: BTreeSet<u32>,
    /// Raw positive out-edge weights per truster node.
    out_edges: Vec<BTreeMap<u32, u32>>,
    /// Normalized rows (Q32.32 weights), rebuilt lazily per dirty row.
    rows: Vec<Vec<(u32, u64)>>,
    dirty_rows: BTreeSet<u32>,
    /// Active trust proofs by (truster, trustee).
    trust_slots: BTreeMap<(u32, u32), ActiveProof>,
    /// Active reviews: subject → reviewer node → proof.
    reviews: BTreeMap<Digest, BTreeMap<u32, ActiveProof>>,
    /// Proof id → where it is active (for revocation targeting).
    by_id: BTreeMap<Digest, SlotRef>,
    /// Revoked proof id → revoking issuer key.
    revoked: BTreeMap<Digest, [u8; 32]>,
    /// Last converged score vector (Q32.32), indexed by node.
    scores: Vec<u64>,
    /// Structural change since the last convergence.
    matrix_dirty: bool,
    /// Warm start impossible (first run / pre-trust or α changed).
    full_required: bool,
    /// Node count at last convergence (root-less pre-trust depends on
    /// it, so growth forces a full run in that configuration).
    nodes_at_converge: usize,
    /// Bumped on every applied state change; the registry folds this
    /// into its verdict-cache key.
    epoch: u64,
    stats: WotStats,
    last_report: Option<ConvergeReport>,
}

impl Default for TrustGraph {
    fn default() -> TrustGraph {
        TrustGraph::new()
    }
}

impl fmt::Debug for TrustGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TrustGraph({} nodes, {} edges, {} reviewed subjects, epoch {})",
            self.keys.len(),
            self.edge_count(),
            self.reviews.len(),
            self.epoch
        )
    }
}

impl TrustGraph {
    /// An empty graph with α = 0.2 and exact (ε = 0) convergence.
    pub fn new() -> TrustGraph {
        TrustGraph {
            alpha: DEFAULT_ALPHA,
            epsilon: 0,
            keys: Vec::new(),
            ids: BTreeMap::new(),
            roots: BTreeSet::new(),
            out_edges: Vec::new(),
            rows: Vec::new(),
            dirty_rows: BTreeSet::new(),
            trust_slots: BTreeMap::new(),
            reviews: BTreeMap::new(),
            by_id: BTreeMap::new(),
            revoked: BTreeMap::new(),
            scores: Vec::new(),
            matrix_dirty: false,
            full_required: true,
            nodes_at_converge: 0,
            epoch: 0,
            stats: WotStats::default(),
            last_report: None,
        }
    }

    /// Sets the convergence epsilon (raw Q32.32 L1 mass). The default
    /// 0 iterates to the exact least fixed point — required for the
    /// full-vs-incremental byte-identity guarantee; a nonzero ε trades
    /// that exactness for fewer iterations.
    pub fn set_epsilon(&mut self, epsilon: u64) {
        if self.epsilon != epsilon {
            self.epsilon = epsilon;
            self.full_required = true;
            self.matrix_dirty = true;
        }
    }

    /// Seeds `key` as a trust root: it joins the pre-trust vector
    /// (uniform over all roots) that anchors every score. Changing the
    /// root set forces the next convergence to run cold.
    pub fn seed_root(&mut self, key: &[u8; 32]) {
        let id = self.intern(key);
        if self.roots.insert(id) {
            self.full_required = true;
            self.matrix_dirty = true;
            self.epoch += 1;
        }
    }

    /// The trust epoch: bumped on every applied state change. The
    /// registry folds it into the verdict-cache key so stale verdicts
    /// can never outlive a score change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nodes (reviewer keys) seen so far.
    pub fn node_count(&self) -> usize {
        self.keys.len()
    }

    /// Positive trust edges in the matrix.
    pub fn edge_count(&self) -> usize {
        self.out_edges.iter().map(BTreeMap::len).sum()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> WotStats {
        self.stats
    }

    /// The report from the most recent [`TrustGraph::converge`].
    pub fn last_report(&self) -> Option<ConvergeReport> {
        self.last_report
    }

    /// Forces the next [`TrustGraph::converge`] to run cold — the
    /// audit path E16 uses to prove warm results byte-identical.
    pub fn force_full(&mut self) {
        self.full_required = true;
        self.matrix_dirty = true;
    }

    /// Ingests any proof kind. Signatures are verified here; the graph
    /// never holds an unverified proof.
    ///
    /// # Errors
    ///
    /// [`WotError::Signature`] on a bad signature, [`WotError::Graph`]
    /// on semantic rejection (self-trust, revocation issuer mismatch).
    pub fn ingest(&mut self, proof: &Proof) -> Result<IngestOutcome, WotError> {
        match proof {
            Proof::Review(p) => self.ingest_review(p),
            Proof::Trust(p) => self.ingest_trust(p),
            Proof::Revocation(p) => self.ingest_revocation(p),
        }
    }

    /// Ingests a trust edge. See [`TrustGraph::ingest`].
    ///
    /// # Errors
    ///
    /// As for [`TrustGraph::ingest`].
    pub fn ingest_trust(&mut self, p: &TrustProof) -> Result<IngestOutcome, WotError> {
        p.verify_signature()?;
        if p.truster == p.trustee {
            return Err(WotError::Graph("self-trust edge rejected".into()));
        }
        let id = p.id();
        if self.refused_as_revoked(&id, &p.truster) {
            return Ok(IngestOutcome::Revoked);
        }
        let a = self.intern(&p.truster);
        let b = self.intern(&p.trustee);
        let outcome = match self.trust_slots.get(&(a, b)).copied() {
            Some(active) if active.id == id => {
                self.stats.proofs_stale += 1;
                return Ok(IngestOutcome::Duplicate);
            }
            Some(active) if active.outranks(p.epoch, id) => {
                self.stats.proofs_stale += 1;
                return Ok(IngestOutcome::Stale);
            }
            Some(active) => {
                self.by_id.remove(&active.id);
                IngestOutcome::Superseded
            }
            None => IngestOutcome::Applied,
        };
        self.trust_slots.insert(
            (a, b),
            ActiveProof {
                epoch: p.epoch,
                id,
                rating: p.rating,
            },
        );
        self.by_id.insert(id, SlotRef::Trust(a, b));
        self.set_edge(a, b, p.rating.edge_weight());
        self.stats.proofs_applied += 1;
        self.epoch += 1;
        Ok(outcome)
    }

    /// Ingests a component review. See [`TrustGraph::ingest`].
    ///
    /// # Errors
    ///
    /// As for [`TrustGraph::ingest`].
    pub fn ingest_review(&mut self, p: &ReviewProof) -> Result<IngestOutcome, WotError> {
        p.verify_signature()?;
        let id = p.id();
        if self.refused_as_revoked(&id, &p.reviewer) {
            return Ok(IngestOutcome::Revoked);
        }
        let r = self.intern(&p.reviewer);
        let slot = self.reviews.entry(p.subject).or_default();
        let outcome = match slot.get(&r).copied() {
            Some(active) if active.id == id => {
                self.stats.proofs_stale += 1;
                return Ok(IngestOutcome::Duplicate);
            }
            Some(active) if active.outranks(p.epoch, id) => {
                self.stats.proofs_stale += 1;
                return Ok(IngestOutcome::Stale);
            }
            Some(active) => {
                self.by_id.remove(&active.id);
                IngestOutcome::Superseded
            }
            None => IngestOutcome::Applied,
        };
        slot.insert(
            r,
            ActiveProof {
                epoch: p.epoch,
                id,
                rating: p.rating,
            },
        );
        self.by_id.insert(id, SlotRef::Review(r, p.subject));
        self.stats.proofs_applied += 1;
        self.epoch += 1;
        Ok(outcome)
    }

    /// Ingests a revocation. The issuer must be the revoked proof's
    /// issuer; a revocation arriving *before* its target is recorded
    /// and refuses the target on arrival.
    ///
    /// # Errors
    ///
    /// As for [`TrustGraph::ingest`].
    pub fn ingest_revocation(&mut self, p: &Revocation) -> Result<IngestOutcome, WotError> {
        p.verify_signature()?;
        if self.revoked.contains_key(&p.revokes) {
            self.stats.proofs_stale += 1;
            return Ok(IngestOutcome::Duplicate);
        }
        match self.by_id.get(&p.revokes).copied() {
            Some(SlotRef::Trust(a, b)) => {
                if self.keys[a as usize] != p.issuer {
                    return Err(WotError::Graph(
                        "revocation issuer is not the proof issuer".into(),
                    ));
                }
                self.trust_slots.remove(&(a, b));
                self.by_id.remove(&p.revokes);
                self.set_edge(a, b, 0);
                self.revoked.insert(p.revokes, p.issuer);
                self.stats.revocations_applied += 1;
                self.epoch += 1;
                Ok(IngestOutcome::Applied)
            }
            Some(SlotRef::Review(r, subject)) => {
                if self.keys[r as usize] != p.issuer {
                    return Err(WotError::Graph(
                        "revocation issuer is not the proof issuer".into(),
                    ));
                }
                if let Some(slot) = self.reviews.get_mut(&subject) {
                    slot.remove(&r);
                    if slot.is_empty() {
                        self.reviews.remove(&subject);
                    }
                }
                self.by_id.remove(&p.revokes);
                self.revoked.insert(p.revokes, p.issuer);
                self.stats.revocations_applied += 1;
                self.epoch += 1;
                Ok(IngestOutcome::Applied)
            }
            None => {
                self.revoked.insert(p.revokes, p.issuer);
                self.stats.revocations_orphaned += 1;
                self.epoch += 1;
                Ok(IngestOutcome::Orphan)
            }
        }
    }

    /// The converged score of `key` in Q32.32 (0 for unknown keys).
    /// Converges first if the graph is dirty.
    pub fn score_of(&mut self, key: &[u8; 32]) -> u64 {
        self.converge();
        match self.ids.get(key) {
            Some(&id) => self.scores.get(id as usize).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// The aggregated review score of a subject digest, in signed
    /// Q32.32: `Σ reviewer_score × rating multiplier` over active
    /// reviews (`high` +2, `trust` +1, `neutral` 0, `distrust` −2).
    /// Unreviewed subjects score 0; reviews from unscored keys carry
    /// no weight, which is the sybil resistance of the scheme.
    pub fn subject_score_fx(&mut self, subject: Digest) -> i64 {
        self.converge();
        let Some(slot) = self.reviews.get(&subject) else {
            return 0;
        };
        let mut acc: i128 = 0;
        for (&reviewer, proof) in slot {
            let score = self.scores.get(reviewer as usize).copied().unwrap_or(0);
            acc += score as i128 * proof.rating.review_multiplier() as i128;
        }
        acc.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// [`TrustGraph::subject_score_fx`] scaled to integer milli-units
    /// (floor), the unit admission thresholds are declared in.
    pub fn subject_score_milli(&mut self, subject: Digest) -> i64 {
        fixed::to_milli(self.subject_score_fx(subject))
    }

    /// Canonical digest of the converged score matrix: every node key
    /// with its Q32.32 score, in key order. Byte-identical across
    /// backends, hosts, and full/incremental recomputation — the E16
    /// gate.
    pub fn scores_digest(&mut self) -> Digest {
        self.converge();
        let mut bytes = Vec::with_capacity(8 + self.keys.len() * 40);
        bytes.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_by_key(|&i| self.keys[i as usize]);
        for i in order {
            bytes.extend_from_slice(&self.keys[i as usize]);
            bytes.extend_from_slice(&self.scores[i as usize].to_le_bytes());
        }
        Digest::of_parts(&[SCORES_DIGEST_DOMAIN, &bytes])
    }

    /// Re-converges the score vector if anything is dirty; no-op
    /// otherwise. Returns the run's [`ConvergeReport`].
    pub fn converge(&mut self) -> ConvergeReport {
        let n = self.keys.len();
        let grew = n != self.nodes_at_converge;
        // Root-less pre-trust is uniform over *all* nodes, so growth
        // changes p and invalidates the warm-start premise.
        let full = self.full_required || (grew && self.roots.is_empty());
        if !self.matrix_dirty && !grew {
            let report = ConvergeReport {
                mode: ConvergeMode::Clean,
                iterations: 0,
                rows_rebuilt: 0,
                drift_bound: 0,
                nodes: n as u64,
                edges: self.edge_count() as u64,
                converged: true,
            };
            self.last_report = Some(report);
            return report;
        }

        let rows_rebuilt = self.rebuild_dirty_rows();
        let alpha_p = self.alpha_pretrust();
        self.scores.resize(n, 0);

        let mut t: Vec<u64>;
        let mut drift_bound = 0u64;
        let mut iterations = 0u64;
        if full {
            t = alpha_p.clone();
        } else {
            // Probe iteration: how far did the edits push the old
            // fixed point? ‖lfp − prev‖₁ ≤ (‖F(prev) − prev‖₁ + 2n)/α.
            let mut probe = vec![0u64; n];
            self.apply_map(&self.scores, &alpha_p, &mut probe);
            iterations += 1;
            let moved: u128 = probe
                .iter()
                .zip(&self.scores)
                .map(|(&a, &b)| a.abs_diff(b) as u128)
                .sum();
            let d = (moved + 2 * n as u128) * ONE as u128 / self.alpha as u128 + 1;
            drift_bound = u64::try_from(d).unwrap_or(u64::MAX);
            t = self
                .scores
                .iter()
                .zip(&alpha_p)
                .map(|(&prev, &ap)| ap.max(prev.saturating_sub(drift_bound)))
                .collect();
        }

        let mut next = vec![0u64; n];
        let mut converged = false;
        while iterations < MAX_ITERS {
            self.apply_map(&t, &alpha_p, &mut next);
            iterations += 1;
            let delta: u128 = next
                .iter()
                .zip(&t)
                .map(|(&a, &b)| a.abs_diff(b) as u128)
                .sum();
            std::mem::swap(&mut t, &mut next);
            if delta <= self.epsilon as u128 {
                converged = true;
                break;
            }
        }

        self.scores = t;
        self.matrix_dirty = false;
        self.nodes_at_converge = n;
        self.full_required = false;
        if full {
            self.stats.full_recomputes += 1;
            self.stats.full_iterations += iterations;
        } else {
            self.stats.incremental_recomputes += 1;
            self.stats.incremental_iterations += iterations;
        }
        let report = ConvergeReport {
            mode: if full {
                ConvergeMode::Full
            } else {
                ConvergeMode::Incremental
            },
            iterations,
            rows_rebuilt,
            drift_bound,
            nodes: n as u64,
            edges: self.edge_count() as u64,
            converged,
        };
        self.last_report = Some(report);
        report
    }

    // --------------------------------------------------- internals

    fn intern(&mut self, key: &[u8; 32]) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.keys.push(*key);
        self.ids.insert(*key, id);
        self.out_edges.push(BTreeMap::new());
        self.rows.push(Vec::new());
        id
    }

    fn refused_as_revoked(&mut self, id: &Digest, issuer: &[u8; 32]) -> bool {
        if self.revoked.get(id) == Some(issuer) {
            self.stats.proofs_refused_revoked += 1;
            true
        } else {
            false
        }
    }

    fn set_edge(&mut self, a: u32, b: u32, weight: u32) {
        if weight == 0 {
            self.out_edges[a as usize].remove(&b);
        } else {
            self.out_edges[a as usize].insert(b, weight);
        }
        self.dirty_rows.insert(a);
        self.matrix_dirty = true;
    }

    fn rebuild_dirty_rows(&mut self) -> u64 {
        let dirty = std::mem::take(&mut self.dirty_rows);
        let rebuilt = dirty.len() as u64;
        for a in dirty {
            let edges = &self.out_edges[a as usize];
            let total: u64 = edges.values().map(|&w| w as u64).sum();
            let row = &mut self.rows[a as usize];
            row.clear();
            if total == 0 {
                continue;
            }
            row.extend(edges.iter().map(|(&b, &w)| (b, (w as u64 * ONE) / total)));
        }
        rebuilt
    }

    /// The pre-trust vector scaled by α: uniform over roots, or over
    /// all nodes when no roots are seeded.
    fn alpha_pretrust(&self) -> Vec<u64> {
        let n = self.keys.len();
        let mut out = vec![0u64; n];
        if self.roots.is_empty() {
            if n == 0 {
                return out;
            }
            let share = fixed::mul_down(self.alpha, ONE / n as u64);
            out.fill(share);
        } else {
            let share = fixed::mul_down(self.alpha, ONE / self.roots.len() as u64);
            for &r in &self.roots {
                out[r as usize] = share;
            }
        }
        out
    }

    /// One application of the monotone fixed-point map:
    /// `out_i = αp_i + floor((1−α)·(Σ_j t_j·C_ji + dangling·p_i))`,
    /// floor-rounded exactly once per component.
    fn apply_map(&self, t: &[u64], alpha_p: &[u64], out: &mut [u64]) {
        let n = t.len();
        let mut acc = vec![0u128; n]; // Q64.64
        let mut dangling: u128 = 0;
        for (j, row) in self.rows.iter().enumerate().take(n) {
            let tj = t[j] as u128;
            if tj == 0 {
                continue;
            }
            if row.is_empty() {
                dangling += tj;
            } else {
                for &(i, w) in row {
                    acc[i as usize] += tj * w as u128;
                }
            }
        }
        if dangling > 0 {
            // Dangling mass teleports along p; αp_i = α·p_i exactly
            // reuses the precomputed vector scaled back up by 1/α —
            // instead, recompute p_i share directly from roots.
            if self.roots.is_empty() {
                if n > 0 {
                    let p = (ONE / n as u64) as u128;
                    for a in acc.iter_mut() {
                        *a += dangling * p;
                    }
                }
            } else {
                let p = (ONE / self.roots.len() as u64) as u128;
                for &r in &self.roots {
                    acc[r as usize] += dangling * p;
                }
            }
        }
        let one_minus_alpha = (ONE - self.alpha) as u128;
        for i in 0..n {
            out[i] = alpha_p[i] + ((one_minus_alpha * acc[i]) >> 64) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_crypto::rng::Drbg;
    use lateral_crypto::sign::SigningKey;

    fn keys(n: usize) -> Vec<SigningKey> {
        (0..n)
            .map(|i| SigningKey::from_seed(format!("graph key {i}").as_bytes()))
            .collect()
    }

    /// A small deterministic web: k0 is the seeded root, trusting k1
    /// and k2; k1 trusts k2; k2 trusts k3.
    fn small_web() -> (TrustGraph, Vec<SigningKey>) {
        let ks = keys(4);
        let mut g = TrustGraph::new();
        g.seed_root(&ks[0].verifying_key().to_bytes());
        for (a, b, r) in [
            (0, 1, Rating::High),
            (0, 2, Rating::Trust),
            (1, 2, Rating::Trust),
            (2, 3, Rating::Neutral),
        ] {
            g.ingest_trust(&TrustProof::issue(&ks[a], &ks[b].verifying_key(), r, 1))
                .unwrap();
        }
        (g, ks)
    }

    #[test]
    fn scores_converge_and_rank_sensibly() {
        let (mut g, ks) = small_web();
        let report = g.converge();
        assert!(report.converged, "{report:?}");
        assert_eq!(report.mode, ConvergeMode::Full);
        let s: Vec<u64> = ks
            .iter()
            .map(|k| g.score_of(&k.verifying_key().to_bytes()))
            .collect();
        // The root holds the teleport mass and outranks everyone; k2,
        // trusted by two parties, outranks both single-edge nodes.
        assert!(s[0] > s[2], "{s:?}");
        assert!(s[2] > s[1], "{s:?}");
        assert!(s[2] > s[3], "{s:?}");
        assert!(s.iter().all(|&v| v > 0), "{s:?}");
        assert!(g.score_of(&[9u8; 32]) == 0, "unknown key scores 0");
    }

    #[test]
    fn ingestion_order_cannot_change_the_digest() {
        let ks = keys(5);
        let mut proofs = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    let r = Rating::ALL[(a * 5 + b) % 4];
                    proofs.push(TrustProof::issue(
                        &ks[a],
                        &ks[b].verifying_key(),
                        r,
                        (a + b) as u64,
                    ));
                }
            }
        }
        let digest_for = |order: &[usize]| {
            let mut g = TrustGraph::new();
            g.seed_root(&ks[0].verifying_key().to_bytes());
            for &i in order {
                g.ingest_trust(&proofs[i]).unwrap();
            }
            g.scores_digest()
        };
        let forward: Vec<usize> = (0..proofs.len()).collect();
        let mut shuffled = forward.clone();
        Drbg::from_seed(b"order").shuffle(&mut shuffled);
        assert_eq!(digest_for(&forward), digest_for(&shuffled));
    }

    #[test]
    fn supersede_is_by_epoch_then_id() {
        let ks = keys(2);
        let old = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::High, 1);
        let new = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::Distrust, 2);
        for order in [[&old, &new], [&new, &old]] {
            let mut g = TrustGraph::new();
            g.seed_root(&ks[0].verifying_key().to_bytes());
            for p in order {
                let _ = g.ingest_trust(p).unwrap();
            }
            // Epoch 2 distrust wins regardless of arrival order, so the
            // edge is gone from the matrix.
            assert_eq!(g.edge_count(), 0, "distrust supersedes");
        }
        // Same epoch: the higher payload digest wins, deterministically.
        let e3a = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::High, 3);
        let e3b = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::Trust, 3);
        let winner = if e3a.id().0 > e3b.id().0 { &e3a } else { &e3b };
        for order in [[&e3a, &e3b], [&e3b, &e3a]] {
            let mut g = TrustGraph::new();
            for p in order {
                let _ = g.ingest_trust(p).unwrap();
            }
            let mut h = TrustGraph::new();
            h.ingest_trust(winner).unwrap();
            assert_eq!(g.scores_digest(), h.scores_digest());
        }
    }

    #[test]
    fn duplicate_and_stale_are_ignored() {
        let ks = keys(2);
        let mut g = TrustGraph::new();
        let p1 = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::Trust, 5);
        let p0 = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::High, 4);
        assert_eq!(g.ingest_trust(&p1).unwrap(), IngestOutcome::Applied);
        let epoch = g.epoch();
        assert_eq!(g.ingest_trust(&p1).unwrap(), IngestOutcome::Duplicate);
        assert_eq!(g.ingest_trust(&p0).unwrap(), IngestOutcome::Stale);
        assert_eq!(g.epoch(), epoch, "no-ops must not bump the epoch");
        assert_eq!(g.stats().proofs_stale, 2);
    }

    #[test]
    fn self_trust_and_forged_signatures_rejected() {
        let ks = keys(2);
        let mut g = TrustGraph::new();
        let selfie = TrustProof::issue(&ks[0], &ks[0].verifying_key(), Rating::High, 1);
        assert!(matches!(g.ingest_trust(&selfie), Err(WotError::Graph(_))));
        let mut forged = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::High, 1);
        forged.epoch = 99;
        assert!(matches!(
            g.ingest_trust(&forged),
            Err(WotError::Signature(_))
        ));
        assert_eq!(g.epoch(), 0);
    }

    #[test]
    fn revocation_removes_edge_and_blocks_reingestion() {
        let (mut g, ks) = small_web();
        let edge = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::High, 1);
        let before = g.score_of(&ks[1].verifying_key().to_bytes());
        let rev = Revocation::issue(&ks[0], edge.id(), 2);
        assert_eq!(g.ingest_revocation(&rev).unwrap(), IngestOutcome::Applied);
        assert_eq!(g.ingest_revocation(&rev).unwrap(), IngestOutcome::Duplicate);
        let after = g.score_of(&ks[1].verifying_key().to_bytes());
        assert!(after < before, "losing the root edge must drop the score");
        // The revoked proof cannot come back.
        assert_eq!(g.ingest_trust(&edge).unwrap(), IngestOutcome::Revoked);
        assert_eq!(g.stats().proofs_refused_revoked, 1);
    }

    #[test]
    fn revocation_by_stranger_rejected_and_orphans_apply_late() {
        let ks = keys(3);
        let edge = TrustProof::issue(&ks[0], &ks[1].verifying_key(), Rating::High, 1);
        // Known target, wrong issuer: hard error.
        let mut g = TrustGraph::new();
        g.ingest_trust(&edge).unwrap();
        let forged = Revocation::issue(&ks[2], edge.id(), 2);
        assert!(matches!(
            g.ingest_revocation(&forged),
            Err(WotError::Graph(_))
        ));
        // Unknown target: recorded as orphan. A stranger's orphan does
        // not bite the real proof; the issuer's own orphan does.
        let mut h = TrustGraph::new();
        assert_eq!(h.ingest_revocation(&forged).unwrap(), IngestOutcome::Orphan);
        assert_eq!(h.ingest_trust(&edge).unwrap(), IngestOutcome::Applied);
        let mut h2 = TrustGraph::new();
        let own = Revocation::issue(&ks[0], edge.id(), 2);
        assert_eq!(h2.ingest_revocation(&own).unwrap(), IngestOutcome::Orphan);
        assert_eq!(h2.ingest_trust(&edge).unwrap(), IngestOutcome::Revoked);
    }

    #[test]
    fn subject_scores_weight_reviews_by_reviewer_score() {
        let (mut g, ks) = small_web();
        let subject = Digest::of(b"image A");
        g.ingest_review(&ReviewProof::issue(&ks[1], subject, Rating::High, 1))
            .unwrap();
        let with_good_review = g.subject_score_milli(subject);
        assert!(with_good_review > 0);
        // A nobody's distrust cannot outweigh a scored reviewer.
        let stranger = SigningKey::from_seed(b"stranger");
        g.ingest_review(&ReviewProof::issue(&stranger, subject, Rating::Distrust, 1))
            .unwrap();
        assert_eq!(g.subject_score_milli(subject), with_good_review);
        // The root's distrust flips it negative.
        g.ingest_review(&ReviewProof::issue(&ks[0], subject, Rating::Distrust, 1))
            .unwrap();
        assert!(g.subject_score_milli(subject) < 0);
        assert_eq!(g.subject_score_milli(Digest::of(b"unreviewed")), 0);
    }

    #[test]
    fn incremental_is_byte_identical_to_full() {
        let ks = keys(12);
        let mut g = TrustGraph::new();
        g.seed_root(&ks[0].verifying_key().to_bytes());
        g.seed_root(&ks[1].verifying_key().to_bytes());
        let mut rng = Drbg::from_seed(b"incremental");
        let mut issued: Vec<TrustProof> = Vec::new();
        for round in 0..6 {
            for _ in 0..8 {
                let a = rng.gen_range(ks.len() as u64) as usize;
                let mut b = rng.gen_range(ks.len() as u64) as usize;
                if a == b {
                    b = (b + 1) % ks.len();
                }
                let r = *rng.choose(&Rating::ALL).unwrap();
                let p = TrustProof::issue(&ks[a], &ks[b].verifying_key(), r, round);
                let _ = g.ingest_trust(&p).unwrap();
                issued.push(p);
            }
            if round > 0 && !issued.is_empty() {
                let victim = rng.gen_range(issued.len() as u64) as usize;
                let target = &issued[victim];
                let issuer_idx = ks
                    .iter()
                    .position(|k| k.verifying_key().to_bytes() == target.truster)
                    .unwrap();
                let _ = g
                    .ingest_revocation(&Revocation::issue(&ks[issuer_idx], target.id(), 99))
                    .unwrap();
            }
            // Warm converge after each round of edits…
            let warm = g.scores_digest();
            let warm_report = g.last_report().unwrap();
            // …must equal a forced cold recompute of the same state.
            g.force_full();
            let cold = g.scores_digest();
            let cold_report = g.last_report().unwrap();
            assert_eq!(warm, cold, "round {round}: warm diverged from cold");
            assert!(cold_report.converged && warm_report.converged);
            if round > 0 {
                assert_eq!(warm_report.mode, ConvergeMode::Incremental);
                assert_eq!(cold_report.mode, ConvergeMode::Full);
                // The warm chain is squeezed between the cold chain and
                // the fixed point, so it takes at most the cold step
                // count plus its one probe iteration. (With edits this
                // large relative to the graph, the drift bound rightly
                // collapses the warm start toward cold; the savings
                // show on small perturbations and review-only waves.)
                assert!(
                    warm_report.iterations <= cold_report.iterations + 1,
                    "warm start must not iterate more than cold+probe: {warm_report:?} vs {cold_report:?}"
                );
            }
        }
        let stats = g.stats();
        assert!(stats.incremental_recomputes >= 5);
        assert!(stats.full_recomputes >= 6);
    }

    #[test]
    fn incremental_rebuilds_only_dirty_rows() {
        let (mut g, ks) = small_web();
        g.converge();
        let _ = g.ingest_trust(&TrustProof::issue(
            &ks[2],
            &ks[1].verifying_key(),
            Rating::High,
            7,
        ));
        let report = g.converge();
        assert_eq!(report.mode, ConvergeMode::Incremental);
        assert_eq!(report.rows_rebuilt, 1, "only k2's row changed");
        assert!(report.drift_bound > 0);
        // Clean convergence afterwards is free.
        let clean = g.converge();
        assert_eq!(clean.mode, ConvergeMode::Clean);
        assert_eq!(clean.iterations, 0);
    }

    #[test]
    fn epsilon_loosens_termination() {
        let (mut g, _) = small_web();
        let exact = g.converge();
        let mut loose = {
            let (mut h, _) = small_web();
            h.set_epsilon(ONE / 1000);
            h
        };
        let report = loose.converge();
        assert!(report.converged);
        assert!(report.iterations < exact.iterations);
    }

    #[test]
    fn root_seeding_changes_pretrust_and_forces_full() {
        let (mut g, ks) = small_web();
        g.converge();
        g.seed_root(&ks[3].verifying_key().to_bytes());
        let report = g.converge();
        assert_eq!(report.mode, ConvergeMode::Full);
    }
}
