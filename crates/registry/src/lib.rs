//! A deterministic, content-addressed component registry with a
//! certification pipeline.
//!
//! The paper's component ecosystem (§III) presumes a trusted
//! distribution channel: components arrive as manifest-described images
//! and the composer instantiates them with only the declared channels —
//! but nothing in PRs 1–2 said *which* images deserve to be spawned at
//! all. This crate is that missing layer:
//!
//! * **Content-addressed store** — images are keyed by their measurement
//!   digest, the same `Digest::of_parts("lateral.domain.image", image)`
//!   every substrate reports at spawn, so the name a composer resolves
//!   and the measurement an attester verifies are one value.
//! * **Signed publisher manifests** ([`manifest`]) — a strict,
//!   no-partial-acceptance submission format signed with
//!   `lateral_crypto::sign`, optionally endorsed by a registry root.
//! * **Certification pipeline** ([`pipeline`]) — ordered static passes
//!   (publisher chain, POLA lint, TCB budget, and — when a
//!   `lateral-wot` trust graph is attached — the `wot-threshold`
//!   review-score gate) producing a [`CertificationReport`] that is
//!   **memoized** per (digest, pass-set version, trust epoch), with
//!   hit/miss counters in [`RegistryStats`].
//! * **Web of trust** — [`Registry::attach_wot`] replaces the single
//!   publisher chain as the admission authority: many parties' signed
//!   review proofs aggregate into a deterministic EigenTrust score,
//!   and a digest below the threshold in force is refused at
//!   resolution and demoted for running instances
//!   ([`Registry::wot_demoted`]).
//! * **Revocation** — a digest can be revoked with a reason; resolution
//!   refuses it, the supervisor quarantines running instances, and
//!   channel policies reject its attestation evidence over the network.
//! * **Deterministic trace** — every operation appends a fixed-width
//!   record to a bounded ring ([`Registry::trace_bytes`]); two identical
//!   runs produce byte-identical traces, which E11 asserts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod pipeline;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;

use lateral_crypto::sign::VerifyingKey;
use lateral_crypto::Digest;
use lateral_telemetry::MetricsRegistry;
use lateral_wot::{Proof, TrustGraph};

pub use manifest::{ChannelSpec, Endorsement, ManifestDraft, SignedManifest};
pub use pipeline::{
    CertificationReport, PassResult, PassVerdict, WotCheck, PASS_SET_VERSION, WOT_PASS,
};

/// Computes the measurement digest a substrate would report for
/// `image` — the registry's content address. Kept in lock-step with
/// `DomainSpec::measurement` in `lateral-substrate` (same domain tag),
/// without depending on that crate.
pub fn measurement_of(image: &[u8]) -> Digest {
    Digest::of_parts(&[b"lateral.domain.image", image])
}

/// Errors from registry operations.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum RegistryError {
    /// A submission failed to parse.
    Decode(String),
    /// A signature or endorsement failed to verify.
    Signature(String),
    /// The submitted image does not hash to the manifest's digest.
    DigestMismatch {
        /// Digest the manifest claims.
        claimed: Digest,
        /// Digest the image actually measures to.
        actual: Digest,
    },
    /// No image/component under that key.
    NotFound(String),
    /// The digest failed certification; carries the first failing pass.
    Uncertified {
        /// The digest that failed.
        digest: Digest,
        /// Name of the first failing pass.
        pass: String,
        /// Why it failed.
        reason: String,
    },
    /// The digest has been revoked.
    Revoked {
        /// The revoked digest.
        digest: Digest,
        /// Reason recorded at revocation time.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Decode(r) => write!(f, "manifest decode: {r}"),
            RegistryError::Signature(r) => write!(f, "signature: {r}"),
            RegistryError::DigestMismatch { claimed, actual } => write!(
                f,
                "digest mismatch: manifest claims {} but image measures {}",
                claimed.short_hex(),
                actual.short_hex()
            ),
            RegistryError::NotFound(r) => write!(f, "not found: {r}"),
            RegistryError::Uncertified {
                digest,
                pass,
                reason,
            } => write!(
                f,
                "image {} is not certified: pass '{pass}' failed: {reason}",
                digest.short_hex()
            ),
            RegistryError::Revoked { digest, reason } => {
                write!(f, "image {} is revoked: {reason}", digest.short_hex())
            }
        }
    }
}

impl Error for RegistryError {}

/// Aggregate counters as [`Registry::stats`] read them from the
/// registry's metrics — a view, as the fabric engine's `FabricStats` is.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct RegistryStats {
    /// Images accepted into the store.
    pub published: u64,
    /// Certification requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Certification requests that ran the pipeline.
    pub cache_misses: u64,
    /// Resolutions that handed out an image.
    pub resolves: u64,
    /// Resolutions refused (uncertified, revoked, or unknown).
    pub refusals: u64,
    /// Digests revoked so far.
    pub revocations: u64,
    /// Web-of-trust proofs ingested through the registry.
    pub wot_proofs: u64,
}

impl RegistryStats {
    /// Cache hits as a fraction of all certification requests
    /// (0.0 when none were made).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// An owned copy of the counters as they stand now — the value to
    /// keep when the registry will keep serving (later operations would
    /// show through a borrow).
    #[must_use]
    pub fn snapshot(&self) -> RegistryStats {
        self.clone()
    }
}

impl fmt::Display for RegistryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "published={} hits={} misses={} resolves={} refusals={} revocations={} wot_proofs={}",
            self.published,
            self.cache_hits,
            self.cache_misses,
            self.resolves,
            self.refusals,
            self.revocations,
            self.wot_proofs
        )
    }
}

/// Operation codes in the deterministic trace (append-only; codes are
/// never renumbered).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TraceOp {
    /// An image was published.
    Publish = 0,
    /// Certification ran the pipeline (aux = 1 if certified).
    CertifyRun = 1,
    /// Certification was answered from the verdict cache.
    CertifyHit = 2,
    /// A digest was revoked.
    Revoke = 3,
    /// A resolution handed out an image.
    ResolveOk = 4,
    /// A resolution was refused (aux encodes the refusal class).
    ResolveRefused = 5,
    /// A web-of-trust proof was ingested (digest = proof id, aux = new
    /// trust epoch).
    WotIngest = 6,
}

/// One fixed-width trace record: `(seq, op, digest, aux)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Monotone per-registry sequence number.
    pub seq: u64,
    /// What happened.
    pub op: TraceOp,
    /// The digest the operation concerned (ZERO when unknown).
    pub digest: Digest,
    /// Operation-specific detail (certified flag, refusal class, …).
    pub aux: u64,
}

/// Encoded size of one trace record.
pub const TRACE_EVENT_LEN: usize = 8 + 1 + 32 + 8;

impl TraceEvent {
    /// Appends the canonical 49-byte little-endian encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.op as u8);
        out.extend_from_slice(self.digest.as_bytes());
        out.extend_from_slice(&self.aux.to_le_bytes());
    }
}

/// Refusal classes recorded in [`TraceOp::ResolveRefused`] aux values.
pub mod refusal {
    /// The name or digest is unknown.
    pub const UNKNOWN: u64 = 1;
    /// The digest failed certification.
    pub const UNCERTIFIED: u64 = 2;
    /// The digest is revoked.
    pub const REVOKED: u64 = 3;
}

/// A successfully resolved image, ready to hand to a composer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedImage {
    /// Component name the image serves.
    pub component: String,
    /// Measurement digest (content address).
    pub digest: Digest,
    /// The image bytes.
    pub image: Vec<u8>,
    /// Publisher verifying key from the certified manifest.
    pub publisher: [u8; 32],
}

struct ImageEntry {
    image: Vec<u8>,
    manifest: SignedManifest,
}

/// Bound on the trace ring, mirroring the fabric engine's discipline.
const TRACE_CAPACITY: usize = 4096;

/// The registry: content-addressed image store, memoized certification,
/// and revocation.
///
/// ```
/// use lateral_crypto::sign::SigningKey;
/// use lateral_registry::{ManifestDraft, Registry};
///
/// # fn main() -> Result<(), lateral_registry::RegistryError> {
/// let mut reg = Registry::new("doc");
/// let publisher = SigningKey::from_seed(b"publisher");
/// reg.trust_root(&publisher.verifying_key());
/// let image = b"frobnicator v1";
/// let manifest = ManifestDraft::new("frobnicator", image).sign(&publisher, None);
/// let digest = reg.publish(image, manifest)?;
/// let resolved = reg.resolve("frobnicator")?;
/// assert_eq!(resolved.digest, digest);
/// assert_eq!(resolved.image, image);
/// reg.revoke(digest, "key ceremony compromised")?;
/// assert!(reg.resolve("frobnicator").is_err());
/// # Ok(())
/// # }
/// ```
pub struct Registry {
    name: String,
    roots: BTreeSet<[u8; 32]>,
    substrate_classes: Vec<(String, u64)>,
    images: BTreeMap<Digest, ImageEntry>,
    by_name: BTreeMap<String, Digest>,
    verdicts: BTreeMap<(Digest, u32, u64), CertificationReport>,
    revoked: BTreeMap<Digest, String>,
    wot: Option<TrustGraph>,
    wot_default_threshold_milli: i64,
    wot_assembly_threshold_milli: Option<i64>,
    metrics: MetricsRegistry,
    trace: VecDeque<TraceEvent>,
    next_seq: u64,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Registry('{}', {} images, {} revoked)",
            self.name,
            self.images.len(),
            self.revoked.len()
        )
    }
}

impl Registry {
    /// Creates an empty registry with no trusted roots and no substrate
    /// classes (the TCB-budget pass is then vacuous — add classes with
    /// [`Registry::with_substrate_class`]).
    pub fn new(name: &str) -> Registry {
        Registry {
            name: name.to_string(),
            roots: BTreeSet::new(),
            substrate_classes: Vec::new(),
            images: BTreeMap::new(),
            by_name: BTreeMap::new(),
            verdicts: BTreeMap::new(),
            revoked: BTreeMap::new(),
            wot: None,
            wot_default_threshold_milli: 0,
            wot_assembly_threshold_milli: None,
            metrics: MetricsRegistry::new(),
            trace: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// The registry's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Trusts `root` to publish directly and to endorse publishers.
    pub fn trust_root(&mut self, root: &VerifyingKey) {
        self.roots.insert(root.to_bytes());
    }

    /// Adds a substrate class `(name, substrate TCB lines)` to the
    /// TCB-budget accounting. Changing the class table invalidates the
    /// verdict cache — earlier reports were produced against different
    /// inputs.
    #[must_use]
    pub fn with_substrate_class(mut self, class: &str, tcb_loc: u64) -> Registry {
        self.substrate_classes.push((class.to_string(), tcb_loc));
        self.verdicts.clear();
        self
    }

    /// Publishes `image` under `manifest`. Content addressing is
    /// enforced here: the image must hash to the manifest's digest.
    /// Publishing is idempotent per digest; the component name maps to
    /// the *latest* published digest. Certification is lazy — it runs
    /// (memoized) at first resolution or explicit
    /// [`Registry::certify`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::DigestMismatch`] when the bytes do not match the
    /// manifest.
    pub fn publish(
        &mut self,
        image: &[u8],
        manifest: SignedManifest,
    ) -> Result<Digest, RegistryError> {
        let actual = measurement_of(image);
        if actual != manifest.digest {
            return Err(RegistryError::DigestMismatch {
                claimed: manifest.digest,
                actual,
            });
        }
        let digest = manifest.digest;
        self.by_name.insert(manifest.component.clone(), digest);
        self.images.insert(
            digest,
            ImageEntry {
                image: image.to_vec(),
                manifest,
            },
        );
        self.metrics.incr("registry.published", 1);
        self.record(TraceOp::Publish, digest, 0);
        Ok(digest)
    }

    /// Attaches a web-of-trust graph: certification gains the fourth
    /// `wot-threshold` pass, admitting a digest only when its
    /// aggregated review score clears the threshold in force
    /// (`default_threshold_milli` unless an assembly declared its own
    /// via [`Registry::set_wot_threshold`]). Replaces any previously
    /// attached graph and invalidates the verdict cache.
    pub fn attach_wot(&mut self, graph: TrustGraph, default_threshold_milli: i64) {
        self.wot = Some(graph);
        self.wot_default_threshold_milli = default_threshold_milli;
        self.verdicts.clear();
    }

    /// The attached trust graph, for direct inspection. Prefer
    /// [`Registry::ingest_proof`] for mutation — it traces the ingest
    /// and keeps the epoch-keyed verdict cache honest.
    pub fn wot_graph_mut(&mut self) -> Option<&mut TrustGraph> {
        self.wot.as_mut()
    }

    /// The current trust epoch (0 while no graph is attached). Folded
    /// into the verdict-cache key, so every applied proof invalidates
    /// cached verdicts wholesale.
    pub fn wot_epoch(&self) -> u64 {
        self.wot.as_ref().map_or(0, TrustGraph::epoch)
    }

    /// Declares the admission threshold of the assembly being composed
    /// (`None` falls back to the registry default). Changing the value
    /// in force invalidates the verdict cache — thresholds are pipeline
    /// inputs that are not part of the cache key.
    pub fn set_wot_threshold(&mut self, threshold_milli: Option<i64>) {
        if self.wot_assembly_threshold_milli != threshold_milli {
            self.wot_assembly_threshold_milli = threshold_milli;
            self.verdicts.clear();
        }
    }

    /// The admission threshold currently in force, in milli-units.
    pub fn wot_threshold_milli(&self) -> i64 {
        self.wot_assembly_threshold_milli
            .unwrap_or(self.wot_default_threshold_milli)
    }

    /// Ingests a web-of-trust proof into the attached graph, tracing
    /// the operation. An applied proof bumps the trust epoch, which
    /// retires every cached verdict.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] when no graph is attached;
    /// [`RegistryError::Signature`] / [`RegistryError::Decode`] when
    /// the graph refuses the proof.
    pub fn ingest_proof(
        &mut self,
        proof: &Proof,
    ) -> Result<lateral_wot::IngestOutcome, RegistryError> {
        let Some(graph) = self.wot.as_mut() else {
            return Err(RegistryError::NotFound("no trust graph attached".into()));
        };
        let outcome = graph.ingest(proof).map_err(|e| match e {
            lateral_wot::WotError::Signature(r) => RegistryError::Signature(r),
            other => RegistryError::Decode(other.to_string()),
        })?;
        let epoch = graph.epoch();
        self.metrics.incr("registry.wot_proofs", 1);
        self.record(TraceOp::WotIngest, proof.id(), epoch);
        Ok(outcome)
    }

    /// Whether `digest`'s review score has fallen below the threshold
    /// in force — the supervisor's health-tick demotion check. Always
    /// `false` while no graph is attached.
    pub fn wot_demoted(&mut self, digest: Digest) -> bool {
        let threshold = self.wot_threshold_milli();
        match self.wot.as_mut() {
            Some(graph) => graph.subject_score_milli(digest) < threshold,
            None => false,
        }
    }

    /// Certifies `digest`, answering from the verdict cache when a
    /// report for (digest, [`PASS_SET_VERSION`], trust epoch) exists.
    /// The trust-epoch component means a score change — a distrust
    /// wave, a revoked endorsement — can never be served a stale
    /// `certified` verdict.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] for unknown digests. A *failing*
    /// report is returned as `Ok` — refusal semantics live in
    /// [`Registry::resolve`].
    pub fn certify(&mut self, digest: Digest) -> Result<CertificationReport, RegistryError> {
        if !self.images.contains_key(&digest) {
            return Err(RegistryError::NotFound(format!(
                "digest {}",
                digest.short_hex()
            )));
        }
        let key = (digest, PASS_SET_VERSION, self.wot_epoch());
        if let Some(report) = self.verdicts.get(&key) {
            let report = report.clone();
            self.metrics.incr("registry.cache_hits", 1);
            self.record(TraceOp::CertifyHit, digest, u64::from(report.certified));
            return Ok(report);
        }
        let threshold_milli = self.wot_threshold_milli();
        let wot_check = self.wot.as_mut().map(|graph| WotCheck {
            score_milli: graph.subject_score_milli(digest),
            threshold_milli,
        });
        let entry = &self.images[&digest];
        let report = pipeline::run_pipeline(
            &entry.manifest,
            &self.roots,
            &self.substrate_classes,
            wot_check,
        );
        self.verdicts.insert(key, report.clone());
        self.metrics.incr("registry.cache_misses", 1);
        self.record(TraceOp::CertifyRun, digest, u64::from(report.certified));
        Ok(report)
    }

    /// Revokes `digest` with `reason`. Idempotent; the first reason
    /// sticks.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] for digests never published.
    pub fn revoke(&mut self, digest: Digest, reason: &str) -> Result<(), RegistryError> {
        if !self.images.contains_key(&digest) {
            return Err(RegistryError::NotFound(format!(
                "digest {}",
                digest.short_hex()
            )));
        }
        if self.revoked.contains_key(&digest) {
            return Ok(());
        }
        self.revoked.insert(digest, reason.to_string());
        self.metrics.incr("registry.revocations", 1);
        self.record(TraceOp::Revoke, digest, 0);
        Ok(())
    }

    /// Whether `digest` is revoked.
    pub fn is_revoked(&self, digest: Digest) -> bool {
        self.revoked.contains_key(&digest)
    }

    /// Every revoked digest as raw bytes — the denylist handed to
    /// `lateral_net` channel policies.
    pub fn revoked_digests(&self) -> Vec<[u8; 32]> {
        self.revoked.keys().map(|d| d.0).collect()
    }

    /// The revocation epoch: a monotone count of revocations. Folded
    /// into remote session epochs, so any revocation landing after a
    /// resumption ticket was minted forces a fresh attestation
    /// handshake instead of a silent resume.
    pub fn revocation_epoch(&self) -> u64 {
        self.revoked.len() as u64
    }

    /// Raw content-addressed lookup: the stored bytes for `digest`,
    /// certification and revocation **unchecked** — this is what an
    /// untrusted mirror serves. Fetchers verify the measurement
    /// themselves and consult the authoritative registry for policy.
    pub fn image_bytes(&self, digest: Digest) -> Option<Vec<u8>> {
        self.images.get(&digest).map(|e| e.image.clone())
    }

    /// Resolves the latest published image for `component`, refusing
    /// uncertified and revoked digests.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] / [`RegistryError::Uncertified`] /
    /// [`RegistryError::Revoked`].
    pub fn resolve(&mut self, component: &str) -> Result<ResolvedImage, RegistryError> {
        let Some(digest) = self.by_name.get(component).copied() else {
            self.metrics.incr("registry.refusals", 1);
            self.record(TraceOp::ResolveRefused, Digest::ZERO, refusal::UNKNOWN);
            return Err(RegistryError::NotFound(format!("component '{component}'")));
        };
        self.resolve_digest(digest)
    }

    /// Resolves an exact digest, refusing uncertified and revoked ones.
    ///
    /// # Errors
    ///
    /// Same as [`Registry::resolve`].
    pub fn resolve_digest(&mut self, digest: Digest) -> Result<ResolvedImage, RegistryError> {
        if let Some(reason) = self.revoked.get(&digest).cloned() {
            self.metrics.incr("registry.refusals", 1);
            self.record(TraceOp::ResolveRefused, digest, refusal::REVOKED);
            return Err(RegistryError::Revoked { digest, reason });
        }
        if !self.images.contains_key(&digest) {
            self.metrics.incr("registry.refusals", 1);
            self.record(TraceOp::ResolveRefused, digest, refusal::UNKNOWN);
            return Err(RegistryError::NotFound(format!(
                "digest {}",
                digest.short_hex()
            )));
        }
        let report = self.certify(digest)?;
        if !report.certified {
            let (pass, reason) = report.first_failure().expect("uncertified has a failure");
            let (pass, reason) = (pass.to_string(), reason.to_string());
            self.metrics.incr("registry.refusals", 1);
            self.record(TraceOp::ResolveRefused, digest, refusal::UNCERTIFIED);
            return Err(RegistryError::Uncertified {
                digest,
                pass,
                reason,
            });
        }
        let entry = &self.images[&digest];
        let resolved = ResolvedImage {
            component: entry.manifest.component.clone(),
            digest,
            image: entry.image.clone(),
            publisher: entry.manifest.publisher,
        };
        self.metrics.incr("registry.resolves", 1);
        self.record(TraceOp::ResolveOk, digest, 0);
        Ok(resolved)
    }

    /// Aggregate counters, rebuilt from the unified metrics registry
    /// (the single source of truth since the telemetry layer landed).
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            published: self.metrics.counter("registry.published"),
            cache_hits: self.metrics.counter("registry.cache_hits"),
            cache_misses: self.metrics.counter("registry.cache_misses"),
            resolves: self.metrics.counter("registry.resolves"),
            refusals: self.metrics.counter("registry.refusals"),
            revocations: self.metrics.counter("registry.revocations"),
            wot_proofs: self.metrics.counter("registry.wot_proofs"),
        }
    }

    /// The unified metrics registry behind [`Registry::stats`] —
    /// experiments aggregate it with the fabric's collector for a
    /// node-wide metrics table.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The trace ring, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEvent> {
        self.trace.iter()
    }

    /// Canonical byte encoding of the trace ring — byte-identical
    /// across identical runs (the E11 determinism gate).
    pub fn trace_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.trace.len() * TRACE_EVENT_LEN);
        for ev in &self.trace {
            ev.encode_into(&mut out);
        }
        out
    }

    fn record(&mut self, op: TraceOp, digest: Digest, aux: u64) {
        if self.trace.len() == TRACE_CAPACITY {
            self.trace.pop_front();
        }
        self.trace.push_back(TraceEvent {
            seq: self.next_seq,
            op,
            digest,
            aux,
        });
        self.next_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lateral_crypto::sign::SigningKey;

    fn registry_with_root(seed: &[u8]) -> (Registry, SigningKey) {
        let key = SigningKey::from_seed(seed);
        let mut reg = Registry::new("test");
        reg.trust_root(&key.verifying_key());
        (reg, key)
    }

    #[test]
    fn publish_resolve_round_trip() {
        let (mut reg, key) = registry_with_root(b"root");
        let image = b"svc v1";
        let digest = reg
            .publish(image, ManifestDraft::new("svc", image).sign(&key, None))
            .unwrap();
        let r = reg.resolve("svc").unwrap();
        assert_eq!(r.digest, digest);
        assert_eq!(r.image, image);
        assert_eq!(r.component, "svc");
        assert_eq!(reg.stats().resolves, 1);
    }

    #[test]
    fn digest_mismatch_refused_at_publish() {
        let (mut reg, key) = registry_with_root(b"root");
        let manifest = ManifestDraft::new("svc", b"real image").sign(&key, None);
        let err = reg.publish(b"different bytes", manifest).unwrap_err();
        assert!(matches!(err, RegistryError::DigestMismatch { .. }));
        assert_eq!(reg.stats().published, 0);
    }

    #[test]
    fn verdict_cache_hits_on_repeat() {
        let (mut reg, key) = registry_with_root(b"root");
        let image = b"svc v1";
        let digest = reg
            .publish(image, ManifestDraft::new("svc", image).sign(&key, None))
            .unwrap();
        let first = reg.certify(digest).unwrap();
        let second = reg.certify(digest).unwrap();
        assert_eq!(first, second);
        let stats = reg.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.hit_ratio() > 0.0);
        // Resolution also rides the cache.
        reg.resolve("svc").unwrap();
        assert_eq!(reg.stats().cache_hits, 2);
    }

    #[test]
    fn uncertified_image_refused_at_resolve() {
        let (mut reg, _key) = registry_with_root(b"root");
        let stranger = SigningKey::from_seed(b"stranger");
        let image = b"rogue v1";
        reg.publish(
            image,
            ManifestDraft::new("rogue", image).sign(&stranger, None),
        )
        .unwrap();
        let err = reg.resolve("rogue").unwrap_err();
        assert!(matches!(err, RegistryError::Uncertified { .. }), "{err}");
        assert_eq!(reg.stats().refusals, 1);
    }

    #[test]
    fn revoked_image_refused_and_listed() {
        let (mut reg, key) = registry_with_root(b"root");
        let image = b"svc v1";
        let digest = reg
            .publish(image, ManifestDraft::new("svc", image).sign(&key, None))
            .unwrap();
        reg.resolve("svc").unwrap();
        reg.revoke(digest, "private key leaked").unwrap();
        reg.revoke(digest, "second reason ignored").unwrap();
        assert!(reg.is_revoked(digest));
        assert_eq!(reg.revoked_digests(), vec![digest.0]);
        assert_eq!(reg.stats().revocations, 1);
        let err = reg.resolve("svc").unwrap_err();
        assert!(matches!(err, RegistryError::Revoked { .. }));
        match err {
            RegistryError::Revoked { reason, .. } => assert_eq!(reason, "private key leaked"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn revoking_unknown_digest_fails() {
        let (mut reg, _) = registry_with_root(b"root");
        assert!(matches!(
            reg.revoke(Digest::of(b"ghost"), "nope"),
            Err(RegistryError::NotFound(_))
        ));
    }

    #[test]
    fn newer_publish_supersedes_by_name() {
        let (mut reg, key) = registry_with_root(b"root");
        let d1 = reg
            .publish(
                b"svc v1",
                ManifestDraft::new("svc", b"svc v1").sign(&key, None),
            )
            .unwrap();
        let d2 = reg
            .publish(
                b"svc v2",
                ManifestDraft::new("svc", b"svc v2").sign(&key, None),
            )
            .unwrap();
        assert_ne!(d1, d2);
        assert_eq!(reg.resolve("svc").unwrap().digest, d2);
        // The superseded digest remains addressable by content.
        assert_eq!(reg.resolve_digest(d1).unwrap().digest, d1);
        // Revoking v2 does not block an explicit fallback to v1.
        reg.revoke(d2, "bad release").unwrap();
        assert!(reg.resolve("svc").is_err());
        assert!(reg.resolve_digest(d1).is_ok());
    }

    #[test]
    fn trace_is_deterministic_and_bounded() {
        let run = || {
            let (mut reg, key) = registry_with_root(b"root");
            let image = b"svc v1";
            let digest = reg
                .publish(image, ManifestDraft::new("svc", image).sign(&key, None))
                .unwrap();
            reg.resolve("svc").unwrap();
            reg.resolve("svc").unwrap();
            reg.revoke(digest, "drill").unwrap();
            let _ = reg.resolve("svc");
            reg.trace_bytes()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "identical runs must trace identically");
        assert!(!a.is_empty());
        assert_eq!(a.len() % TRACE_EVENT_LEN, 0);
    }

    /// A registry whose wot gate is live: `reviewer` is the seeded
    /// trust root of the attached graph.
    fn registry_with_wot(threshold_milli: i64) -> (Registry, SigningKey, SigningKey) {
        let (mut reg, publisher) = registry_with_root(b"root");
        let reviewer = SigningKey::from_seed(b"reviewer root");
        let mut graph = lateral_wot::TrustGraph::new();
        graph.seed_root(&reviewer.verifying_key().to_bytes());
        reg.attach_wot(graph, threshold_milli);
        (reg, publisher, reviewer)
    }

    #[test]
    fn wot_pass_gates_resolution_on_review_score() {
        use lateral_wot::{Proof, Rating, ReviewProof};
        let (mut reg, publisher, reviewer) = registry_with_wot(100);
        let image = b"svc v1";
        let digest = reg
            .publish(
                image,
                ManifestDraft::new("svc", image).sign(&publisher, None),
            )
            .unwrap();
        // Unreviewed: score 0 < 100 milli, refused by the wot pass.
        let err = reg.resolve("svc").unwrap_err();
        match err {
            RegistryError::Uncertified { pass, .. } => assert_eq!(pass, WOT_PASS),
            other => panic!("expected wot refusal, got {other}"),
        }
        // A positive review from the seeded root clears the threshold.
        let review = ReviewProof::issue(&reviewer, digest, Rating::High, 1);
        reg.ingest_proof(&Proof::Review(review)).unwrap();
        reg.resolve("svc").unwrap();
        assert!(!reg.wot_demoted(digest));
        assert_eq!(reg.stats().wot_proofs, 1);
    }

    /// The satellite bugfix regression: a verdict cache keyed only on
    /// (digest, pass-set version) would keep serving `certified` after
    /// a distrust wave. The trust-epoch key component forces a miss.
    #[test]
    fn distrust_wave_cannot_be_served_a_stale_verdict() {
        use lateral_wot::{Proof, Rating, ReviewProof};
        let (mut reg, publisher, reviewer) = registry_with_wot(100);
        let image = b"svc v1";
        let digest = reg
            .publish(
                image,
                ManifestDraft::new("svc", image).sign(&publisher, None),
            )
            .unwrap();
        let review = ReviewProof::issue(&reviewer, digest, Rating::High, 1);
        reg.ingest_proof(&Proof::Review(review)).unwrap();
        assert!(reg.certify(digest).unwrap().certified);
        // Same epoch: answered from the cache.
        assert!(reg.certify(digest).unwrap().certified);
        assert_eq!(reg.stats().cache_hits, 1);
        let misses_before = reg.stats().cache_misses;
        // The reviewer recants at a later epoch: the score collapses.
        let wave = ReviewProof::issue(&reviewer, digest, Rating::Distrust, 2);
        reg.ingest_proof(&Proof::Review(wave)).unwrap();
        let report = reg.certify(digest).unwrap();
        assert_eq!(
            reg.stats().cache_misses,
            misses_before + 1,
            "epoch change must miss the verdict cache"
        );
        assert!(!report.certified, "distrusted digest must fail");
        assert_eq!(report.first_failure().unwrap().0, WOT_PASS);
        assert!(reg.wot_demoted(digest));
        assert!(matches!(
            reg.resolve("svc").unwrap_err(),
            RegistryError::Uncertified { .. }
        ));
    }

    #[test]
    fn assembly_threshold_overrides_default_and_invalidates_cache() {
        use lateral_wot::{Proof, Rating, ReviewProof};
        let (mut reg, publisher, reviewer) = registry_with_wot(100);
        let image = b"svc v1";
        let digest = reg
            .publish(
                image,
                ManifestDraft::new("svc", image).sign(&publisher, None),
            )
            .unwrap();
        let review = ReviewProof::issue(&reviewer, digest, Rating::Trust, 1);
        reg.ingest_proof(&Proof::Review(review)).unwrap();
        assert!(reg.certify(digest).unwrap().certified);
        // A stricter per-assembly threshold refuses the same score —
        // and must not be answered from the old threshold's cache.
        reg.set_wot_threshold(Some(1_000_000));
        assert!(!reg.certify(digest).unwrap().certified);
        reg.set_wot_threshold(None);
        assert!(reg.certify(digest).unwrap().certified);
    }

    #[test]
    fn tcb_budget_classes_gate_certification() {
        let key = SigningKey::from_seed(b"root");
        let mut reg = Registry::new("budget").with_substrate_class("monolith", 20_000_000);
        reg.trust_root(&key.verifying_key());
        let image = b"svc v1";
        reg.publish(
            image,
            ManifestDraft::new("svc", image)
                .loc(500)
                .budget(100_000)
                .sign(&key, None),
        )
        .unwrap();
        let err = reg.resolve("svc").unwrap_err();
        match err {
            RegistryError::Uncertified { pass, .. } => assert_eq!(pass, "tcb-budget"),
            other => panic!("expected uncertified, got {other}"),
        }
    }
}
