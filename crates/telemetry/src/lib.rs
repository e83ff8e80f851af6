//! Unified causal telemetry: deterministic spans, cross-channel trace
//! propagation, and a metrics registry.
//!
//! Every layer of the reproduction already keeps some private trace —
//! the fabric's crossing ring, the registry's operation log, the
//! supervisor's restart counters — but none of them can answer the
//! question the paper's trust story actually raises: *which* composed
//! invocation caused *that* remote attestation check? This crate is the
//! shared answer:
//!
//! * **Causal spans** ([`Span`], [`Telemetry`]) — intervals on the
//!   deterministic logical clock with explicit parent/child links, so a
//!   `compose → grant → invoke → seal → respawn` flow is one tree. Span
//!   and trace ids are allocated from per-[`Telemetry`] counters (never
//!   wall time, never randomness), so two runs of the same scenario
//!   produce byte-identical trees.
//! * **Trace propagation** ([`TraceContext`]) — an 18-byte strict codec
//!   that rides inside sealed channel records, so the serving side of a
//!   remote call adopts the caller's trace instead of starting a
//!   disconnected one. Decoding is all-or-nothing: wrong length, wrong
//!   magic, wrong version, or a zero trace id are rejected, never
//!   half-accepted.
//! * **Metrics registry** ([`MetricsRegistry`]) — named counters and
//!   fixed-bucket logical-tick histograms ([`Histogram`]) replacing the
//!   scattered per-layer counters with one registry the old accessors
//!   are rebuilt from.
//! * **Deterministic exporter** — fixed-width renderers
//!   ([`Telemetry::render_tree`], [`MetricsRegistry::render`]) and
//!   canonical digests ([`Telemetry::tree_digest`]). The tree digest
//!   covers only *shape* — depth, layer, name, outcome — and excludes
//!   timestamps and crossing costs, so it is invariant across backends
//!   whose crossings cost differently (E12 asserts exactly this).

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use lateral_crypto::Digest;

pub mod profile;

/// Spans retained in the closed-span ring before the oldest is dropped.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

/// Errors from the telemetry layer (today: only codec rejection).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TelemetryError {
    /// A [`TraceContext`] wire blob was malformed and was rejected
    /// whole.
    Codec,
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Codec => write!(f, "malformed trace-context encoding"),
        }
    }
}

impl Error for TelemetryError {}

/// Identifies one span within its [`Telemetry`]. Zero means "no span"
/// (a root's parent); real ids are allocated from 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SpanId(pub u64);

/// Stable handle to a span name interned in a [`Telemetry`] (see
/// [`Telemetry::intern`]). Every [`Span`] carries one in place of its
/// text; opening a span through a label
/// ([`Telemetry::begin_span_label`]) skips even the interner lookup, so
/// the hot invocation paths never format, look up or allocate a name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct LabelId(u32);

/// Stable handle to a counter registered in a [`MetricsRegistry`]
/// (see [`MetricsRegistry::counter_id`]). Incrementing through the
/// handle is a plain vector index — no allocation, no map lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(u32);

/// Stable handle to a histogram registered in a [`MetricsRegistry`]
/// (see [`MetricsRegistry::histogram_id`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HistogramId(u32);

impl SpanId {
    /// The absent span (a trace root's parent).
    pub const NONE: SpanId = SpanId(0);
}

/// The propagated slice of a trace: which trace, and which span in it
/// the next piece of work should hang under. This is what crosses
/// channel and machine boundaries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceContext {
    /// The trace being continued (allocated from 1; 0 never appears on
    /// the wire).
    pub trace_id: u64,
    /// The span the receiver's work is causally under.
    pub parent: SpanId,
}

/// First byte of every encoded [`TraceContext`].
const CTX_MAGIC: u8 = 0xC7;
/// Codec version; bump on any layout change.
const CTX_VERSION: u8 = 0x01;
/// Exact encoded length: magic, version, trace id, parent span id.
pub const CTX_ENCODED_LEN: usize = 18;

impl TraceContext {
    /// Encodes to the fixed 18-byte wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CTX_ENCODED_LEN);
        out.push(CTX_MAGIC);
        out.push(CTX_VERSION);
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.parent.0.to_le_bytes());
        out
    }

    /// Decodes the strict wire form. All-or-nothing: any length, magic,
    /// or version mismatch — or a zero trace id, which no encoder emits
    /// — rejects the whole blob.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Codec`] on any malformation.
    pub fn decode(data: &[u8]) -> Result<TraceContext, TelemetryError> {
        if data.len() != CTX_ENCODED_LEN || data[0] != CTX_MAGIC || data[1] != CTX_VERSION {
            return Err(TelemetryError::Codec);
        }
        let trace_id = u64::from_le_bytes(data[2..10].try_into().expect("length checked"));
        let parent = u64::from_le_bytes(data[10..18].try_into().expect("length checked"));
        if trace_id == 0 {
            return Err(TelemetryError::Codec);
        }
        Ok(TraceContext {
            trace_id,
            parent: SpanId(parent),
        })
    }
}

/// Span outcome codes. These mirror the fabric's `TraceOutcome` codes
/// 0–4 so fabric events map straight through; the codes are append-only
/// and never renumbered.
pub mod outcome {
    /// Completed normally.
    pub const OK: u8 = 0;
    /// Refused: the target domain was already mid-invocation.
    pub const REENTRANCY: u8 = 1;
    /// The operation itself failed.
    pub const FAILED: u8 = 2;
    /// A deterministic fault-injection fired.
    pub const INJECTED: u8 = 3;
    /// The target domain crashed (or was already crashed).
    pub const CRASHED: u8 = 4;

    /// Stable display name for an outcome code.
    #[must_use]
    pub fn name(code: u8) -> &'static str {
        match code {
            OK => "ok",
            REENTRANCY => "reentrancy",
            FAILED => "failed",
            INJECTED => "injected",
            CRASHED => "crashed",
            _ => "unknown",
        }
    }
}

/// One interval on the logical clock, linked to its parent.
///
/// A span names itself by the [`LabelId`] its [`Telemetry`] interned,
/// not by its text, so a span is 64 plain bytes: opening one, closing it
/// and dropping it from a full ring touch no reference count and free
/// nothing. [`Telemetry::span_name`] on the collector that recorded the
/// span resolves the text; a span read from one collector means nothing
/// to another's interner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Span {
    /// This span's id (unique within its [`Telemetry`]).
    pub id: SpanId,
    /// The trace (tree) this span belongs to.
    pub trace_id: u64,
    /// Parent span, or [`SpanId::NONE`] for a trace root. A parent from
    /// a *remote* telemetry (adopted via [`Telemetry::begin_span_in`])
    /// does not resolve locally; the span renders as that trace's local
    /// root.
    pub parent: SpanId,
    /// What the span covers, e.g. `invoke meter`, interned in the
    /// recording collector (see [`Telemetry::span_name`]).
    pub label: LabelId,
    /// Which layer opened it: `fabric`, `channel`, `remote`,
    /// `supervisor`, `compose`, …
    pub layer: &'static str,
    /// Logical-clock tick when the span was opened.
    pub start: u64,
    /// Logical-clock tick when the span was closed (≥ `start`).
    pub end: u64,
    /// Outcome code (see [`outcome`]).
    pub outcome: u8,
}

impl Span {
    /// Logical ticks the span covered.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Upper bucket bounds for [`Histogram`]; the last bucket is overflow.
pub const HISTOGRAM_BOUNDS: [u64; 8] = [1, 4, 16, 64, 256, 1024, 4096, 16384];

/// A fixed-bucket histogram of logical-tick values. Buckets are the
/// powers of four up to 16384 plus one overflow bucket, which covers
/// everything from a free local call to the most expensive late-launch
/// crossing.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let idx = HISTOGRAM_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts, lowest bound first; the final entry is the
    /// overflow bucket.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Deterministic percentile extraction.
    ///
    /// Convention (the one every consumer must share for cross-backend
    /// digests to agree): the percentile-`p` observation is found by its
    /// *rank* `ceil(count * p / 100)` (1-based, so `p = 50` of 4
    /// observations is rank 2), walking buckets in bound order; the
    /// reported value is the **upper bound** of the bucket holding that
    /// rank ([`HISTOGRAM_BOUNDS`]), and the overflow bucket reports
    /// [`Histogram::max`]. Pure integer arithmetic — no floats, no
    /// interpolation — so p50/p99 are byte-identical across backends,
    /// runs, and platforms. An empty histogram reports 0. `p` is
    /// clamped to 1..=100.
    #[must_use]
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(1, 100);
        let rank = (self.count * p).div_ceil(100);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match HISTOGRAM_BOUNDS.get(idx) {
                    Some(&bound) => bound,
                    None => self.max, // overflow bucket
                };
            }
        }
        self.max
    }

    /// Median under the [`Histogram::percentile`] convention.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 99th percentile under the [`Histogram::percentile`] convention.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }

    /// Reconstructs a histogram from its exported parts (the profile
    /// codec's decode side). Strict: the bucket counts must sum to
    /// `count`, and an empty histogram must carry zero `sum` and `max`.
    #[must_use]
    pub fn from_parts(
        buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
        count: u64,
        sum: u64,
        max: u64,
    ) -> Option<Histogram> {
        let mut total = 0u64;
        for &b in &buckets {
            total = total.checked_add(b)?;
        }
        if total != count {
            return None;
        }
        if count == 0 && (sum != 0 || max != 0) {
            return None;
        }
        Some(Histogram {
            buckets,
            count,
            sum,
            max,
        })
    }

    /// Adds another histogram bucket-wise (the same merge
    /// [`MetricsRegistry::absorb`] performs).
    pub fn absorb(&mut self, other: &Histogram) {
        for (m, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *m += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} sum={} max={} buckets=[{}]",
            self.count,
            self.sum,
            self.max,
            self.buckets
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        )
    }
}

/// Named counters and histograms for one layer or one whole node.
///
/// Values live in registration-order vectors addressed by stable
/// handles ([`CounterId`], [`HistogramId`]); a `BTreeMap` name index
/// keeps every read-side surface — iteration, rendering, digesting —
/// in canonical name order regardless of registration order. Recording
/// through a handle touches only the vector, so the fabric's
/// per-invocation counters cost no allocation and no map walk.
#[derive(Clone, Default, Debug)]
pub struct MetricsRegistry {
    counter_index: BTreeMap<Arc<str>, u32>,
    counters: Vec<(Arc<str>, u64)>,
    histogram_index: BTreeMap<Arc<str>, u32>,
    histograms: Vec<(Arc<str>, Histogram)>,
}

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &MetricsRegistry) -> bool {
        // Name-ordered comparison: two registries are equal when they
        // hold the same values, whatever order registration happened in.
        self.counters().eq(other.counters()) && self.histograms().eq(other.histograms())
    }
}

impl Eq for MetricsRegistry {}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or finds) the named counter and returns its stable
    /// handle. Callers on hot paths resolve the handle once and then
    /// increment through [`MetricsRegistry::incr_by_id`].
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.counter_index.get(name) {
            return CounterId(i);
        }
        let arc: Arc<str> = Arc::from(name);
        let i = u32::try_from(self.counters.len()).expect("counter count fits u32");
        self.counters.push((arc.clone(), 0));
        self.counter_index.insert(arc, i);
        CounterId(i)
    }

    /// Adds `by` to the counter behind `id` — a vector index, no
    /// allocation.
    pub fn incr_by_id(&mut self, id: CounterId, by: u64) {
        self.counters[id.0 as usize].1 += by;
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        let id = self.counter_id(name);
        self.incr_by_id(id, by);
    }

    /// Current value of a counter (0 if never registered).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map_or(0, |&i| self.counters[i as usize].1)
    }

    /// Registers (or finds) the named histogram and returns its stable
    /// handle.
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        if let Some(&i) = self.histogram_index.get(name) {
            return HistogramId(i);
        }
        let arc: Arc<str> = Arc::from(name);
        let i = u32::try_from(self.histograms.len()).expect("histogram count fits u32");
        self.histograms.push((arc.clone(), Histogram::default()));
        self.histogram_index.insert(arc, i);
        HistogramId(i)
    }

    /// Records `value` into the histogram behind `id`.
    pub fn observe_by_id(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0 as usize].1.observe(value);
    }

    /// Records `value` into the named histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        let id = self.histogram_id(name);
        self.observe_by_id(id, value);
    }

    /// The named histogram, if it was ever registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_index
            .get(name)
            .map(|&i| &self.histograms[i as usize].1)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_index
            .iter()
            .map(|(name, &i)| (&**name, self.counters[i as usize].1))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_index
            .iter()
            .map(|(name, &i)| (&**name, &self.histograms[i as usize].1))
    }

    /// Merges another registry into this one (counters add, histograms
    /// add bucket-wise) — used to aggregate per-substrate registries
    /// into one node-wide view.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, &i) in &other.counter_index {
            self.incr(name, other.counters[i as usize].1);
        }
        for (name, &i) in &other.histogram_index {
            let hist = &other.histograms[i as usize].1;
            let id = self.histogram_id(name);
            self.histograms[id.0 as usize].1.absorb(hist);
        }
    }

    /// Fixed-width text table of every counter and histogram.
    #[must_use]
    pub fn render(&self) -> String {
        let width = self
            .counter_index
            .keys()
            .chain(self.histogram_index.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (name, value) in self.counters() {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        for (name, hist) in self.histograms() {
            let _ = writeln!(out, "{name:width$}  {hist}");
        }
        out
    }

    /// Digest over every counter and histogram, in canonical order.
    #[must_use]
    pub fn digest(&self) -> Digest {
        Digest::of(self.render().as_bytes())
    }

    /// Digest over the counters selected by `keep` (histograms and the
    /// rejected counters excluded). E12 uses this to project out the
    /// backend-specific series — crossing kinds and costs differ per
    /// substrate — and assert the rest is identical on all six.
    #[must_use]
    pub fn digest_filtered(&self, keep: impl Fn(&str) -> bool) -> Digest {
        let mut canon = String::new();
        for (name, value) in self.counters() {
            if keep(name) {
                let _ = writeln!(canon, "{name}={value}");
            }
        }
        Digest::of(canon.as_bytes())
    }
}

/// One layer's (or one node's) span collector plus its metrics.
///
/// Spans nest through an explicit stack: [`Telemetry::begin_span`]
/// opens a child of the innermost open span (or a new trace root when
/// none is open), and [`Telemetry::end_span`] closes it into the
/// bounded ring. Holders without a substrate clock (remote endpoints)
/// can timestamp from the built-in [`Telemetry::tick`] counter.
#[derive(Clone, Debug)]
pub struct Telemetry {
    capacity: usize,
    next_span: u64,
    next_trace: u64,
    /// Innermost-last stack of open spans, each with its trace id, so a
    /// child opens without looking its parent up.
    stack: Vec<(SpanId, u64)>,
    /// Every open span, stack and linked, in no promised order: the
    /// innermost is last until an out-of-order end swaps another there.
    open: Vec<Span>,
    closed: VecDeque<Span>,
    spans_recorded: u64,
    ticks: u64,
    metrics: MetricsRegistry,
    labels: Vec<Arc<str>>,
    label_index: BTreeMap<Arc<str>, u32>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A collector with the default span ring capacity.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A collector retaining at most `capacity` closed spans.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            capacity: capacity.max(1),
            next_span: 1,
            next_trace: 1,
            stack: Vec::new(),
            open: Vec::new(),
            closed: VecDeque::new(),
            spans_recorded: 0,
            ticks: 0,
            metrics: MetricsRegistry::new(),
            labels: Vec::new(),
            label_index: BTreeMap::new(),
        }
    }

    /// Interns `name`, returning a stable [`LabelId`]. Interning the
    /// same string twice returns the same id; the text is stored once,
    /// and every span opened under the name carries only the id.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&i) = self.label_index.get(name) {
            return LabelId(i);
        }
        let arc: Arc<str> = Arc::from(name);
        let i = u32::try_from(self.labels.len()).expect("label count fits u32");
        self.labels.push(arc.clone());
        self.label_index.insert(arc, i);
        LabelId(i)
    }

    /// The interned string behind `label`.
    #[must_use]
    pub fn label(&self, label: LabelId) -> &str {
        &self.labels[label.0 as usize]
    }

    /// Advances and returns the built-in logical tick, for holders that
    /// have no substrate clock to timestamp from.
    pub fn tick(&mut self) -> u64 {
        self.ticks += 1;
        self.ticks
    }

    /// Opens a span at tick `at`: a child of the innermost open span,
    /// or the root of a fresh trace when none is open. Interns `name`
    /// (see [`Telemetry::intern`]), so names should come from a bounded
    /// set; a hot path interns once and opens through
    /// [`Telemetry::begin_span_label`].
    pub fn begin_span(&mut self, name: &str, layer: &'static str, at: u64) -> SpanId {
        let label = self.intern(name);
        self.begin_span_label(label, layer, at)
    }

    /// [`Telemetry::begin_span`] through an interned label — the hot
    /// path: no lookup, no allocation once the vectors have grown.
    pub fn begin_span_label(&mut self, label: LabelId, layer: &'static str, at: u64) -> SpanId {
        let (trace_id, parent) = match self.stack.last() {
            Some(&(top, trace_id)) => (trace_id, top),
            None => {
                let t = self.next_trace;
                self.next_trace += 1;
                (t, SpanId::NONE)
            }
        };
        self.push_span(trace_id, parent, label, layer, at)
    }

    /// Opens a span *inside a propagated trace*: when no span is open,
    /// the new span adopts `ctx`'s trace and parent, so a remote
    /// request lands in its caller's tree. When a span is already open,
    /// local causality wins and this behaves like
    /// [`Telemetry::begin_span`].
    pub fn begin_span_in(
        &mut self,
        ctx: TraceContext,
        name: &str,
        layer: &'static str,
        at: u64,
    ) -> SpanId {
        let label = self.intern(name);
        match self.stack.last() {
            Some(&(top, trace_id)) => self.push_span(trace_id, top, label, layer, at),
            None => {
                // Keep local trace-id allocation clear of the adopted id
                // so a later local root cannot collide with this trace.
                self.next_trace = self.next_trace.max(ctx.trace_id + 1);
                self.push_span(ctx.trace_id, ctx.parent, label, layer, at)
            }
        }
    }

    /// Opens a span as an explicit **link child** of `ctx` — same trace,
    /// parented on `ctx.parent` — without consulting or joining the
    /// stack. Concurrent in-flight work (a multiplexed session's many
    /// simultaneously open requests) cannot use stack discipline: the
    /// innermost open span at submit time is some *other* request, not
    /// this span's causal parent. A linked span never becomes the
    /// implicit parent of later stack spans; close it with
    /// [`Telemetry::end_span`] like any other.
    pub fn begin_span_linked(
        &mut self,
        ctx: TraceContext,
        name: &str,
        layer: &'static str,
        at: u64,
    ) -> SpanId {
        // Keep local trace-id allocation clear of the linked id so a
        // later local root cannot collide with this trace.
        self.next_trace = self.next_trace.max(ctx.trace_id + 1);
        let label = self.intern(name);
        self.open_span(ctx.trace_id, ctx.parent, label, layer, at)
    }

    /// Records an already-finished event as a zero-or-more-tick span
    /// under the innermost open span, without touching the stack.
    pub fn instant(&mut self, name: &str, layer: &'static str, at: u64, outcome: u8) -> SpanId {
        let id = self.begin_span(name, layer, at);
        self.end_span(id, at, outcome);
        id
    }

    /// [`Telemetry::instant`] through an interned label (allocation-free).
    pub fn instant_label(
        &mut self,
        label: LabelId,
        layer: &'static str,
        at: u64,
        outcome: u8,
    ) -> SpanId {
        let id = self.begin_span_label(label, layer, at);
        self.end_span(id, at, outcome);
        id
    }

    /// Closes `id` at tick `at` with `outcome`, moving it into the
    /// ring. Unknown ids are ignored (the span may have been dropped by
    /// a full ring of a smaller collector it was forwarded to).
    ///
    /// Closing the innermost span — the last one opened — costs no
    /// search: both lists are scanned from their ends. Only an
    /// out-of-order end, such as a multiplexed session's request spans
    /// finishing in reply order, searches further.
    pub fn end_span(&mut self, id: SpanId, at: u64, outcome: u8) {
        let Some(idx) = self.open.iter().rposition(|s| s.id == id) else {
            return;
        };
        let mut span = self.open.swap_remove(idx);
        span.end = at.max(span.start);
        span.outcome = outcome;
        if let Some(pos) = self.stack.iter().rposition(|&(s, _)| s == id) {
            self.stack.remove(pos);
        }
        if self.closed.len() == self.capacity {
            self.closed.pop_front();
        }
        self.closed.push_back(span);
    }

    /// The innermost open span, or [`SpanId::NONE`].
    #[must_use]
    pub fn current(&self) -> SpanId {
        self.stack.last().map_or(SpanId::NONE, |&(top, _)| top)
    }

    /// The context to propagate from here: the innermost open span's
    /// trace and id, or `None` when no span is open.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.stack.last().map(|&(top, trace_id)| TraceContext {
            trace_id,
            parent: top,
        })
    }

    /// The name `span` was opened under. `span` must come from this
    /// collector ([`Telemetry::spans`] or [`Telemetry::open_spans`]):
    /// its label indexes this collector's interner.
    #[must_use]
    pub fn span_name(&self, span: &Span) -> &str {
        self.label(span.label)
    }

    /// Closed spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.closed.iter()
    }

    /// Spans currently open, in no promised order: closing a span other
    /// than the innermost moves the last open span into its place.
    pub fn open_spans(&self) -> impl Iterator<Item = &Span> {
        self.open.iter()
    }

    /// Closed spans currently retained in the ring.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.closed.len()
    }

    /// Spans ever closed, including those the ring has since dropped.
    #[must_use]
    pub fn spans_recorded(&self) -> u64 {
        self.spans_recorded
    }

    /// This collector's metrics.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// This collector's metrics, writable.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Renders every retained trace as a fixed-width indented tree:
    /// one line per span, children indented under parents, ordered by
    /// trace id then span id. Includes timestamps, so this rendering is
    /// per-backend; the cross-backend-invariant projection is
    /// [`Telemetry::tree_digest`].
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.walk(|depth, span| {
            let _ = writeln!(
                out,
                "{:indent$}{} [{}] {}..{} {}",
                "",
                self.span_name(span),
                span.layer,
                span.start,
                span.end,
                outcome::name(span.outcome),
                indent = depth * 2
            );
        });
        out
    }

    /// Canonical digest of every retained trace's *shape*: depth,
    /// layer, name, and outcome per span, in deterministic order —
    /// timestamps, costs, and crossing kinds excluded, so the digest is
    /// identical across backends whose crossings differ.
    #[must_use]
    pub fn tree_digest(&self) -> Digest {
        self.digest_spans(None)
    }

    /// [`Telemetry::tree_digest`] restricted to one trace — the digest
    /// an experiment asserts about *its* flow, unaffected by whatever
    /// other traces the same collector retained.
    #[must_use]
    pub fn trace_digest(&self, trace_id: u64) -> Digest {
        self.digest_spans(Some(trace_id))
    }

    fn digest_spans(&self, trace: Option<u64>) -> Digest {
        let mut canon = Vec::new();
        self.append_tree_shape(trace, &mut canon);
        Digest::of_parts(&[b"lateral.telemetry.tree", &canon])
    }

    // The canonical shape bytes behind every tree digest: one record
    // per span (depth, layer, name, outcome, 0x1e terminator) in
    // deterministic walk order. Shared by the per-collector digests
    // above and by [`merged_tree_digest`], which concatenates the
    // shape bytes of several collectors under the same domain
    // separator — that sharing is what makes a one-collector merge
    // equal the collector's own `tree_digest()`.
    fn append_tree_shape(&self, trace: Option<u64>, canon: &mut Vec<u8>) {
        self.walk(|depth, span| {
            if trace.is_some_and(|t| span.trace_id != t) {
                return;
            }
            canon.push(depth.min(255) as u8);
            canon.extend_from_slice(span.layer.as_bytes());
            canon.push(0);
            canon.extend_from_slice(self.span_name(span).as_bytes());
            canon.push(0);
            canon.push(span.outcome);
            canon.push(0x1e);
        });
    }

    fn push_span(
        &mut self,
        trace_id: u64,
        parent: SpanId,
        label: LabelId,
        layer: &'static str,
        at: u64,
    ) -> SpanId {
        let id = self.open_span(trace_id, parent, label, layer, at);
        self.stack.push((id, trace_id));
        id
    }

    fn open_span(
        &mut self,
        trace_id: u64,
        parent: SpanId,
        label: LabelId,
        layer: &'static str,
        at: u64,
    ) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.open.push(Span {
            id,
            trace_id,
            parent,
            label,
            layer,
            start: at,
            end: at,
            outcome: outcome::OK,
        });
        self.spans_recorded += 1;
        id
    }

    /// Depth-first walk over all retained spans (closed, then still
    /// open), grouped by trace, children in span-id order. Spans whose
    /// parent is absent (a true root, an adopted remote parent, or a
    /// parent the ring dropped) anchor at depth 0.
    fn walk(&self, mut visit: impl FnMut(usize, &Span)) {
        let all: Vec<&Span> = self.closed.iter().chain(self.open.iter()).collect();
        let ids: std::collections::BTreeSet<u64> = all.iter().map(|s| s.id.0).collect();
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        let mut roots: Vec<&Span> = Vec::new();
        for span in &all {
            if span.parent != SpanId::NONE && ids.contains(&span.parent.0) {
                children.entry(span.parent.0).or_default().push(span);
            } else {
                roots.push(span);
            }
        }
        roots.sort_by_key(|s| (s.trace_id, s.id));
        for list in children.values_mut() {
            list.sort_by_key(|s| s.id);
        }
        // Iterative DFS; depth-tagged.
        let mut stack: Vec<(usize, &Span)> = roots.into_iter().rev().map(|s| (0, s)).collect();
        while let Some((depth, span)) = stack.pop() {
            visit(depth, span);
            if let Some(kids) = children.get(&span.id.0) {
                for kid in kids.iter().rev() {
                    stack.push((depth + 1, kid));
                }
            }
        }
    }
}

/// Canonical tree digest over several collectors treated as one
/// logical telemetry tree — what a sharded fabric reports for its
/// merged trace. Each collector contributes its deterministic shape
/// bytes in iteration order (callers pass shards in shard-id order),
/// under the same domain separator as [`Telemetry::tree_digest`], so
/// a single-collector merge equals that collector's own
/// `tree_digest()` byte for byte.
pub fn merged_tree_digest<'a>(parts: impl IntoIterator<Item = &'a Telemetry>) -> Digest {
    let mut canon = Vec::new();
    for telemetry in parts {
        telemetry.append_tree_shape(None, &mut canon);
    }
    Digest::of_parts(&[b"lateral.telemetry.tree", &canon])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_codec_round_trips() {
        let ctx = TraceContext {
            trace_id: 7,
            parent: SpanId(42),
        };
        let wire = ctx.encode();
        assert_eq!(wire.len(), CTX_ENCODED_LEN);
        assert_eq!(TraceContext::decode(&wire).unwrap(), ctx);
    }

    #[test]
    fn context_codec_rejects_malformed() {
        let good = TraceContext {
            trace_id: 9,
            parent: SpanId(3),
        }
        .encode();
        for cut in 0..good.len() {
            assert!(TraceContext::decode(&good[..cut]).is_err());
        }
        let mut long = good.clone();
        long.push(0);
        assert!(TraceContext::decode(&long).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 1;
        assert!(TraceContext::decode(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[1] ^= 1;
        assert!(TraceContext::decode(&bad_version).is_err());
        let zero_trace = TraceContext {
            trace_id: 1,
            parent: SpanId(0),
        };
        let mut wire = zero_trace.encode();
        wire[2..10].fill(0); // trace_id = 0
        assert!(TraceContext::decode(&wire).is_err());
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Telemetry::new();
        let root = t.begin_span("root", "test", 1);
        let child = t.begin_span("child", "test", 2);
        let grandchild = t.begin_span("grand", "test", 3);
        t.end_span(grandchild, 4, outcome::OK);
        t.end_span(child, 5, outcome::FAILED);
        t.end_span(root, 6, outcome::OK);
        let spans: Vec<&Span> = t.spans().collect();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| t.span_name(s) == n).copied().unwrap();
        assert_eq!(by_name("root").parent, SpanId::NONE);
        assert_eq!(by_name("child").parent, by_name("root").id);
        assert_eq!(by_name("grand").parent, by_name("child").id);
        assert!(spans.iter().all(|s| s.trace_id == by_name("root").trace_id));
        assert_eq!(by_name("child").outcome, outcome::FAILED);
    }

    #[test]
    fn begin_span_in_adopts_the_propagated_trace() {
        let mut caller = Telemetry::new();
        let req = caller.begin_span("request", "remote", 1);
        let ctx = caller.context().expect("request is open");
        let mut server = Telemetry::new();
        let serve = server.begin_span_in(ctx, "serve", "remote", 10);
        server.end_span(serve, 11, outcome::OK);
        caller.end_span(req, 2, outcome::OK);
        let serve_span = server.spans().next().unwrap();
        assert_eq!(serve_span.trace_id, ctx.trace_id);
        assert_eq!(serve_span.parent, req);
        // A later local root must not collide with the adopted trace.
        let local = server.begin_span("local", "test", 20);
        let local_trace = server.open_spans().next().unwrap().trace_id;
        assert!(local_trace > ctx.trace_id);
        server.end_span(local, 21, outcome::OK);
    }

    #[test]
    fn out_of_order_ends_keep_the_stack() {
        let mut t = Telemetry::new();
        let a = t.begin_span("a", "test", 1);
        let b = t.begin_span("b", "test", 2);
        let c = t.begin_span("c", "test", 3);
        // Closing the outermost first leaves the others open, in no
        // promised order, and c innermost.
        t.end_span(a, 4, outcome::OK);
        let mut open: Vec<SpanId> = t.open_spans().map(|s| s.id).collect();
        open.sort();
        assert_eq!(open, [b, c]);
        assert_eq!(t.current(), c);
        let d = t.begin_span("d", "test", 5);
        t.end_span(d, 6, outcome::OK);
        // Closing a middle span leaves c innermost too.
        t.end_span(b, 7, outcome::OK);
        assert_eq!(t.current(), c);
        t.end_span(c, 8, outcome::OK);
        assert_eq!(t.current(), SpanId::NONE);
        assert_eq!(t.open_spans().count(), 0);
        // A second end of a closed span is ignored.
        t.end_span(c, 9, outcome::FAILED);
        assert_eq!(t.span_count(), 4);
        let span = |name: &str| t.spans().find(|s| t.span_name(s) == name).unwrap();
        assert_eq!(span("d").parent, c);
        assert_eq!(span("c").parent, b);
        assert_eq!(span("c").outcome, outcome::OK);
        assert!(t.spans().all(|s| s.trace_id == span("a").trace_id));
    }

    #[test]
    fn linked_spans_close_in_any_order_without_touching_the_stack() {
        let mut t = Telemetry::new();
        let root = t.begin_span("session", "test", 0);
        let ctx = t.context().expect("root is open");
        let requests: Vec<SpanId> = (1..=4)
            .map(|at| t.begin_span_linked(ctx, "request", "test", at))
            .collect();
        let flush = t.begin_span("flush", "test", 5);
        assert_eq!(t.current(), flush, "linked spans never join the stack");
        for i in [1, 3, 0, 2] {
            t.end_span(requests[i], 6, outcome::OK);
            assert_eq!(t.current(), flush);
        }
        t.end_span(flush, 7, outcome::OK);
        assert_eq!(t.current(), root);
        t.end_span(root, 8, outcome::OK);
        assert!(t
            .spans()
            .filter(|s| t.span_name(s) != "session")
            .all(|s| s.parent == root && s.trace_id == ctx.trace_id));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_span_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 64);
    }

    #[test]
    fn ring_is_bounded_and_counts_everything() {
        let mut t = Telemetry::with_capacity(4);
        for i in 0..10 {
            let id = t.begin_span(&format!("s{i}"), "test", i);
            t.end_span(id, i, outcome::OK);
        }
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.spans_recorded(), 10);
        assert_eq!(t.span_name(t.spans().next().unwrap()), "s6");
    }

    #[test]
    fn interned_labels_are_stable_and_shared() {
        let mut t = Telemetry::new();
        let a = t.intern("invoke meter");
        let b = t.intern("invoke meter");
        let c = t.intern("invoke utility");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.label(a), "invoke meter");
        // A span opened through the label carries the same label a
        // by-name span does.
        let s1 = t.begin_span_label(a, "test", 1);
        t.end_span(s1, 2, outcome::OK);
        let s2 = t.begin_span("invoke meter", "test", 3);
        t.end_span(s2, 4, outcome::OK);
        let names: Vec<&str> = t.spans().map(|s| t.span_name(s)).collect();
        assert_eq!(names, ["invoke meter", "invoke meter"]);
        assert!(t.spans().all(|s| s.label == a));
        // Same tree shape whichever API opened the span.
        let build = |by_label: bool| {
            let mut t = Telemetry::new();
            let id = if by_label {
                let l = t.intern("op");
                t.begin_span_label(l, "test", 5)
            } else {
                t.begin_span("op", "test", 5)
            };
            t.end_span(id, 6, outcome::OK);
            t.tree_digest()
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn export_with_evicted_parents_never_dangles() {
        // Close the parent *before* its child (allowed), then push enough
        // spans through the cap-2 ring to evict the parent while the child
        // is still retained. Exporting must not panic, and the orphaned
        // child must anchor at depth 0 instead of pointing at a span the
        // ring no longer holds.
        let mut t = Telemetry::with_capacity(2);
        let root = t.begin_span("root", "test", 0);
        let child = t.begin_span("child", "test", 1);
        t.end_span(root, 2, outcome::OK);
        for i in 0..3u64 {
            let filler = t.begin_span("filler", "test", 3 + i);
            t.end_span(filler, 3 + i, outcome::OK);
        }
        t.end_span(child, 9, outcome::OK);
        let retained_ids: std::collections::BTreeSet<u64> = t.spans().map(|s| s.id.0).collect();
        assert!(
            !retained_ids.contains(&root.0),
            "parent must have been evicted for this test to bite"
        );
        let tree = t.render_tree();
        assert!(tree.contains("child"), "orphan is still exported: {tree}");
        // Anchored at depth 0: the child's line is not indented.
        assert!(
            tree.lines().any(|l| l.starts_with("child")),
            "orphan must anchor as a root: {tree}"
        );
        // Every rendered parent link resolves to a retained span.
        let mut seen = 0;
        t.walk(|depth, span| {
            seen += 1;
            if depth > 0 {
                assert!(
                    retained_ids.contains(&span.parent.0),
                    "span {:?} rendered under a parent the ring dropped",
                    t.span_name(span)
                );
            }
        });
        assert_eq!(seen, t.span_count());
        // And the digest is reproducible.
        assert_eq!(t.tree_digest(), t.tree_digest());
    }

    #[test]
    fn tree_digest_ignores_timestamps_but_not_shape() {
        let build = |offset: u64| {
            let mut t = Telemetry::new();
            let root = t.begin_span("root", "test", offset);
            let child = t.begin_span("work", "test", offset + 17);
            t.end_span(child, offset + 40, outcome::OK);
            t.end_span(root, offset + 50, outcome::OK);
            t
        };
        assert_eq!(build(0).tree_digest(), build(1000).tree_digest());
        let mut other = Telemetry::new();
        let root = other.begin_span("root", "test", 0);
        let child = other.begin_span("work", "test", 17);
        other.end_span(child, 40, outcome::FAILED);
        other.end_span(root, 50, outcome::OK);
        assert_ne!(build(0).tree_digest(), other.tree_digest());
    }

    #[test]
    fn render_tree_indents_children() {
        let mut t = Telemetry::new();
        let root = t.begin_span("root", "test", 0);
        let child = t.begin_span("leaf", "test", 1);
        t.end_span(child, 2, outcome::OK);
        t.end_span(root, 3, outcome::OK);
        let tree = t.render_tree();
        assert!(tree.contains("root [test] 0..3 ok"));
        assert!(tree.contains("\n  leaf [test] 1..2 ok"));
    }

    #[test]
    fn percentiles_follow_the_upper_bound_convention() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50), 0, "empty histogram reports 0");
        // Four observations land in buckets ≤4 (two), ≤16, ≤64.
        for v in [2, 3, 10, 40] {
            h.observe(v);
        }
        // rank(p50) = ceil(4*50/100) = 2 → second observation → the ≤4
        // bucket → its upper bound.
        assert_eq!(h.p50(), 4);
        // rank(p99) = ceil(4*99/100) = 4 → the ≤64 bucket.
        assert_eq!(h.p99(), 64);
        assert_eq!(h.percentile(100), 64);
        assert_eq!(h.percentile(1), 4);
        // p is clamped: 0 behaves as 1, 1000 as 100.
        assert_eq!(h.percentile(0), h.percentile(1));
        assert_eq!(h.percentile(1000), h.percentile(100));
        // The overflow bucket reports the exact max, not a bound.
        let mut big = Histogram::default();
        big.observe(3);
        big.observe(70_000);
        assert_eq!(big.p99(), 70_000);
        assert_eq!(big.p50(), 4);
    }

    #[test]
    fn percentile_is_identical_across_observation_orders() {
        // The convention must not depend on insertion order — only on
        // the bucket counts.
        let mut fwd = Histogram::default();
        let mut rev = Histogram::default();
        let values = [1u64, 5, 5, 17, 90, 300, 1_500, 20_000];
        for &v in &values {
            fwd.observe(v);
        }
        for &v in values.iter().rev() {
            rev.observe(v);
        }
        for p in [1, 25, 50, 75, 90, 99, 100] {
            assert_eq!(fwd.percentile(p), rev.percentile(p), "p{p}");
        }
    }

    #[test]
    fn histogram_from_parts_is_strict() {
        let mut h = Histogram::default();
        h.observe(3);
        h.observe(500);
        let mut buckets = [0u64; HISTOGRAM_BOUNDS.len() + 1];
        buckets.copy_from_slice(h.buckets());
        let back = Histogram::from_parts(buckets, h.count(), h.sum(), h.max()).unwrap();
        assert_eq!(back, h);
        // Bucket counts not summing to count are rejected.
        assert!(Histogram::from_parts(buckets, 3, h.sum(), h.max()).is_none());
        // An empty histogram cannot claim a sum or max.
        let zero = [0u64; HISTOGRAM_BOUNDS.len() + 1];
        assert!(Histogram::from_parts(zero, 0, 1, 0).is_none());
        assert!(Histogram::from_parts(zero, 0, 0, 9).is_none());
        assert!(Histogram::from_parts(zero, 0, 0, 0).is_some());
    }

    #[test]
    fn histogram_absorb_matches_observing_everything() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [1u64, 9, 100] {
            a.observe(v);
            all.observe(v);
        }
        for v in [7u64, 30_000] {
            b.observe(v);
            all.observe(v);
        }
        a.absorb(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn metrics_counters_histograms_and_filtered_digest() {
        let mut m = MetricsRegistry::new();
        m.incr("fabric.invocations", 3);
        m.incr("crossing.smc", 2);
        m.observe("crossing.smc.cost", 40);
        m.observe("crossing.smc.cost", 3000);
        assert_eq!(m.counter("fabric.invocations"), 3);
        let hist = m.histogram("crossing.smc.cost").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.max(), 3000);
        assert_eq!(hist.sum(), 3040);
        // The invariant projection sees only the kept counters.
        let mut other = MetricsRegistry::new();
        other.incr("fabric.invocations", 3);
        other.incr("crossing.ipc", 9);
        other.observe("crossing.ipc.cost", 1);
        assert_eq!(
            m.digest_filtered(|name| !name.starts_with("crossing.")),
            other.digest_filtered(|name| !name.starts_with("crossing.")),
        );
        assert_ne!(m.digest(), other.digest());
    }

    #[test]
    fn metric_handles_match_by_name_recording() {
        let mut by_name = MetricsRegistry::new();
        by_name.incr("fabric.invocations", 2);
        by_name.observe("crossing.ipc.cost", 120);
        let mut by_id = MetricsRegistry::new();
        let c = by_id.counter_id("fabric.invocations");
        let h = by_id.histogram_id("crossing.ipc.cost");
        by_id.incr_by_id(c, 1);
        by_id.incr_by_id(c, 1);
        by_id.observe_by_id(h, 120);
        assert_eq!(by_name, by_id);
        assert_eq!(by_name.render(), by_id.render());
        assert_eq!(by_name.digest(), by_id.digest());
        // Re-registering returns the same handle.
        assert_eq!(c, by_id.counter_id("fabric.invocations"));
        assert_eq!(h, by_id.histogram_id("crossing.ipc.cost"));
        // Registration alone creates the series at zero/empty.
        let mut fresh = MetricsRegistry::new();
        fresh.counter_id("fabric.denials");
        assert_eq!(fresh.counter("fabric.denials"), 0);
        assert!(fresh.render().contains("fabric.denials"));
    }

    #[test]
    fn registry_equality_ignores_registration_order() {
        let mut a = MetricsRegistry::new();
        a.incr("x", 1);
        a.incr("y", 2);
        let mut b = MetricsRegistry::new();
        b.incr("y", 2);
        b.incr("x", 1);
        assert_eq!(a, b);
        b.incr("x", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn absorb_merges_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.incr("x", 1);
        a.observe("h", 5);
        let mut b = MetricsRegistry::new();
        b.incr("x", 2);
        b.incr("y", 7);
        b.observe("h", 2000);
        a.absorb(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 2000);
    }

    #[test]
    fn render_is_deterministic_and_digest_matches() {
        let mut m = MetricsRegistry::new();
        m.incr("b", 2);
        m.incr("a", 1);
        m.observe("c", 10);
        let first = m.render();
        assert_eq!(first, m.render());
        assert_eq!(m.digest(), Digest::of(first.as_bytes()));
        // Name-ordered regardless of registration order.
        assert!(first.find("a ").unwrap() < first.find("b ").unwrap());
    }

    #[test]
    fn export_digest_is_invariant_under_registration_order() {
        // Two registries register the same families in opposite orders
        // (as two shards whose traffic touched families at different
        // times would), then record identical totals.
        let mut forward = MetricsRegistry::new();
        for name in ["fabric.invocations", "crossing.xshard", "fabric.bytes"] {
            forward.counter_id(name);
        }
        forward.histogram_id("crossing.xshard.cost");
        let mut reverse = MetricsRegistry::new();
        reverse.histogram_id("crossing.xshard.cost");
        for name in ["fabric.bytes", "crossing.xshard", "fabric.invocations"] {
            reverse.counter_id(name);
        }
        for m in [&mut forward, &mut reverse] {
            m.incr("fabric.invocations", 12);
            m.incr("fabric.bytes", 480);
            m.incr("crossing.xshard", 3);
            m.observe("crossing.xshard.cost", 251);
        }
        assert_eq!(forward.render(), reverse.render());
        assert_eq!(forward.digest(), reverse.digest());

        // Merging shard registries is order-invariant too.
        let mut extra = MetricsRegistry::new();
        extra.incr("fabric.denials", 1);
        extra.incr("crossing.xshard", 2);
        let mut ab = forward.clone();
        ab.absorb(&extra);
        let mut ba = extra.clone();
        ba.absorb(&reverse);
        assert_eq!(ab.digest(), ba.digest());
        assert_eq!(ab.counter("crossing.xshard"), 5);
    }

    #[test]
    fn merged_tree_digest_of_one_collector_is_its_own() {
        let mut t = Telemetry::new();
        let root = t.begin_span("root", "experiment", 0);
        t.instant("child", "fabric", 1, outcome::OK);
        t.end_span(root, 2, outcome::OK);
        assert_eq!(merged_tree_digest([&t]), t.tree_digest());

        // Two collectors concatenate in iteration order: stable, and
        // sensitive to shard order (the merge key), not to anything
        // else.
        let mut u = Telemetry::new();
        u.instant("other", "fabric", 3, outcome::FAILED);
        let m01 = merged_tree_digest([&t, &u]);
        assert_eq!(m01, merged_tree_digest([&t, &u]));
        assert_ne!(m01, merged_tree_digest([&u, &t]));
        assert_ne!(m01, t.tree_digest());
    }
}
