//! Metric names, the run outcome every workload returns, and the output.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric lists `BENCHMARK.json`
//! declares; an untraced run prints exactly the first, a traced run
//! exactly the second.

use std::time::{Duration, Instant};

use crate::host::Gauge;
use crate::stats::{self, Samples};
use crate::trace::Tracer;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fabric.invoke_ns.software", "ns"),
    ("fabric.invoke_ns.microkernel", "ns"),
    ("fabric.invoke_ns.trustzone", "ns"),
    ("fabric.invoke_ns.sgx", "ns"),
    ("fabric.invoke_ns.sep", "ns"),
    ("fabric.invoke_ns.flicker", "ns"),
    ("fabric.mem_invoke_ns.software", "ns"),
    ("fabric.mem_invoke_ns.microkernel", "ns"),
    ("fabric.mem_invoke_ns.trustzone", "ns"),
    ("fabric.mem_invoke_ns.sgx", "ns"),
    ("fabric.mem_invoke_ns.sep", "ns"),
    ("fabric.mem_invoke_ns.flicker", "ns"),
    ("fabric.batch_ns_per_call", "ns"),
    ("fabric.invocations", "count"),
    ("fabric.denials", "count"),
    ("fabric.trace_evictions", "count"),
    ("shard.local_ns", "ns"),
    ("shard.xshard_ns", "ns"),
    ("shard.advance_epoch_ns", "ns"),
    ("composer.call_channel_ns", "ns"),
    ("telemetry.spans_per_op", "spans/op"),
    ("telemetry.span_evictions", "count"),
    ("telemetry.span_ns.interned", "ns"),
    ("telemetry.span_ns.formatted", "ns"),
    ("crypto.sha256_ns_per_kib", "ns/KiB"),
    ("crypto.aead_ns.24b", "ns"),
    ("crypto.aead_ns.1kib", "ns"),
    ("crypto.aead_ns_per_kib.batch", "ns/KiB"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("crypto.dh_ns", "ns"),
    ("channel.seal_ns", "ns"),
    ("channel.open_ns", "ns"),
    ("channel.numbered_ns_per_kib", "ns/KiB"),
    ("net.records_per_request", "ratio"),
    ("net.bytes_per_request", "B"),
    ("remote.submit_ns", "ns"),
    ("remote.flush_ns", "ns"),
    ("remote.poll_group_ns", "ns"),
    ("remote.send_request_ns", "ns"),
    ("remote.poll_reply_ns", "ns"),
    ("remote.pump_ns", "ns"),
    ("remote.hs_start_ns", "ns"),
    ("remote.hs_accept_ns", "ns"),
    ("remote.hs_verify_ns", "ns"),
    ("remote.hs_finish_ns", "ns"),
    ("remote.resume_ns", "ns"),
    ("remote.attestations", "count"),
    ("remote.resumes", "count"),
    ("remote.resume_rejects", "count"),
    ("remote.overloads", "count"),
    ("remote.resume_useful_ratio", "ratio"),
    ("net.packets", "count"),
    ("net.delivered", "count"),
    ("net.dropped", "count"),
    ("net.recorded_mb", "MB"),
    ("registry.admit_ms", "ms"),
    ("registry.resolves", "count"),
    ("registry.cache_hit_ratio", "ratio"),
    ("fleet.tick_ms.burst", "ms"),
    ("fleet.tick_ms.churn", "ms"),
    ("fleet.tick_ms.calm", "ms"),
    ("fleet.tick_ms.drain", "ms"),
    ("fleet.ingest_useful_ratio", "ratio"),
    ("fleet.wan_useful_ratio", "ratio"),
    ("fleet.wan_timeouts", "count"),
    ("fleet.wan_duplicates", "count"),
    ("fleet.respawns", "count"),
    ("fleet.quarantined", "count"),
    ("fleet.drain_ticks", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Metrics printed for the workloads they exist on, but not declared:
/// every workload must report every declared metric.
pub const REPORT_ONLY: &[(&str, &str)] = &[
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
    ("lockstep_p50_us", "us"),
    ("connect_p50_us", "us"),
    ("resume_p50_us", "us"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("failed_ratio", "ratio"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind the value (1 for a count or a single timing).
    pub samples: u64,
    /// How the value was taken.
    pub note: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (calls, requests or readings).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output-check violations; any one fails the run.
    pub violations: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra report lines (checks passed, unavailable metrics, tables).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, samples: u64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
            note: note.into(),
        });
    }

    /// Adds a count metric.
    pub fn count(&mut self, name: &str, value: u64, note: impl Into<String>) {
        self.metric(name, value as f64, 1, note);
    }

    /// Adds a percentile of `samples` (scaled by `scale`), or a line saying
    /// why it cannot be reported.
    pub fn percentile(&mut self, name: &str, samples: &Samples, pm: u32, scale: f64, what: &str) {
        match samples.percentile(pm) {
            Some(v) => self.metric(name, v * scale, samples.len(), what),
            None => self.lines.push(format!(
                "unavailable {name}: {} samples of {what}, fewer than {} beyond p{}",
                samples.len(),
                stats::MIN_BEYOND,
                f64::from(pm) / 10.0
            )),
        }
    }

    /// Records a failed output check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Takes from `companion`, a traced run of workload `from`, every
    /// per-layer metric this run lacks, and its failed output checks.
    pub fn adopt(&mut self, companion: Outcome, from: &str) {
        let mut taken = 0;
        for m in companion.metrics {
            let per_layer = PER_LAYER.iter().any(|(n, _)| *n == m.name);
            if per_layer && self.value(&m.name).is_none() {
                self.metrics.push(Metric {
                    note: format!("{from} companion: {}", m.note),
                    ..m
                });
                taken += 1;
            }
        }
        self.lines.push(format!(
            "companion: a short traced {from} run gave {taken} per-layer metrics this workload does not reach"
        ));
        for v in companion.violations {
            self.violation(format!("{from} companion: {v}"));
        }
    }

    /// Whether every metric of `declared` was measured.
    pub fn has_all(&self, declared: &[(&str, &str)]) -> bool {
        declared.iter().all(|(n, _)| self.value(n).is_some())
    }

    /// The report lines: one per metric, then the extra lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let unit = unit_of(&m.name).unwrap_or("-");
            out.push_str(&format!(
                "metric {:<34} {:>16.6} {unit:<8} samples={:<9} {}\n",
                m.name, m.value, m.samples, m.note
            ));
        }
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for v in &self.violations {
            out.push_str(&format!("CHECK FAILED: {v}\n"));
        }
        out
    }

    /// The result line: one JSON object holding the `declared` metrics.
    ///
    /// # Errors
    ///
    /// A declared metric the run did not produce, or one that is not a
    /// finite number.
    pub fn json(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut json = Vec::new();
        for (name, unit) in declared {
            let m = self
                .value(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        ))
    }
}

/// The unit of a metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(REPORT_ONLY)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Identical bring-ups spread evenly through a run, outside its timed
/// operations: bring-up `k` of `reps` is due `k / reps` of the way through
/// the time budget, so `setup_s` sees the same host phases as the
/// operations do. Each is timed right after a reference pass of the
/// [`Gauge`]; `setup_s` is the median of their times as on the reference
/// host.
#[derive(Debug)]
pub struct Setups {
    reps: u32,
    budget: Duration,
    wall: Vec<f64>,
    scaled: Vec<f64>,
}

impl Setups {
    /// `reps` bring-ups spread over `budget`.
    pub fn new(reps: u32, budget: Duration) -> Setups {
        Setups {
            reps,
            budget,
            wall: Vec::with_capacity(reps as usize),
            scaled: Vec::with_capacity(reps as usize),
        }
    }

    /// Times one bring-up and drops what it built.
    fn time<T>(&mut self, gauge: &mut Gauge, bring_up: impl FnOnce() -> T) {
        let (built, wall, scaled) = gauge.paired(bring_up);
        self.wall.push(wall);
        self.scaled.push(scaled);
        drop(built);
    }

    /// Times one bring-up if the next one is due `elapsed` into the run.
    pub fn maybe<T>(&mut self, elapsed: Duration, gauge: &mut Gauge, bring_up: impl FnOnce() -> T) {
        let done = self.wall.len() as u32;
        if done < self.reps && elapsed >= self.budget * done / self.reps {
            self.time(gauge, bring_up);
        }
    }

    /// Times every bring-up a short run left out.
    pub fn finish<T>(&mut self, gauge: &mut Gauge, mut bring_up: impl FnMut() -> T) {
        while (self.wall.len() as u32) < self.reps {
            self.time(gauge, &mut bring_up);
        }
    }

    /// Bring-ups timed so far.
    pub fn len(&self) -> u64 {
        self.wall.len() as u64
    }

    /// The `setup_s` metric.
    pub fn report(&self, out: &mut Outcome, what: &str) {
        out.metric(
            "setup_s",
            stats::median(&self.scaled),
            self.len(),
            format!(
                "median bring-up as on the reference host ({:.6} s wall-clock): {what}",
                stats::median(&self.wall)
            ),
        );
        if self.wall.len() >= 2 {
            let [q1, q2, q3] = stats::quartiles(&self.wall);
            out.lines.push(format!(
                "setup: {} bring-ups, wall-clock quartiles {:.3} {:.3} {:.3} ms",
                self.wall.len(),
                q1 * 1e3,
                q2 * 1e3,
                q3 * 1e3
            ));
        }
    }
}

/// A traced run's traced stretch; its untraced stretches last three times
/// as long, which keeps the in-memory span buffer small.
const TRACED_STRETCH: Duration = Duration::from_millis(250);

/// Whether a traced run should switch tracing on or off now, the current
/// stretch having started at `since`.
pub fn stretch_over(tracer: &Tracer, since: Instant) -> bool {
    let length = if tracer.enabled() {
        TRACED_STRETCH
    } else {
        3 * TRACED_STRETCH
    };
    since.elapsed() >= length
}

/// Operations and busy time, split by whether tracing was on. A traced
/// run alternates traced and untraced segments so both see the same
/// host phase; the ratio of their rates is the tracing overhead.
#[derive(Debug, Default)]
pub struct Modes {
    ops: [u64; 2],
    busy: [Duration; 2],
}

impl Modes {
    /// Accounts one operation batch.
    pub fn add(&mut self, traced: bool, ops: u64, busy: Duration) {
        self.ops[usize::from(traced)] += ops;
        self.busy[usize::from(traced)] += busy;
    }

    /// Operations in both modes.
    pub fn total_ops(&self) -> u64 {
        self.ops[0] + self.ops[1]
    }

    /// Ops per second in one mode.
    pub fn rate(&self, traced: bool) -> f64 {
        let i = usize::from(traced);
        self.ops[i] as f64 / self.busy[i].as_secs_f64().max(1e-9)
    }

    /// Adds the tracing-overhead metrics.
    pub fn report(&self, out: &mut Outcome) {
        let (on, off) = (self.rate(true), self.rate(false));
        out.metric(
            "trace.ops_per_s",
            on,
            self.ops[1],
            "ops/s in traced segments",
        );
        out.metric(
            "trace.untraced_ops_per_s",
            off,
            self.ops[0],
            "ops/s in untraced segments of the same run",
        );
        out.metric(
            "trace.overhead_pct",
            (off - on) / off * 100.0,
            1,
            "(untraced - traced) / untraced",
        );
    }
}

/// Throughput per fixed stretch of wall time, to show how steady the
/// host was during the run.
#[derive(Debug)]
pub struct Segments {
    length: Duration,
    started: Instant,
    ops: u64,
    busy: Duration,
    rates: Vec<f64>,
}

impl Segments {
    /// Segments of `length` wall time, starting now.
    pub fn new(length: Duration) -> Segments {
        Segments {
            length,
            started: Instant::now(),
            ops: 0,
            busy: Duration::ZERO,
            rates: Vec::new(),
        }
    }

    /// Accounts `ops` operations that took `busy`.
    pub fn add(&mut self, ops: u64, busy: Duration) {
        self.ops += ops;
        self.busy += busy;
        if self.started.elapsed() >= self.length {
            self.rates
                .push(self.ops as f64 / self.busy.as_secs_f64().max(1e-9));
            self.started = Instant::now();
            self.ops = 0;
            self.busy = Duration::ZERO;
        }
    }

    /// A report line with the quartiles of the segment rates.
    pub fn line(&self) -> String {
        if self.rates.len() < 2 {
            return format!("segments: {} of {:?}", self.rates.len(), self.length);
        }
        let [q1, q2, q3] = stats::quartiles(&self.rates);
        format!(
            "segments: {} of {:?}, ops/s quartiles {q1:.0} {q2:.0} {q3:.0} (spread {:.3})",
            self.rates.len(),
            self.length,
            stats::spread(&self.rates)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (list, key) in [(END_TO_END, "\"end_to_end\""), (PER_LAYER, "\"per_layer\"")] {
            let section = &text[text.find(key).expect(key)..];
            let section = &section[..section.find(']').expect("list ends")];
            let declared: Vec<&str> = section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("name ends")])
                .collect();
            let ours: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
            for (name, unit) in list {
                let entry = &section[section.find(&format!("\"{name}\"")).expect("entry")..];
                assert!(
                    entry.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
        }
    }

    #[test]
    fn json_holds_exactly_the_declared_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.5, 7, "median");
        let err = o.json(&[("setup_s", "s"), ("ops_per_s", "1/s")]);
        assert!(err.is_err(), "a missing declared metric is an error");
        assert!(o.lines().starts_with("metric setup_s"));
        assert_eq!(
            o.json(&[("setup_s", "s")]).expect("renders"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.violation("reply 4 differs");
        assert!(o
            .json(&[("setup_s", "s")])
            .expect("renders")
            .contains("\"correct\": false"));
    }

    #[test]
    fn a_companion_run_supplies_only_missing_layers() {
        let mut o = Outcome::default();
        o.metric("fabric.denials", 0.0, 1, "counted");
        let mut c = Outcome::default();
        c.metric("fabric.denials", 7.0, 1, "companion count");
        c.metric("crypto.dh_ns", 41.5, 7, "probe");
        c.metric("ops_per_s", 9.0, 1, "end to end, not adopted");
        c.violation("reply 3 differs");
        o.adopt(c, "session");
        assert_eq!(o.value("fabric.denials").map(|m| m.value), Some(0.0));
        assert_eq!(o.value("crypto.dh_ns").map(|m| m.value), Some(41.5));
        assert!(o.value("ops_per_s").is_none());
        assert!(!o.correct(), "a companion's failed check fails the run");
        assert!(!o.has_all(PER_LAYER));
        let json = o.json(&[("crypto.dh_ns", "ns")]).expect("renders");
        assert!(json.ends_with("{\"crypto.dh_ns\": {\"value\": 41.5, \"unit\": \"ns\"}}}"));
    }

    #[test]
    fn bring_ups_are_spread_through_the_run() {
        let mut g = Gauge::new();
        let mut s = Setups::new(4, Duration::from_secs(8));
        let mut built = 0;
        for elapsed in 0..6 {
            s.maybe(Duration::from_secs(elapsed), &mut g, || built += 1);
        }
        assert_eq!(built, 3, "due at 0, 2 and 4 s");
        s.finish(&mut g, || built += 1);
        assert_eq!((built, s.len()), (4, 4));
        let mut out = Outcome::default();
        s.report(&mut out, "test");
        assert_eq!(out.metrics[0].name, "setup_s");
        assert!(out.metrics[0].value > 0.0);
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_is_named_not_printed() {
        let mut o = Outcome::default();
        let mut s = Samples::default();
        s.push_n(1.0, 50);
        o.percentile("latency_p90_us", &s, 900, 1.0, "ticks");
        assert!(o.metrics.is_empty());
        assert!(o.lines[0].starts_with("unavailable latency_p90_us"));
    }
}
