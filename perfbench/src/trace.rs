//! The traced run's span recorder.
//!
//! A span covers one call the benchmark makes into a layer, or one block
//! of same-kind calls when a single call is too short to time. Spans hold
//! a name, a start, an end, a parent, the workload operation they belong
//! to, and how many calls they cover. They stay in memory until the run
//! ends and are then written out as TSV. When the recorder is disabled,
//! `begin` and `end` do nothing, so the untraced path pays one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Interned span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Name(u32);

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Interned name.
    pub name: Name,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Workload operation (round, turn or tick) the span belongs to.
    pub op: u64,
    /// Calls the span covers (1 for a single call).
    pub calls: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Totals for every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub spans: u64,
    /// Calls covered.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the time child spans cover.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per covered call, in nanoseconds.
    pub fn ns_per_call(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.total_ns as f64 / self.calls as f64)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder, initially enabled or not.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between operations.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Interns a span name (do this at set-up, not on the hot path).
    pub fn intern(&mut self, name: &str) -> Name {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Name(i as u32);
        }
        self.names.push(name.to_string());
        Name(self.names.len() as u32 - 1)
    }

    /// The text of an interned name.
    pub fn name(&self, name: Name) -> &str {
        &self.names[name.0 as usize]
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span covering `calls` calls of operation `op`, nested in
    /// the innermost open span. Returns `None` while disabled.
    #[inline]
    pub fn begin(&mut self, name: Name, op: u64, calls: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            calls,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (innermost first).
    #[inline]
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let own = self.self_times();
        let mut by_name: Vec<Totals> = vec![Totals::default(); self.names.len()];
        for (s, self_ns) in self.spans.iter().zip(own) {
            let t = &mut by_name[s.name.0 as usize];
            t.spans += 1;
            t.calls += u64::from(s.calls);
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        self.names
            .iter()
            .cloned()
            .zip(by_name)
            .filter(|(_, t)| t.spans > 0)
            .collect()
    }

    /// Writes every span as TSV: id, parent, op, name, start, end, calls.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns\tcalls")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                self.name(s.name),
                s.start_ns,
                s.end_ns,
                s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let (outer, inner) = (t.intern("outer"), t.intern("inner"));
        let o = t.begin(outer, 1, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let i = t.begin(inner, 1, 4);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(i);
        t.end(o);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.self_ns + i.total_ns, o.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(i.calls, 4);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[0].parent, ROOT);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let n = t.intern("x");
        let id = t.begin(n, 0, 1);
        assert!(id.is_none());
        t.end(id);
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
        assert_eq!(t.intern("x"), n);
    }
}
