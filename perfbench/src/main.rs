//! The lateral benchmark: three seeded closed-loop workloads (`invoke`,
//! `session`, `fleet`) driven from one thread through the workspace's
//! public APIs.
//!
//! ```text
//! perfbench --workload <invoke|session|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics from traced segments plus probes, and writes the
//! spans to `perfbench/out/trace-<workload>.tsv`. A traced run reports
//! every per-layer metric: layers its workload does not reach are taken
//! from short traced companion runs of the other workloads. Each metric is one
//! `metric` line with its unit and sample count; the last line is one
//! JSON object. A failed output check exits with status 1. See
//! `RATIONALE.md` for why the workloads and metrics are what they are.

mod fleet;
mod host;
mod invoke;
mod probes;
mod report;
mod rng;
mod session;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Deliberate faults that the tests use to show the output checks bite.
#[derive(Clone, Copy, Debug, Default)]
pub struct Faults {
    /// Flip a byte of the n-th checked reply before comparing it.
    pub corrupt_reply: Option<u64>,
    /// Forget one acknowledged reading before the conservation check.
    pub lose_reading: bool,
}

/// Compares replies with the bytes they must hold.
#[derive(Debug)]
pub struct Checker {
    faults: Faults,
    checked: u64,
    failures: Vec<String>,
}

impl Checker {
    /// A checker applying `faults`.
    pub fn new(faults: Faults) -> Checker {
        Checker {
            faults,
            checked: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one reply; a difference is recorded as a violation.
    pub fn check(&mut self, what: &str, got: &[u8], want: &[u8]) {
        let corrupt = self.faults.corrupt_reply == Some(self.checked);
        self.checked += 1;
        let same = if corrupt {
            let mut bad = got.to_vec();
            if let Some(b) = bad.first_mut() {
                *b ^= 0x40;
            } else {
                bad.push(0);
            }
            bad == want
        } else {
            got == want
        };
        if !same {
            self.fail(format!(
                "{what}: reply #{} differs from the expected bytes",
                self.checked
            ));
        }
    }

    /// Records a violation that is not a reply comparison.
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Moves the result into `out`.
    pub fn report(&mut self, out: &mut Outcome, what: &str) {
        out.lines.push(format!("check: {} {what}", self.checked));
        for f in self.failures.drain(..) {
            out.violation(f);
        }
    }
}

/// Writes the run's spans next to the benchmark sources.
pub fn write_trace(tracer: &Tracer, workload: &str, out: &mut Outcome) {
    let path = std::path::Path::new("perfbench/out").join(format!("trace-{workload}.tsv"));
    match tracer.write_tsv(&path) {
        Ok(()) => out.lines.push(format!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.lines.push(format!("trace: not written ({e})")),
    }
}

/// Prints each span name's self time and share of the traced time, so
/// the attribution can be read from the same run.
pub fn selftime_table(out: &mut Outcome, tracer: &Tracer, ops: u64) {
    let totals = tracer.totals();
    let roots: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent == trace::ROOT)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    out.lines.push(format!(
        "self time over {} traced ops ({:.3} s inside root spans):",
        ops,
        roots as f64 / 1e9
    ));
    for (name, t) in &totals {
        out.lines.push(format!(
            "  self {:<32} {:>10.3} ms {:>6.2}%  spans={} calls={}",
            name,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 * 100.0 / roots.max(1) as f64,
            t.spans,
            t.calls
        ));
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["invoke", "session", "fleet"].contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (invoke, session, fleet)"
            ));
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The workloads, in the order companion runs are taken.
const WORKLOADS: [&str; 3] = ["invoke", "session", "fleet"];

/// Length of a companion run; `fleet` finishes its episode past it.
const COMPANION_SECONDS: f64 = 2.0;

fn run(args: &Args, faults: Faults) -> Outcome {
    match args.workload.as_str() {
        "invoke" => invoke::run(args.seed, args.seconds, args.trace, faults),
        "session" => session::run(args.seed, args.seconds, args.trace, faults),
        _ => fleet::run(args.seed, args.seconds, args.trace, faults),
    }
}

/// A traced run: the workload, then the probes, then a short traced
/// companion run of each other workload for the layers it does not reach.
fn run_traced(args: &Args, faults: Faults) -> Outcome {
    let mut out = run(args, faults);
    probes::common(&mut out);
    for other in WORKLOADS {
        if other == args.workload || out.has_all(PER_LAYER) {
            continue;
        }
        let companion = Args {
            workload: other.to_string(),
            seconds: COMPANION_SECONDS,
            ..args.clone()
        };
        out.adopt(run(&companion, faults), other);
    }
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <invoke|session|fleet> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (outcome, declared) = if args.trace {
        (run_traced(&args, Faults::default()), PER_LAYER)
    } else {
        (run(&args, Faults::default()), END_TO_END)
    };
    print!("{}", outcome.lines());
    println!(
        "operations attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    match outcome.json(declared) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_carries_the_seed() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "42",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(
            a,
            Args {
                workload: "fleet".into(),
                seed: 42,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(
            args(&["--workload", "fleet", "--seconds", "3"]).is_err(),
            "the seed is required"
        );
        assert!(
            args(&["--workload", "fleet", "--seed", "1"]).is_err(),
            "the run length is required"
        );
        assert!(args(&["--workload", "bogus", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "invoke", "--seed", "x"]).is_err());
        assert!(args(&["--workload", "invoke", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn checker_flags_a_corrupted_reply() {
        let mut c = Checker::new(Faults {
            corrupt_reply: Some(1),
            ..Faults::default()
        });
        c.check("a", b"xy", b"xy");
        c.check("b", b"xy", b"xy");
        c.check("c", b"xy", b"xz");
        let mut out = Outcome::default();
        c.report(&mut out, "replies");
        assert_eq!(out.violations.len(), 2);
        assert!(out.violations[0].starts_with("b:"));
        assert!(!out.correct());
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric() {
        // One second holds one traced stretch, after the first untraced one.
        let a = args(&[
            "--workload",
            "invoke",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .expect("parses");
        let out = run_traced(&a, Faults::default());
        assert!(out.correct(), "{:?}", out.violations);
        let json = out.json(PER_LAYER).expect("every per-layer metric");
        assert!(!json.contains("measured"));
        let fleet = out
            .metrics
            .iter()
            .find(|m| m.name == "fleet.tick_ms.drain")
            .expect("a drain tick");
        assert!(fleet.value > 0.0 && fleet.note.starts_with("fleet companion"));
    }
}
