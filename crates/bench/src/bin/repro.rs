//! The reproduction driver: prints the experiment reports of
//! `DESIGN.md` §5.
//!
//! ```text
//! cargo run -p lateral-bench --bin repro -- all     # everything
//! cargo run -p lateral-bench --bin repro -- e1 e6   # a selection
//! cargo run -p lateral-bench --bin repro            # usage + list
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <experiment>... | all");
        eprintln!("experiments: {}", lateral_bench::EXPERIMENTS.join(", "));
        return ExitCode::FAILURE;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        lateral_bench::EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    // Experiments are independent and deterministic: run them in
    // parallel, print in order.
    let results: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|id| scope.spawn(move || lateral_bench::run(id)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    });
    for result in results {
        match result {
            Ok(report) => {
                println!("{report}");
                println!("{}", "=".repeat(72));
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
