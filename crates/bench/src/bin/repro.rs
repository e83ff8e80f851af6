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
    let mut results: Vec<Option<Result<String, String>>> = ids.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for id in &ids {
            handles.push(scope.spawn(move || {
                // E14 through E17 also emit machine-readable
                // benchmark records; share one measurement run with
                // the report.
                if *id == "e14" {
                    let (report, json) = lateral_bench::e14_scaling::report_and_json();
                    match std::fs::write("BENCH_E14.json", &json) {
                        Ok(()) => eprintln!("note: wrote BENCH_E14.json"),
                        Err(e) => eprintln!("note: could not write BENCH_E14.json: {e}"),
                    }
                    Ok(report)
                } else if *id == "e15" {
                    let (report, json) = lateral_bench::e15_fleet::report_and_json();
                    match std::fs::write("BENCH_E15.json", &json) {
                        Ok(()) => eprintln!("note: wrote BENCH_E15.json"),
                        Err(e) => eprintln!("note: could not write BENCH_E15.json: {e}"),
                    }
                    Ok(report)
                } else if *id == "e16" {
                    let (report, json) = lateral_bench::e16_wot::report_and_json();
                    match std::fs::write("BENCH_E16.json", &json) {
                        Ok(()) => eprintln!("note: wrote BENCH_E16.json"),
                        Err(e) => eprintln!("note: could not write BENCH_E16.json: {e}"),
                    }
                    Ok(report)
                } else if *id == "e17" {
                    let (report, json) = lateral_bench::e17_placement::report_and_json();
                    match std::fs::write("BENCH_E17.json", &json) {
                        Ok(()) => eprintln!("note: wrote BENCH_E17.json"),
                        Err(e) => eprintln!("note: could not write BENCH_E17.json: {e}"),
                    }
                    Ok(report)
                } else {
                    lateral_bench::run(id)
                }
            }));
        }
        for (slot, handle) in results.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("experiment thread panicked"));
        }
    });
    for result in results.into_iter().flatten() {
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
