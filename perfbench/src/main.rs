//! End-to-end benchmark of the route service and the fleet.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query_wire|ingest_mixed|fleet_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public API from this package's own code:
//! the `etx-served` daemon over loopback (`query_wire`,
//! `ingest_mixed`) or the fleet controller (`fleet_mixed`). With
//! `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it measures the same way and then times the calls into
//! each layer's public functions, prints each layer's share of the
//! end-to-end figure with the unattributed remainder and the tracing
//! overhead, and reports the per-layer metrics. Every run checks its
//! outputs; a failed gate exits non-zero. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `README.md` beside this file records each workload's
//! purpose, rates and layer-to-metric predictions.

mod cpu;
mod fleet_mixed;
mod ingest_mixed;
mod query_wire;
mod report;
mod wire;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "query_wire" => query_wire::run(args.seed, args.seconds, args.trace),
        "ingest_mixed" => ingest_mixed::run(args.seed, args.seconds, args.trace),
        "fleet_mixed" => fleet_mixed::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match report::render(&args.workload, args.trace, &report) {
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {}: a correctness gate failed", args.workload);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
