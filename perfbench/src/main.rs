//! pwam-perfbench: end-to-end and per-layer benchmark of the RAP-WAM query
//! server and of the paper's trace-driven cache study.
//!
//! Usage:
//! `pwam-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]`
//!
//! With `--trace 0` a run reports the end-to-end metrics; with `--trace 1`
//! it replays the same workload in-process with a span around every layer
//! call and reports the per-layer metrics (spans go to `--spans`).  The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md for the workloads and metrics.

mod check;
mod figure;
mod inputs;
mod replay;
mod serve;
mod spans;
mod util;

use pwam_benchmarks::{BenchmarkId, Scale};
use serve::ServeSpec;
use std::process::ExitCode;

const PAPER_FOUR: &[BenchmarkId] = &BenchmarkId::ALL;
const REGISTRY: &[BenchmarkId] = &BenchmarkId::EXTENDED;

/// The serving workloads; `figure4-paper` is the third.
fn serve_spec(workload: &str) -> Option<ServeSpec> {
    match workload {
        "small-fresh" => Some(ServeSpec { ids: PAPER_FOUR, scale: Scale::Small, fresh: true }),
        "paper-repeat" => Some(ServeSpec { ids: REGISTRY, scale: Scale::Paper, fresh: false }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, spans: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--spans" => args.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    util::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pwam-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload.as_str(), serve_spec(&args.workload)) {
        ("figure4-paper", _) => figure::run(args.seed, args.seconds, args.trace, args.spans.as_deref()),
        (_, Some(spec)) if args.trace => replay::run(spec, args.seed, args.seconds, args.spans.as_deref()),
        (_, Some(spec)) => serve::run(spec, args.seed, args.seconds),
        (other, None) => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(report) => {
            report.print(&args.workload);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pwam-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
