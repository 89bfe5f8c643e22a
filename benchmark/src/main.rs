//! The repo benchmark: one command runs one workload in one process,
//! checks its outputs and prints every metric by name with its unit.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload runtime-clean
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload runtime-clean --trace 1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — with `--trace 0` every
//! end-to-end metric, with `--trace 1` every per-layer metric (see
//! `metrics.rs` and the README's glossary). The exit code is non-zero when
//! an output check failed or nothing was measured.

#![forbid(unsafe_code)]

mod args;
mod clock;
mod harness;
mod metrics;
mod repeat;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use args::Args;
use harness::{measure, Measurement, Workload};
use metrics::Metrics;
use report::RunResult;
use workloads::{runtime_jobs, sim_campaign, warehouse};

/// Measure one workload and assemble what the selected mode prints.
/// `layers` adds the workload's own per-layer metrics and replays; it only
/// runs for a traced run.
fn run<W: Workload>(
    args: &Args,
    make: impl Fn() -> W,
    layers: impl FnOnce(&Measurement<W>, &mut Metrics),
) -> Result<RunResult, String> {
    let m = measure(make, args.seconds, args.trace)?;
    let mut out = Metrics::new();
    if args.trace {
        report::span_metrics(&m, &mut out);
        layers(&m, &mut out);
        report::write_trace(&m.recorder, args)?;
    } else {
        report::end_to_end(&m, &mut out);
    }
    report::print_summary(&m, args);
    Ok(RunResult::new(&m, &out, args.trace))
}

fn run_workload(args: &Args) -> Result<RunResult, String> {
    let seed = args.seed;
    match args.workload.as_str() {
        "sim-campaign" => run(args, || sim_campaign::SimCampaignLoad::new(seed), sim_campaign::layer_metrics),
        "warehouse" => run(args, || warehouse::WarehouseLoad::new(seed), warehouse::layer_metrics),
        name => {
            let shape = match name {
                "runtime-clean" => runtime_jobs::CLEAN,
                "runtime-alg" => runtime_jobs::ALG,
                "runtime-crash" => runtime_jobs::CRASH,
                _ => {
                    return Err(format!("unknown workload `{name}`; one of {}", workloads::NAMES.join(", ")))
                }
            };
            run(args, || runtime_jobs::RuntimeJobs::new(shape, seed), runtime_jobs::layer_metrics)
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("alm-benchmark: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.repeat > 1 {
        return repeat::run(&args);
    }
    match run_workload(&args) {
        Ok(result) => {
            result.print_table();
            println!("{}", result.to_json_line());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("alm-benchmark: {} of {} ops failed their check", result.failed, result.attempted);
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("alm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
