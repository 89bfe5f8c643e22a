//! In-memory chain perf baseline: wall-clock per chain iteration.
//!
//! Runs the fixed-seed iterative pagerank chain on the simulator chain
//! engine (8 iterations at paper scale, with a mid-chain node crash under
//! ALG+FCM so the recovery paths are on the measured path), once as
//! warmup and then [`MEASURED_RUNS`] times measured, and reports the
//! **median** of:
//!
//! * `wall_clock_per_iteration_us` — the headline metric: host
//!   microseconds spent per chain iteration;
//! * `resident_hits` — state stripes and MOFs served from RAM over one
//!   run (a determinism canary: this must never vary between runs).
//!
//! ```sh
//! cargo run --release -p alm-bench --bin bench_mem            # gate
//! cargo run --release -p alm-bench --bin bench_mem -- --bless # re-baseline
//! ```
//!
//! The gate compares against the committed `BENCH_mem.json` at the repo
//! root and fails (exit 1) when the per-iteration wall clock regresses by
//! more than [`REGRESSION_PCT`]%. Faster-than-baseline runs pass but
//! print a hint to re-bless so the bar ratchets down. The chain *results*
//! are covered by the alm-mem determinism tests and the chain campaign —
//! this binary only guards the chain layer's speed.

use alm_mem::{run_chain, ChainReport, CrashPlan, IterativeSpec, SimChainEngine};
use alm_types::{MemConfig, MemMode};
use alm_workloads::{Pagerank, WorkloadKind};
use std::sync::Arc;

const SEED: u64 = 42;
const ITERATIONS: u32 = 8;
const NUM_REDUCES: u32 = 20;
const MEASURED_RUNS: usize = 3;
const REGRESSION_PCT: f64 = 25.0;

fn baseline_path() -> std::path::PathBuf {
    // crates/bench -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_mem.json")
}

fn spec() -> IterativeSpec {
    let mut mem = MemConfig::scaled_for_tests();
    mem.mem_mode = MemMode::AlgFcm;
    mem.mem_max_chain_iterations = ITERATIONS;
    // Never converge early: the bench wants a fixed amount of work.
    mem.mem_convergence_epsilon_micro = 1;
    IterativeSpec { workload: Arc::new(Pagerank::small()), num_reduces: NUM_REDUCES, seed: SEED, mem }
}

fn run_once() -> ChainReport {
    let s = spec();
    let mut engine = SimChainEngine::paper(WorkloadKind::Pagerank, &s);
    run_chain(&mut engine, &s, Some(CrashPlan { node: 1, iteration: 3 }))
}

/// One timed run: (elapsed microseconds, resident hits, iterations).
#[allow(clippy::disallowed_methods, reason = "perf harness measures host time by design")]
fn timed_run() -> (u64, u64, u64) {
    let start = std::time::Instant::now();
    let report = run_once();
    let elapsed_us = start.elapsed().as_micros() as u64;
    assert!(report.runs.iter().all(|r| r.run.succeeded), "bench chain must complete every job");
    assert_eq!(report.iterations_lost, 0, "ALG+FCM chain must lose nothing");
    (elapsed_us, report.store.hits, u64::from(report.iterations_completed))
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

struct Measurement {
    wall_clock_per_iteration_us: u64,
    resident_hits: u64,
    iterations: u64,
}

fn measure() -> Measurement {
    let _ = timed_run(); // warmup: page in code, warm the allocator
    let runs: Vec<(u64, u64, u64)> = (0..MEASURED_RUNS).map(|_| timed_run()).collect();
    let med_us = median(runs.iter().map(|(us, _, _)| *us).collect());
    let (_, hits, iterations) = runs[0];
    assert!(runs.iter().all(|&(_, h, _)| h == hits), "resident-hit counts must be identical across runs");
    Measurement { wall_clock_per_iteration_us: (med_us / iterations).max(1), resident_hits: hits, iterations }
}

fn render(m: &Measurement) -> String {
    use serde_json::Value;
    let root = Value::Object(vec![
        ("bench".to_string(), Value::Str("bench_mem".to_string())),
        ("seed".to_string(), Value::U64(SEED)),
        ("num_reduces".to_string(), Value::U64(NUM_REDUCES as u64)),
        ("iterations".to_string(), Value::U64(m.iterations)),
        ("resident_hits".to_string(), Value::U64(m.resident_hits)),
        ("measured_runs".to_string(), Value::U64(MEASURED_RUNS as u64)),
        ("wall_clock_per_iteration_us".to_string(), Value::U64(m.wall_clock_per_iteration_us)),
    ]);
    let mut s = serde_json::to_string_pretty(&root).expect("bench json");
    s.push('\n');
    s
}

/// Extract `"key": <u64>` from the committed baseline without needing the
/// full report type — the file is flat by construction.
fn field_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let digits: String = line.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn main() {
    let bless = std::env::args().any(|a| a == "--bless");

    let m = measure();
    let actual = render(&m);
    let path = baseline_path();

    if bless {
        std::fs::write(&path, &actual).expect("write bench baseline");
        println!("bench_mem: blessed {} ({} us/iteration)", path.display(), m.wall_clock_per_iteration_us);
        return;
    }

    print!("{actual}");
    let baseline = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "bench_mem: cannot read baseline {} ({e}); run with --bless to create it",
                path.display()
            );
            std::process::exit(2);
        }
    };
    let base_us = field_u64(&baseline, "wall_clock_per_iteration_us")
        .expect("baseline has wall_clock_per_iteration_us");
    let limit = base_us as f64 * (1.0 + REGRESSION_PCT / 100.0);
    if (m.wall_clock_per_iteration_us as f64) > limit {
        eprintln!(
            "bench_mem: REGRESSION — {} us/iteration vs baseline {} us/iteration (limit {:.0}); \
             investigate, or re-bless with rationale if the slowdown is intentional",
            m.wall_clock_per_iteration_us, base_us, limit
        );
        std::process::exit(1);
    }
    println!(
        "bench_mem: OK — {} us/iteration within {REGRESSION_PCT}% of baseline {} us/iteration{}",
        m.wall_clock_per_iteration_us,
        base_us,
        if (m.wall_clock_per_iteration_us as f64) < base_us as f64 * 0.75 {
            " (much faster: consider --bless to ratchet the bar down)"
        } else {
            ""
        }
    );
}
