//! `--repeat N`: run the workload N times, each in a fresh child process
//! exactly as a single run would be started, and print every metric's
//! median, quartiles and relative spread.
//!
//! Children rather than an in-process loop, because two of the metrics are
//! per-process: `peak_rss_mb` is a high-water mark, and a second set-up in
//! a warm process is not the set-up a user pays.

use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::args::Args;
use crate::stats;

/// `(name, unit, value)` for every metric on a run's final JSON line, or
/// why the line is not a passing result.
fn parse_result_line(line: &str) -> Result<Vec<(String, String, f64)>, String> {
    let doc = serde_json::parse_value_complete(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    if doc.field("correct") != &Value::Bool(true) {
        return Err("the run reported correct=false".into());
    }
    let Value::Object(metrics) = doc.field("metrics") else { return Err("no `metrics` object".into()) };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.field("value") {
                Value::F64(v) => *v,
                Value::I64(v) => *v as f64,
                Value::U64(v) => *v as f64,
                _ => return Err(format!("metric `{name}` has no numeric value")),
            };
            let Value::Str(unit) = m.field("unit") else {
                return Err(format!("metric `{name}` has no unit"));
            };
            Ok((name.clone(), unit.clone(), value))
        })
        .collect()
}

pub fn run(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("alm-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    // Metric name → (unit, one value per run), in first-seen order.
    let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..args.repeat {
        let seed = args.seed + u64::from(i) * args.seed_step;
        let child = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("alm-benchmark: run {i} did not start: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout.lines().last().ok_or_else(|| "no output".to_string()).and_then(parse_result_line);
        let metrics = match parsed {
            Ok(m) if output.status.success() => m,
            other => {
                eprintln!(
                    "alm-benchmark: run {i} (seed {seed}) failed: {}\n{}",
                    other.err().unwrap_or_else(|| format!("exit {}", output.status)),
                    String::from_utf8_lossy(&output.stderr)
                );
                return ExitCode::from(1);
            }
        };
        for (name, unit, value) in metrics {
            match table.iter_mut().find(|(n, _, _)| *n == name) {
                Some(row) => row.2.push(value),
                None => table.push((name, unit, vec![value])),
            }
        }
        eprintln!("run {}/{} (seed {seed}) done", i + 1, args.repeat);
    }

    println!(
        "workload {} seeds {}+{}k trace {} runs {}",
        args.workload,
        args.seed,
        args.seed_step,
        u8::from(args.trace),
        args.repeat
    );
    println!("| metric | unit | median | q1 | q3 | spread (q3-q1)/median |");
    println!("|---|---|---|---|---|---|");
    for (name, unit, values) in &table {
        let median = stats::median(values).unwrap_or(0.0);
        let [q1, _, q3] = stats::quartiles(values).unwrap_or([median; 3]);
        let spread = stats::relative_spread(values).map_or("-".to_string(), |s| format!("{s:.4}"));
        println!("| {name} | {unit} | {median:.6} | {q1:.6} | {q3:.6} | {spread} |");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_failures_are_refused() {
        let ok = r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"a":{"value":1.5,"unit":"s"},"n":{"value":3,"unit":"count"}}}"#;
        assert_eq!(
            parse_result_line(ok).unwrap(),
            vec![("a".into(), "s".into(), 1.5), ("n".into(), "count".into(), 3.0)]
        );
        let failed = r#"{"correct":false,"attempted":4,"failed":1,"metrics":{}}"#;
        assert!(parse_result_line(failed).is_err());
        assert!(parse_result_line("workload x: done").is_err());
    }
}
