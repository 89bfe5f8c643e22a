//! From a finished measurement to what gets printed.

use crate::args::Args;
use crate::clock;
use crate::harness::{Measurement, Role, Workload};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Recorder;

/// The end-to-end metrics, from untraced ops only. `job_s_*` are per
/// simulated job (`warehouse` divides a campaign's wall by its job count).
pub fn end_to_end<W: Workload>(m: &Measurement<W>, out: &mut Metrics) {
    let per_job = m.workload.jobs_per_op();
    let secs = m.op_secs(Role::Primary, true);
    out.set("job_s_p50", stats::median(&secs).unwrap_or(0.0) / per_job);
    out.set("job_s_mean", stats::mean(&secs).unwrap_or(0.0) / per_job);
    out.set("peak_rss_mb", clock::peak_rss_mb());
    out.set("setup_s", m.setup_s);
}

/// Seconds of the spans named `name` over the traced cycles, as a share of
/// those cycles' wall time.
pub fn share_of_traced_wall<W: Workload>(m: &Measurement<W>, name: &str) -> f64 {
    let wall: f64 = m.cycle_walls.iter().filter(|(traced, _)| *traced).map(|(_, w)| *w).sum();
    let busy = m.recorder.busy_by_name().get(name).map_or(0.0, |(secs, _)| *secs);
    if wall > 0.0 {
        busy / wall
    } else {
        0.0
    }
}

/// Metrics every traced run derives from its spans: `<span>.busy_s` — mean
/// seconds per call — for every span name with a registered metric, the
/// tracing overhead, and the tail percentile where the sample count
/// supports one.
pub fn span_metrics<W: Workload>(m: &Measurement<W>, out: &mut Metrics) {
    for (name, (secs, calls)) in m.recorder.busy_by_name() {
        let metric = format!("{name}.busy_s");
        if PER_LAYER.iter().any(|d| d.name == metric) {
            out.set(&metric, secs / calls as f64);
        }
    }
    out.set("trace_overhead_share", m.trace_overhead_share().unwrap_or(0.0));
    let untraced = m.op_secs(Role::Primary, true);
    if let Some(p95) = stats::tail_percentile(&untraced, 0.95) {
        out.set("harness.job_s_p95", p95 / m.workload.jobs_per_op());
    }
}

/// Write the spans to `<out-dir>/trace-<workload>.json`.
pub fn write_trace(rec: &Recorder, args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, rec.to_json(&args.workload, args.seed))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", rec.spans().len(), path.display());
    Ok(())
}

/// The human-readable header: what ran, how much, and the op timings with
/// their sample counts.
pub fn print_summary<W: Workload>(m: &Measurement<W>, args: &Args) {
    let per_job = m.workload.jobs_per_op();
    let primary = m.op_secs(Role::Primary, true);
    let reference = m.op_secs(Role::Reference, true);
    println!(
        "workload {} seed {} trace {}: {} cycles, {} ops, loop {:.3} s, {} cores",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.cycle_walls.len(),
        m.attempted(),
        m.loop_wall_s,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("failed_share {} ({} failed / {} attempted)", m.failed_share(), m.failed(), m.attempted());
    let line = |label: &str, value: Option<f64>, n: usize| match value {
        Some(v) => println!("{label:<28} {:>14.6} s  (n={n}, untraced)", v / per_job),
        None => println!("{label:<28} {:>14}    (n={n}: too few samples)", "-"),
    };
    line("job_s_p50", stats::median(&primary), primary.len());
    line("job_s_mean", stats::mean(&primary), primary.len());
    line("job_s_p95", stats::tail_percentile(&primary, 0.95), primary.len());
    // Drift within the run shows here before it shows in a spread.
    let per_cycle: Vec<String> = (0..m.cycle_walls.len())
        .filter_map(|c| {
            let secs: Vec<f64> = m
                .ops
                .iter()
                .filter(|o| o.cycle == c && o.outcome.role == Role::Primary)
                .map(|o| o.outcome.secs / per_job)
                .collect();
            stats::median(&secs).map(|p50| format!("{p50:.6}"))
        })
        .collect();
    println!("job_s_p50 per cycle          {}", per_cycle.join(" "));
    if !reference.is_empty() {
        line("reference job_s_p50", stats::median(&reference), reference.len());
        let delta = stats::median(&primary).zip(stats::median(&reference)).map(|(p, r)| p - r);
        line("primary p50 - reference p50", delta, primary.len().min(reference.len()));
    }
}

/// What the final JSON line carries.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn new<W: Workload>(m: &Measurement<W>, values: &Metrics, trace: bool) -> RunResult {
        let list = if trace { PER_LAYER } else { END_TO_END };
        RunResult {
            correct: m.correct(),
            attempted: m.attempted(),
            failed: m.failed(),
            metrics: values.in_order(list).map(|(d, v)| (d.name, v, d.unit)).collect(),
        }
    }

    /// One line per metric, then nothing else: the caller prints the JSON
    /// line last.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>18.6} {unit}");
        }
    }

    pub fn to_json_line(&self) -> String {
        use serde_json::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(*value)),
                    ("unit".into(), Value::Str((*unit).into())),
                ]);
                ((*name).to_string(), entry)
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("result serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 48,
            failed: 0,
            metrics: vec![("job_s_p50", 0.221_734, "s"), ("setup_s", 1.0, "s")],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let doc = serde_json::parse_value_complete(&line).unwrap();
        let Value::Object(top) = &doc else { panic!("not an object") };
        assert_eq!(
            top.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(doc.field("attempted"), &Value::I64(48));
        let p50 = doc.field("metrics").field("job_s_p50");
        assert_eq!(p50.field("value"), &Value::F64(0.221_734));
        assert_eq!(p50.field("unit"), &Value::Str("s".into()));
    }
}
