//! The metric registry: every name the benchmark may print, with its unit.
//!
//! The root `BENCHMARK.json` declares the same two lists (a test holds the
//! two in step), and a run prints *every* metric of the list its mode
//! selects: `--trace 0` the end-to-end ones, `--trace 1` the per-layer
//! ones. A per-layer metric of a layer the workload never enters is
//! printed as 0 — "this workload does not touch that layer" is itself the
//! prediction later changes are held to.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees. Measured with tracing off; lower is
/// better for all of them.
pub const END_TO_END: &[MetricDef] =
    &[def("job_s_p50", "s"), def("job_s_mean", "s"), def("peak_rss_mb", "MB"), def("setup_s", "s")];

/// Single-layer numbers from the traced run: spans around calls into each
/// crate, engine counters, and single-threaded layer replays. Units say
/// what the number is per (`s/call` is mean seconds per call of the span,
/// `s/job` seconds per primary job, `sim_s` simulated seconds).
pub const PER_LAYER: &[MetricDef] = &[
    // harness
    def("trace_overhead_share", "ratio"),
    def("harness.job_s_p95", "s/job"),
    // the paper's two differences, from interleaved job pairs
    def("runtime.ref_job_s_p50", "s/job"),
    def("alg_overhead_s", "s/job"),
    def("recovery_delay_s", "s/job"),
    // chaos
    def("chaos.lower.busy_s", "s/call"),
    def("chaos.analyze.busy_s", "s/call"),
    // sim
    def("sim.new.busy_s", "s/call"),
    def("sim.run.busy_s", "s/call"),
    def("sim.run.share_of_loop", "ratio"),
    def("sim.events", "count"),
    def("sim.ns_per_event", "ns/event"),
    def("sim.mode.baseline.job_s_p50", "s/job"),
    def("sim.mode.alg.job_s_p50", "s/job"),
    def("sim.mode.sfm.job_s_p50", "s/job"),
    def("sim.mode.sfmalg.job_s_p50", "s/job"),
    def("sim.report_crc32", "count"),
    def("sim.job_secs_sum", "sim_s"),
    def("sim.jobs_unfinished", "count"),
    // des (replay)
    def("des.queue.hold_ns.p64", "ns/op"),
    def("des.queue.hold_ns.p1k", "ns/op"),
    def("des.queue.hold_ns.p16k", "ns/op"),
    def("des.queue.cancel_ns", "ns/op"),
    def("des.flow.cycle_ns.k8", "ns/op"),
    def("des.flow.cycle_ns.k64", "ns/op"),
    def("des.queue.share_of_sim", "ratio"),
    // sched
    def("sched.new.busy_s", "s/call"),
    def("sched.run.busy_s", "s/call"),
    def("sched.run.share_of_loop", "ratio"),
    def("sched.events", "count"),
    def("sched.ns_per_event", "ns/event"),
    def("sched.ns_per_event.small", "ns/event"),
    def("sched.scaling_ratio", "ratio"),
    def("sched.report_crc32", "count"),
    // runtime
    def("runtime.cluster_new.busy_s", "s/call"),
    def("runtime.run_job.busy_s", "s/call"),
    def("runtime.cpu_per_job_s", "s/job"),
    def("runtime.parallelism", "ratio"),
    def("runtime.replay_cpu_s", "s/job"),
    def("runtime.accounted_share", "ratio"),
    def("runtime.residue_s", "s/job"),
    def("runtime.map_attempts", "count/job"),
    def("runtime.reduce_attempts", "count/job"),
    def("runtime.fcm_attempts", "count/job"),
    def("runtime.failures", "count/job"),
    def("runtime.alg_records", "count/job"),
    def("runtime.log_recoveries", "count/job"),
    def("runtime.crash.first_failure_at_s", "s/job"),
    def("runtime.crash.post_detect_s", "s/job"),
    // workloads (replay)
    def("workloads.gen_split.mb_per_s", "MB/s"),
    def("workloads.gen_split.busy_s", "s/call"),
    def("workloads.reference.busy_s", "s/call"),
    // shuffle (replay)
    def("shuffle.kvbuffer.mb_per_s", "MB/s"),
    def("shuffle.kvbuffer.busy_s", "s/call"),
    def("shuffle.kvbuffer.spill.mb_per_s", "MB/s"),
    def("shuffle.kvbuffer.combine.mb_per_s", "MB/s"),
    def("shuffle.mof.read_mb_per_s", "MB/s"),
    def("shuffle.mof.read.busy_s", "s/call"),
    def("shuffle.frame.crc32_mb_per_s", "MB/s"),
    def("shuffle.frame.roundtrip_mb_per_s", "MB/s"),
    def("shuffle.fetcher.ingest_mb_per_s", "MB/s"),
    def("shuffle.fetcher.busy_s", "s/call"),
    def("shuffle.mpq.merge_mb_per_s.k6", "MB/s"),
    def("shuffle.mpq.merge_mb_per_s.k64", "MB/s"),
    def("shuffle.mpq.reduce.busy_s", "s/call"),
    def("shuffle.merger.factor_merge_mb_per_s", "MB/s"),
    // core.alg (replay)
    def("alg.append.us_per_record", "us/record"),
    def("alg.flush.busy_s", "s/call"),
    def("alg.flush.mb_written_per_job", "MB/job"),
    def("alg.flush.write_amplification", "ratio"),
    def("alg.recover.us.r1", "us/call"),
    def("alg.recover.us.r16", "us/call"),
    def("alg.recover.us.r128", "us/call"),
    def("alg.restore.mb_per_s", "MB/s"),
    // core.sfm (replay)
    def("fcm.collective.mb_per_s.n4", "MB/s"),
    def("fcm.single.mb_per_s.n4", "MB/s"),
    def("fcm.speedup", "ratio"),
    // dfs (replay)
    def("dfs.write.mb_per_s.1m", "MB/s"),
    def("dfs.write.mb_per_s.8m", "MB/s"),
    def("dfs.overwrite.mb_per_s", "MB/s"),
    def("dfs.read.mb_per_s", "MB/s"),
    def("dfs.repair.mb_per_s", "MB/s"),
    def("dfs.commit.busy_s", "s/call"),
];

/// Values gathered during one run, keyed by registered name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record `value` under `name`. Panics on a name neither list
    /// declares: an unregistered metric would be silently dropped from the
    /// output, which is the kind of harness bug this crate exists to not
    /// have.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((def.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every metric of `list` in declaration order; one the run never set
    /// reads 0.
    pub fn in_order<'a>(&'a self, list: &'a [MetricDef]) -> impl Iterator<Item = (&'a MetricDef, f64)> + 'a {
        list.iter().map(|d| (d, self.get(d.name).unwrap_or(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|e| e.name != d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{} too long", d.name);
            assert!(d.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{}", d.name);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{}", d.unit);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_names_are_rejected() {
        Metrics::new().set("no.such.metric", 1.0);
    }

    #[test]
    fn unset_metrics_read_zero_and_order_is_the_registry_order() {
        let mut m = Metrics::new();
        m.set("setup_s", 1.5);
        m.set("setup_s", 2.5);
        let got: Vec<(&str, f64)> = m.in_order(END_TO_END).map(|(d, v)| (d.name, v)).collect();
        assert_eq!(got[0], ("job_s_p50", 0.0));
        assert_eq!(got[3], ("setup_s", 2.5));
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Array(items) = doc.field(key) else { panic!("BENCHMARK.json: `{key}` must be an array") };
        items
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("BENCHMARK.json: every `{key}` entry needs a name and a unit"),
            })
            .collect()
    }

    /// The contract file and the binary must name the same metrics.
    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut want: Vec<(String, String)> =
                list.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
            let mut got = declared(&doc, key);
            want.sort();
            got.sort();
            assert_eq!(got, want, "`{key}` in BENCHMARK.json differs from the registry");
        }
        let Value::Array(workloads) = doc.field("workloads") else { panic!("workloads must be an array") };
        let mut names: Vec<&str> = workloads
            .iter()
            .map(|w| match w.field("name") {
                Value::Str(n) => n.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        names.sort_unstable();
        let mut want = crate::workloads::NAMES.to_vec();
        want.sort_unstable();
        assert_eq!(names, want);
        assert_eq!(doc.field("run_seconds"), &Value::I64(crate::args::DEFAULT_SECONDS as i64));
    }
}
