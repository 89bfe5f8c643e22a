//! Warehouse campaign results.
//!
//! A [`WarehouseReport`] is the per-job record of one multi-tenant run plus
//! the aggregations the experiments read off it: per-tenant latency
//! percentiles and mean slowdown ([`WarehouseReport::per_tenant_rows`]) and
//! the *cross-tenant amplification* factor — how much a tenant that lost
//! **no** tasks to the fault still slowed down, purely through scheduler
//! contention with the wounded tenant's recovery work.
//!
//! `canonical_json` follows the repo's golden-gate discipline: hand-built
//! [`Value`] trees with a fixed key order and every time quantised to
//! integer milliseconds (ratios to parts-per-thousand), so equal runs are
//! byte-equal and goldens survive formatting churn.

use alm_metrics::{p50, p99, TextTable};
use alm_types::RecoveryMode;
use serde::{Serialize, Value};
use serde_json::to_string_pretty;

/// Outcome of one job submission.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// Index in the submitted job list.
    pub job: u32,
    /// Global arrival sequence number (FIFO order).
    pub seq: u64,
    pub tenant: u32,
    pub tenant_name: String,
    pub arrival_secs: f64,
    /// First task launch; -1 if the job never started.
    pub start_secs: f64,
    /// Completion; -1 if the job never finished (e.g. the cluster died).
    pub finish_secs: f64,
    /// `finish - arrival`; -1 if unfinished.
    pub latency_secs: f64,
    /// The job alone on an empty, healthy cluster — the slowdown
    /// denominator.
    pub ideal_secs: f64,
    /// `latency / ideal`; -1 if unfinished. 1.0 means no queueing and no
    /// fault delay at all.
    pub slowdown: f64,
    pub map_attempts: u32,
    pub reduce_attempts: u32,
    /// Total task-failure records (node-loss + fetch-failure preemptions).
    pub failures: u32,
    /// `FetchFailureLimit` preemptions — the spatial amplification signal.
    pub fetch_failures: u32,
    pub node_loss_failures: u32,
    /// SFM reducer suspensions (paused, not failed).
    pub fcm_attempts: u32,
    pub succeeded: bool,
}

/// Per-tenant aggregation of a warehouse run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantRow {
    pub tenant: String,
    pub jobs: u32,
    pub finished: u32,
    pub p50_latency_secs: f64,
    pub p99_latency_secs: f64,
    /// Mean slowdown over *finished* jobs; -1 when none finished.
    pub mean_slowdown: f64,
    pub failures: u32,
    pub fetch_failures: u32,
    pub reduce_attempts: u32,
}

/// Result of one multi-tenant warehouse simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WarehouseReport {
    /// `SchedPolicyKind::as_str()` of the arbitrating policy.
    pub policy: String,
    pub mode: RecoveryMode,
    pub seed: u64,
    /// Worker nodes in the cluster.
    pub nodes: u32,
    /// Tenant names, in tenant-id order.
    pub tenants: Vec<String>,
    /// Per-job outcomes, in global arrival order.
    pub jobs: Vec<JobOutcome>,
    /// DES events processed — the denominator of events/sec.
    pub events: u64,
    /// Virtual time at which the simulation drained.
    pub horizon_secs: f64,
}

impl WarehouseReport {
    /// Per-tenant latency/slowdown aggregation, in tenant-id order.
    pub fn per_tenant_rows(&self) -> Vec<TenantRow> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let mine: Vec<&JobOutcome> = self.jobs.iter().filter(|j| j.tenant == t as u32).collect();
                let latencies: Vec<f64> =
                    mine.iter().filter(|j| j.succeeded).map(|j| j.latency_secs).collect();
                let slowdowns: Vec<f64> = mine.iter().filter(|j| j.succeeded).map(|j| j.slowdown).collect();
                TenantRow {
                    tenant: name.clone(),
                    jobs: mine.len() as u32,
                    finished: latencies.len() as u32,
                    p50_latency_secs: p50(&latencies),
                    p99_latency_secs: p99(&latencies),
                    mean_slowdown: if slowdowns.is_empty() {
                        -1.0
                    } else {
                        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
                    },
                    failures: mine.iter().map(|j| j.failures).sum(),
                    fetch_failures: mine.iter().map(|j| j.fetch_failures).sum(),
                    reduce_attempts: mine.iter().map(|j| j.reduce_attempts).sum(),
                }
            })
            .collect()
    }

    /// Worst mean slowdown among tenants that recorded **zero** task
    /// failures: how hard the fault hit tenants it never touched, purely
    /// through scheduler contention. -1 when no such tenant finished work.
    pub fn cross_tenant_amplification(&self) -> f64 {
        self.per_tenant_rows()
            .iter()
            .filter(|r| r.failures == 0 && r.finished > 0)
            .map(|r| r.mean_slowdown)
            .fold(-1.0, f64::max)
    }

    /// All jobs finished.
    pub fn succeeded(&self) -> bool {
        self.jobs.iter().all(|j| j.succeeded)
    }

    /// Human-readable run summary: a header line, the per-tenant table,
    /// and the cross-tenant amplification factor.
    pub fn render_text(&self) -> String {
        let mut t = TextTable::new(
            format!(
                "warehouse: policy={} mode={:?} seed={} nodes={} jobs={} events={} horizon={:.0}s",
                self.policy,
                self.mode,
                self.seed,
                self.nodes,
                self.jobs.len(),
                self.events,
                self.horizon_secs
            ),
            &[
                "tenant",
                "jobs",
                "done",
                "p50 lat (s)",
                "p99 lat (s)",
                "mean slowdown",
                "failures",
                "fetch-fail",
            ],
        );
        for r in self.per_tenant_rows() {
            t.row(&[
                r.tenant.clone(),
                r.jobs.to_string(),
                r.finished.to_string(),
                format!("{:.1}", r.p50_latency_secs),
                format!("{:.1}", r.p99_latency_secs),
                format!("{:.2}", r.mean_slowdown),
                r.failures.to_string(),
                r.fetch_failures.to_string(),
            ]);
        }
        let mut out = t.render_text();
        out.push_str(&format!("cross-tenant amplification: {:.2}\n", self.cross_tenant_amplification()));
        out
    }

    /// Byte-stable canonical form: fixed key order, times quantised to
    /// integer milliseconds, ratios to parts-per-thousand. Wall-clock
    /// quantities (there are none in this struct by design) never appear.
    pub fn canonical_json(&self) -> String {
        let ms = |s: f64| Value::I64(if s < 0.0 { -1 } else { (s * 1000.0).round() as i64 });
        let milli = |x: f64| Value::I64(if x < 0.0 { -1000 } else { (x * 1000.0).round() as i64 });
        let jobs: Vec<Value> = self
            .jobs
            .iter()
            .map(|j| {
                Value::Object(vec![
                    ("job".into(), Value::U64(j.job as u64)),
                    ("seq".into(), Value::U64(j.seq)),
                    ("tenant".into(), Value::Str(j.tenant_name.clone())),
                    ("arrival_ms".into(), ms(j.arrival_secs)),
                    ("start_ms".into(), ms(j.start_secs)),
                    ("finish_ms".into(), ms(j.finish_secs)),
                    ("latency_ms".into(), ms(j.latency_secs)),
                    ("ideal_ms".into(), ms(j.ideal_secs)),
                    ("slowdown_milli".into(), milli(j.slowdown)),
                    ("map_attempts".into(), Value::U64(j.map_attempts as u64)),
                    ("reduce_attempts".into(), Value::U64(j.reduce_attempts as u64)),
                    ("failures".into(), Value::U64(j.failures as u64)),
                    ("fetch_failures".into(), Value::U64(j.fetch_failures as u64)),
                    ("node_loss_failures".into(), Value::U64(j.node_loss_failures as u64)),
                    ("fcm_attempts".into(), Value::U64(j.fcm_attempts as u64)),
                    ("succeeded".into(), Value::Bool(j.succeeded)),
                ])
            })
            .collect();
        let tenants: Vec<Value> = self
            .per_tenant_rows()
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("tenant".into(), Value::Str(r.tenant.clone())),
                    ("jobs".into(), Value::U64(r.jobs as u64)),
                    ("finished".into(), Value::U64(r.finished as u64)),
                    ("p50_latency_ms".into(), ms(r.p50_latency_secs)),
                    ("p99_latency_ms".into(), ms(r.p99_latency_secs)),
                    ("mean_slowdown_milli".into(), milli(r.mean_slowdown)),
                    ("failures".into(), Value::U64(r.failures as u64)),
                    ("fetch_failures".into(), Value::U64(r.fetch_failures as u64)),
                    ("reduce_attempts".into(), Value::U64(r.reduce_attempts as u64)),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("policy".into(), Value::Str(self.policy.clone())),
            ("mode".into(), Value::Str(format!("{:?}", self.mode))),
            ("seed".into(), Value::U64(self.seed)),
            ("nodes".into(), Value::U64(self.nodes as u64)),
            ("horizon_ms".into(), ms(self.horizon_secs)),
            ("events".into(), Value::U64(self.events)),
            ("cross_tenant_amplification_milli".into(), milli(self.cross_tenant_amplification())),
            ("tenants".into(), Value::Array(tenants)),
            ("jobs".into(), Value::Array(jobs)),
        ]);
        to_string_pretty(&root).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: u32, name: &str, latency: f64, ideal: f64, failures: u32) -> JobOutcome {
        JobOutcome {
            job: 0,
            seq: 0,
            tenant,
            tenant_name: name.into(),
            arrival_secs: 0.0,
            start_secs: 1.0,
            finish_secs: latency,
            latency_secs: latency,
            ideal_secs: ideal,
            slowdown: latency / ideal,
            map_attempts: 1,
            reduce_attempts: 1,
            failures,
            fetch_failures: 0,
            node_loss_failures: failures,
            fcm_attempts: 0,
            succeeded: true,
        }
    }

    fn report() -> WarehouseReport {
        WarehouseReport {
            policy: "fair".into(),
            mode: RecoveryMode::Baseline,
            seed: 7,
            nodes: 100,
            tenants: vec!["a".into(), "b".into()],
            jobs: vec![job(0, "a", 200.0, 100.0, 3), job(1, "b", 150.0, 100.0, 0)],
            events: 42,
            horizon_secs: 200.0,
        }
    }

    #[test]
    fn tenant_rows_aggregate_in_tenant_order() {
        let rows = report().per_tenant_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tenant, "a");
        assert_eq!(rows[0].failures, 3);
        assert!((rows[1].mean_slowdown - 1.5).abs() < 1e-12);
    }

    #[test]
    fn amplification_reads_untouched_tenants_only() {
        // Tenant b lost no tasks yet runs 1.5x slower: amplification 1.5.
        assert!((report().cross_tenant_amplification() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn canonical_json_is_stable_and_quantised() {
        let r = report();
        assert_eq!(r.canonical_json(), r.canonical_json());
        assert!(r.canonical_json().contains("\"slowdown_milli\": 2000"));
        assert!(r.canonical_json().contains("\"cross_tenant_amplification_milli\": 1500"));
    }

    #[test]
    fn render_text_mentions_each_tenant() {
        let txt = report().render_text();
        assert!(txt.contains("a"));
        assert!(txt.contains("cross-tenant amplification: 1.50"));
    }
}
