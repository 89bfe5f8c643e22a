//! MapTask execution.
//!
//! Regenerates its input split deterministically, runs the map function
//! through the map-side sort buffer (spilling under memory pressure) and
//! commits a MOF on its node's local store.

use crossbeam::channel::Sender;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use alm_shuffle::MapOutputBuffer;
use alm_types::{AttemptId, FailureKind, YarnConfig};

use crate::cluster::NodeHandle;
use crate::events::TaskEvent;
use crate::job::JobDef;

/// Everything a map attempt thread needs.
pub struct MapCtx {
    pub job: Arc<JobDef>,
    pub attempt: AttemptId,
    pub node: Arc<NodeHandle>,
    pub events: Sender<TaskEvent>,
    pub config: YarnConfig,
    /// Self-fail (injected OOM) at this fraction of input processed.
    pub kill_at: Option<f64>,
    /// Cooperative cancellation (task already succeeded elsewhere / job done).
    pub cancelled: Arc<AtomicBool>,
}

/// Run one map attempt on the current thread (callers usually spawn).
pub fn run_map(ctx: MapCtx) {
    let records = ctx.job.workload.gen_split(ctx.attempt.task.index, ctx.job.seed);
    let total = records.len().max(1);
    // Map-side sort buffer sized from the (scaled) map heap.
    let spill_threshold = (ctx.config.map_heap_bytes / 4).max(4096);
    let prefix = format!("map/{}/", ctx.attempt);
    let mut buffer = MapOutputBuffer::new(
        ctx.job.key_cmp(),
        ctx.job.combiner(),
        ctx.job.num_reduces,
        spill_threshold,
        prefix,
    );

    for (i, rec) in records.iter().enumerate() {
        // Safe point: die silently with the node; honour cancellation;
        // straggle if the node is degraded.
        if i % 64 == 0 {
            if !ctx.node.is_alive() {
                return;
            }
            if ctx.cancelled.load(Ordering::Relaxed) {
                return;
            }
            ctx.node.throttle();
            if let Some(kill) = ctx.kill_at {
                if i as f64 / total as f64 >= kill {
                    let _ = ctx.events.send(TaskEvent::TaskFailed {
                        attempt: ctx.attempt,
                        node: ctx.node.id,
                        kind: FailureKind::TaskOom,
                    });
                    return;
                }
            }
        }
        let job = &ctx.job;
        let node_fs = &ctx.node.fs;
        let mut failed = false;
        job.workload.map(rec, &mut |out| {
            if failed {
                return;
            }
            let p = job.workload.partition(&out.key, job.num_reduces);
            if buffer.collect(node_fs, p, out.key, out.value).is_err() {
                failed = true; // node store died mid-spill
            }
        });
        if failed {
            return; // silent death with the node
        }
    }

    if !ctx.node.is_alive() {
        return;
    }
    match buffer.finish(&ctx.node.fs) {
        Ok(mof) => {
            let _ = ctx.events.send(TaskEvent::MapCompleted { attempt: ctx.attempt, node: ctx.node.id, mof });
        }
        Err(_) => {
            // Store died during commit: silent death, AM will detect.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MiniCluster;
    use alm_types::{AlmConfig, JobId, RecoveryMode, TaskId};
    use alm_workloads::Terasort;
    use crossbeam::channel::unbounded;

    fn ctx(c: &MiniCluster, kill_at: Option<f64>) -> (MapCtx, crossbeam::channel::Receiver<TaskEvent>) {
        let (tx, rx) = unbounded();
        let job = Arc::new(JobDef::new(
            JobId(0),
            Arc::new(Terasort::new(500)),
            2,
            3,
            42,
            AlmConfig::with_mode(RecoveryMode::Baseline),
        ));
        (
            MapCtx {
                job,
                attempt: TaskId::map(JobId(0), 0).attempt(0),
                node: c.node(alm_types::NodeId(0)).clone(),
                events: tx,
                config: c.config.clone(),
                kill_at,
                cancelled: Arc::new(AtomicBool::new(false)),
            },
            rx,
        )
    }

    #[test]
    fn successful_map_commits_mof() {
        let c = MiniCluster::for_tests(2);
        let (ctx, rx) = ctx(&c, None);
        run_map(ctx);
        // The commit is the attempt's only event.
        match rx.try_recv().unwrap() {
            TaskEvent::MapCompleted { mof, .. } => {
                assert_eq!(mof.num_partitions(), 3);
                assert!(mof.total_bytes() > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(rx.try_recv().is_err(), "a map attempt sends no progress events");
    }

    #[test]
    fn injected_oom_reports_failure() {
        let c = MiniCluster::for_tests(2);
        let (ctx, rx) = ctx(&c, Some(0.5));
        run_map(ctx);
        let mut saw_failure = false;
        while let Ok(ev) = rx.try_recv() {
            match ev {
                TaskEvent::TaskFailed { kind: FailureKind::TaskOom, .. } => saw_failure = true,
                TaskEvent::MapCompleted { .. } => panic!("must not complete after injected OOM"),
                _ => {}
            }
        }
        assert!(saw_failure);
    }

    #[test]
    fn dead_node_dies_silently() {
        let c = MiniCluster::for_tests(2);
        let (ctx, rx) = ctx(&c, None);
        c.crash_node(alm_types::NodeId(0));
        run_map(ctx);
        assert!(rx.try_recv().is_err(), "no events from a map on a dead node");
    }

    #[test]
    fn cancelled_map_exits_without_commit() {
        let c = MiniCluster::for_tests(2);
        let (mut mctx, rx) = ctx(&c, None);
        mctx.cancelled = Arc::new(AtomicBool::new(true));
        run_map(mctx);
        assert!(rx.try_recv().is_err(), "no events from a cancelled task");
    }
}
