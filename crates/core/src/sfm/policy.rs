//! Algorithm 1: the Enhanced Failure Recovery Scheduling Policy.
//!
//! A pure function from a [`FailureReport`] plus scheduler context to a
//! list of scheduling actions, so both engines (threads and DES) execute
//! the identical policy and tests can enumerate its behaviour exhaustively.
//!
//! Line-by-line correspondence with the paper's listing is noted inline.

use alm_types::{AlmConfig, FailureReport, NodeId, TaskId};
use std::collections::BTreeMap;

/// How a recovery ReduceTask attempt executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Plain ReduceTask (fetch + merge + reduce itself).
    Regular,
    /// Fast Collective Merging: participants pre-merge and stream.
    Fcm,
}

/// One scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedAction {
    /// Lines 5–7: re-execute a MapTask (failed, or its MOF was lost) on a
    /// healthy node, at elevated priority, so MOFs are regenerated before
    /// reducers stall — this is what kills spatial/temporal amplification.
    LaunchMap { task: TaskId, high_priority: bool },
    /// Lines 9–12: the source node still lives, so re-launch the failed
    /// ReduceTask *there*, where its local analytics logs and intermediate
    /// files survive.
    RelaunchReduceOnOrigin { task: TaskId, node: NodeId },
    /// Lines 14–21: a speculative recovery attempt on a healthy node,
    /// in FCM mode while the job-wide FCM budget lasts.
    LaunchSpeculativeReduce { task: TaskId, mode: ExecMode, avoid: Option<NodeId> },
}

/// Algorithm 1, line 14: a speculative recovery attempt is spawned only
/// while the number of running attempts of the task is <= this.
pub const MAX_RUNNING_FOR_SPECULATION: u32 = 2;

/// Scheduler-side context the policy needs.
#[derive(Debug, Clone)]
pub struct PolicyCtx {
    /// Algorithm 1 line 10: `limit_local`.
    pub limit_local: u32,
    /// Line 16: `FCM_cap`.
    pub fcm_cap: usize,
    /// FCM-mode recovery tasks currently running in the job.
    pub fcm_tasks_running: usize,
    /// Per failed ReduceTask: attempts already made on the source node.
    pub attempts_on_source_node: BTreeMap<TaskId, u32>,
    /// Per failed ReduceTask: attempts currently running elsewhere.
    pub running_attempts: BTreeMap<TaskId, u32>,
}

impl PolicyCtx {
    pub fn new(config: &AlmConfig, fcm_tasks_running: usize) -> PolicyCtx {
        PolicyCtx {
            limit_local: config.limit_local,
            fcm_cap: config.fcm_cap,
            fcm_tasks_running,
            attempts_on_source_node: BTreeMap::new(),
            running_attempts: BTreeMap::new(),
        }
    }

    fn attempts_on_node(&self, task: TaskId) -> u32 {
        self.attempts_on_source_node.get(&task).copied().unwrap_or(0)
    }

    fn running(&self, task: TaskId) -> u32 {
        self.running_attempts.get(&task).copied().unwrap_or(0)
    }
}

/// Execute Algorithm 1 over one failure report.
pub fn schedule_recovery(report: &FailureReport, ctx: &PolicyCtx) -> Vec<SchedAction> {
    let mut actions = Vec::new();
    let mut fcm_running = ctx.fcm_tasks_running;

    // Lines 5–7: every failed map / lost MOF is re-executed with higher
    // priority on a healthy node.
    for &m in &report.failed_maps {
        debug_assert!(m.is_map());
        actions.push(SchedAction::LaunchMap { task: m, high_priority: true });
    }

    // Lines 8–22.
    for &r in &report.failed_reduces {
        debug_assert!(r.is_reduce());
        let mut running = ctx.running(r);

        // Lines 9–13: local resume only while the node lives and the
        // local-attempt budget is not exhausted.
        if report.node_alive && ctx.attempts_on_node(r) < ctx.limit_local {
            actions.push(SchedAction::RelaunchReduceOnOrigin { task: r, node: report.source_node });
            running += 1; // the relaunched attempt counts as running below
        }

        // Line 14: spawn a speculative recovery attempt unless enough
        // attempts are already in flight.
        if running <= MAX_RUNNING_FOR_SPECULATION {
            // Lines 15–20: FCM mode while the job-wide cap allows.
            let mode = if fcm_running <= ctx.fcm_cap {
                fcm_running += 1;
                ExecMode::Fcm
            } else {
                ExecMode::Regular
            };
            actions.push(SchedAction::LaunchSpeculativeReduce {
                task: r,
                mode,
                avoid: Some(report.source_node),
            });
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::{FailureKind, JobId, RecoveryMode};

    fn cfg() -> AlmConfig {
        AlmConfig::with_mode(RecoveryMode::SfmAlg)
    }

    fn job() -> JobId {
        JobId(0)
    }

    fn node_crash_report(n_reduces: u32, n_maps: u32) -> FailureReport {
        FailureReport::node_crash(
            NodeId(3),
            (0..n_reduces).map(|i| TaskId::reduce(job(), i)),
            (0..n_maps).map(|i| TaskId::map(job(), i)),
        )
    }

    #[test]
    fn maps_always_relaunched_high_priority() {
        let report = node_crash_report(0, 5);
        let actions = schedule_recovery(&report, &PolicyCtx::new(&cfg(), 0));
        assert_eq!(actions.len(), 5);
        for a in &actions {
            assert!(matches!(a, SchedAction::LaunchMap { high_priority: true, .. }));
        }
    }

    #[test]
    fn dead_node_migrates_reduce_with_fcm() {
        let report = node_crash_report(1, 2);
        let actions = schedule_recovery(&report, &PolicyCtx::new(&cfg(), 0));
        // 2 maps + 1 speculative FCM reduce; NO local relaunch (node dead).
        assert_eq!(actions.len(), 3);
        assert!(actions.iter().any(|a| matches!(
            a,
            SchedAction::LaunchSpeculativeReduce { mode: ExecMode::Fcm, avoid: Some(n), .. } if *n == NodeId(3)
        )));
        assert!(!actions.iter().any(|a| matches!(a, SchedAction::RelaunchReduceOnOrigin { .. })));
    }

    #[test]
    fn live_node_gets_local_resume_plus_speculation() {
        let r = TaskId::reduce(job(), 0);
        let report = FailureReport::task_failure(NodeId(1), FailureKind::TaskOom, r);
        assert!(report.node_alive);
        let actions = schedule_recovery(&report, &PolicyCtx::new(&cfg(), 0));
        assert!(actions.contains(&SchedAction::RelaunchReduceOnOrigin { task: r, node: NodeId(1) }));
        assert!(actions.iter().any(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { .. })));
    }

    #[test]
    fn limit_local_exhausted_falls_back_to_migration_only() {
        let r = TaskId::reduce(job(), 0);
        let report = FailureReport::task_failure(NodeId(1), FailureKind::TaskOom, r);
        let mut ctx = PolicyCtx::new(&cfg(), 0);
        ctx.attempts_on_source_node.insert(r, ctx.limit_local); // budget spent
        let actions = schedule_recovery(&report, &ctx);
        assert!(!actions.iter().any(|a| matches!(a, SchedAction::RelaunchReduceOnOrigin { .. })));
        assert!(actions.iter().any(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { .. })));
    }

    #[test]
    fn speculation_suppressed_when_enough_attempts_running() {
        let r = TaskId::reduce(job(), 0);
        let report = FailureReport::node_crash(NodeId(1), [r], []);
        let mut ctx = PolicyCtx::new(&cfg(), 0);
        ctx.running_attempts.insert(r, 3); // > 2
        let actions = schedule_recovery(&report, &ctx);
        assert!(actions.is_empty(), "no actions: node dead, too many attempts running");
    }

    #[test]
    fn local_relaunch_counts_toward_running_attempts() {
        // With 2 attempts already running and a live node, the local
        // relaunch pushes running to 3 > 2, so speculation is suppressed.
        let r = TaskId::reduce(job(), 0);
        let report = FailureReport::task_failure(NodeId(1), FailureKind::TaskOom, r);
        let mut ctx = PolicyCtx::new(&cfg(), 0);
        ctx.running_attempts.insert(r, 2);
        let actions = schedule_recovery(&report, &ctx);
        assert_eq!(actions, vec![SchedAction::RelaunchReduceOnOrigin { task: r, node: NodeId(1) }]);
    }

    #[test]
    fn fcm_cap_limits_fcm_mode_within_one_report() {
        let mut cfg = cfg();
        cfg.fcm_cap = 2;
        let report = node_crash_report(6, 0);
        let actions = schedule_recovery(&report, &PolicyCtx::new(&cfg, 0));
        let fcm = actions
            .iter()
            .filter(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { mode: ExecMode::Fcm, .. }))
            .count();
        let regular = actions
            .iter()
            .filter(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { mode: ExecMode::Regular, .. }))
            .count();
        // Paper line 16 uses `<=`, so cap+1 FCM tasks can be admitted.
        assert_eq!(fcm, 3);
        assert_eq!(regular, 3);
    }

    #[test]
    fn fcm_cap_accounts_for_already_running_fcm_tasks() {
        let mut cfg = cfg();
        cfg.fcm_cap = 2;
        let report = node_crash_report(2, 0);
        let actions = schedule_recovery(&report, &PolicyCtx::new(&cfg, 10));
        for a in &actions {
            assert!(matches!(a, SchedAction::LaunchSpeculativeReduce { mode: ExecMode::Regular, .. }));
        }
    }

    #[test]
    fn paper_default_cap_is_respected_across_many_failures() {
        let report = node_crash_report(20, 0);
        let actions = schedule_recovery(&report, &PolicyCtx::new(&cfg(), 0));
        let fcm = actions
            .iter()
            .filter(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { mode: ExecMode::Fcm, .. }))
            .count();
        assert_eq!(fcm, 11, "default cap 10 with <= admits 11");
        assert_eq!(actions.len(), 20);
    }
}
