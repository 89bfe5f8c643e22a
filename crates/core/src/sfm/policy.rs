//! The recovery policy: Algorithm 1 and the Baseline/ALG rules it replaces.
//!
//! One pure function from a [`FailureReport`] plus scheduler context to a
//! list of scheduling actions, for every [`RecoveryMode`]: stock YARN
//! re-executes what failed (§II-C), ALG re-launches a failed ReduceTask on
//! the node holding its logs (§III), and SFM runs Algorithm 1, the Enhanced
//! Failure Recovery Scheduling Policy (§IV). This is the one place a
//! recovery decision is made. Both engines (threads and DES) only execute
//! the returned actions, and tests can enumerate the behaviour exhaustively.
//!
//! Line-by-line correspondence with the paper's Algorithm 1 listing is
//! noted inline.

use alm_types::{AlmConfig, FailureReport, NodeId, RecoveryMode, TaskId};
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
    /// Re-execute a MapTask on a healthy node. Under SFM (lines 5–7) the
    /// map failed or its MOF was lost, and it runs at elevated priority, so
    /// MOFs are regenerated before reducers stall — this is what kills
    /// spatial/temporal amplification. Baseline and ALG re-execute a failed
    /// map at normal priority.
    LaunchMap { task: TaskId, high_priority: bool },
    /// Lines 9–12: the source node still lives, so re-launch the failed
    /// ReduceTask *there*, where its local analytics logs and intermediate
    /// files survive.
    RelaunchReduceOnOrigin { task: TaskId, node: NodeId },
    /// Lines 14–21: a speculative recovery attempt on a healthy node,
    /// in FCM mode while the job-wide FCM budget lasts.
    LaunchSpeculativeReduce { task: TaskId, mode: ExecMode, avoid: Option<NodeId> },
    /// Baseline and ALG: re-execute a failed ReduceTask as a regular
    /// attempt, on `prefer` (ALG: the live node holding its newest local
    /// log) when it can be placed there, anywhere otherwise.
    RelaunchReduce { task: TaskId, prefer: Option<NodeId> },
}

/// Algorithm 1, line 14: a speculative recovery attempt is spawned only
/// while the number of running attempts of the task is <= this.
pub const MAX_RUNNING_FOR_SPECULATION: u32 = 2;

/// Scheduler-side context the policy needs.
#[derive(Debug, Clone)]
pub struct PolicyCtx {
    /// Which recovery rules apply.
    pub mode: RecoveryMode,
    /// §IV-B: whether SFM re-executes a failed node's lost MOFs at once
    /// (disabled only by the Fig. 10 ablation).
    pub proactive_map_regen: bool,
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
    /// Per failed ReduceTask: the live node holding its newest local log,
    /// where ALG resumes it.
    pub resume_node: BTreeMap<TaskId, NodeId>,
}

impl PolicyCtx {
    pub fn new(config: &AlmConfig, fcm_tasks_running: usize) -> PolicyCtx {
        PolicyCtx {
            mode: config.mode,
            proactive_map_regen: config.proactive_map_regen,
            limit_local: config.limit_local,
            fcm_cap: config.fcm_cap,
            fcm_tasks_running,
            attempts_on_source_node: BTreeMap::new(),
            running_attempts: BTreeMap::new(),
            resume_node: BTreeMap::new(),
        }
    }

    fn attempts_on_node(&self, task: TaskId) -> u32 {
        self.attempts_on_source_node.get(&task).copied().unwrap_or(0)
    }

    fn running(&self, task: TaskId) -> u32 {
        self.running_attempts.get(&task).copied().unwrap_or(0)
    }
}

/// Decide the recovery of one failure report. Actions come in report
/// order, maps before reduces.
pub fn schedule_recovery(report: &FailureReport, ctx: &PolicyCtx) -> Vec<SchedAction> {
    match ctx.mode {
        RecoveryMode::Baseline => reexecute(report, |_| None),
        // A node-loss relaunch goes anywhere and resumes from whatever
        // reduce-stage log the DFS kept.
        RecoveryMode::Alg => {
            reexecute(report, |r| ctx.resume_node.get(&r).copied().filter(|_| report.node_alive))
        }
        RecoveryMode::Sfm | RecoveryMode::SfmAlg => algorithm_1(report, ctx),
    }
}

/// Stock YARN re-execution: exactly what failed runs again at normal
/// priority. Lost MOFs are left for reducers' fetch failures to discover,
/// which is how one node crash amplifies (§II-C).
fn reexecute(report: &FailureReport, prefer: impl Fn(TaskId) -> Option<NodeId>) -> Vec<SchedAction> {
    let maps = report.failed_maps.iter().map(|&task| SchedAction::LaunchMap { task, high_priority: false });
    let reduces =
        report.failed_reduces.iter().map(|&task| SchedAction::RelaunchReduce { task, prefer: prefer(task) });
    maps.chain(reduces).collect()
}

/// Algorithm 1 over one failure report.
fn algorithm_1(report: &FailureReport, ctx: &PolicyCtx) -> Vec<SchedAction> {
    let mut actions = Vec::new();
    let mut fcm_running = ctx.fcm_tasks_running;

    // Lines 5–7: every failed map, and with proactive regeneration every
    // lost MOF, is re-executed with higher priority on a healthy node.
    let mut maps = report.failed_maps.clone();
    if ctx.proactive_map_regen {
        for &m in &report.lost_mofs {
            if !maps.contains(&m) {
                maps.push(m);
            }
        }
    }
    for m in maps {
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
    use alm_types::JobId;

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

    fn ctx_for(mode: RecoveryMode) -> PolicyCtx {
        PolicyCtx::new(&AlmConfig::with_mode(mode), 0)
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
        let report = FailureReport::task_failure(NodeId(1), true, r);
        let actions = schedule_recovery(&report, &PolicyCtx::new(&cfg(), 0));
        assert!(actions.contains(&SchedAction::RelaunchReduceOnOrigin { task: r, node: NodeId(1) }));
        assert!(actions.iter().any(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { .. })));
    }

    #[test]
    fn limit_local_exhausted_falls_back_to_migration_only() {
        let r = TaskId::reduce(job(), 0);
        let report = FailureReport::task_failure(NodeId(1), true, r);
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
        let report = FailureReport::task_failure(NodeId(1), true, r);
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

    #[test]
    fn lost_mofs_join_after_failed_maps_without_duplicates() {
        let (m0, m1, m2) = (TaskId::map(job(), 0), TaskId::map(job(), 1), TaskId::map(job(), 2));
        let report = FailureReport::node_crash(NodeId(3), [m1], [m0, m1, m2]);
        let launched: Vec<TaskId> = schedule_recovery(&report, &ctx_for(RecoveryMode::Sfm))
            .into_iter()
            .map(|a| match a {
                SchedAction::LaunchMap { task, high_priority: true } => task,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(launched, vec![m1, m0, m2]);
    }

    #[test]
    fn baseline_map_failure_is_one_normal_priority_launch() {
        let m = TaskId::map(job(), 4);
        let report = FailureReport::task_failure(NodeId(2), true, m);
        let actions = schedule_recovery(&report, &ctx_for(RecoveryMode::Baseline));
        assert_eq!(actions, vec![SchedAction::LaunchMap { task: m, high_priority: false }]);
    }

    #[test]
    fn alg_reduce_resumes_on_its_log_node_and_goes_anywhere_after_node_loss() {
        let r = TaskId::reduce(job(), 1);
        let mut ctx = ctx_for(RecoveryMode::Alg);
        ctx.resume_node.insert(r, NodeId(2));

        let report = FailureReport::task_failure(NodeId(2), true, r);
        let actions = schedule_recovery(&report, &ctx);
        assert_eq!(actions, vec![SchedAction::RelaunchReduce { task: r, prefer: Some(NodeId(2)) }]);

        let report = FailureReport::node_crash(NodeId(2), [r], []);
        let actions = schedule_recovery(&report, &ctx);
        assert_eq!(actions, vec![SchedAction::RelaunchReduce { task: r, prefer: None }]);

        // Baseline has no logs to resume from, whatever the context says.
        let report = FailureReport::task_failure(NodeId(2), true, r);
        let mut ctx = ctx_for(RecoveryMode::Baseline);
        ctx.resume_node.insert(r, NodeId(2));
        let actions = schedule_recovery(&report, &ctx);
        assert_eq!(actions, vec![SchedAction::RelaunchReduce { task: r, prefer: None }]);
    }

    #[test]
    fn lost_mofs_wait_for_fetch_failures_outside_proactive_sfm() {
        let running = TaskId::map(job(), 0);
        let lost = [TaskId::map(job(), 1), TaskId::map(job(), 2)];
        let report = FailureReport::node_crash(NodeId(3), [running], lost);
        let mut sfm_without_regen = ctx_for(RecoveryMode::Sfm);
        sfm_without_regen.proactive_map_regen = false;
        for (ctx, high_priority) in [
            (ctx_for(RecoveryMode::Baseline), false),
            (ctx_for(RecoveryMode::Alg), false),
            (sfm_without_regen, true),
        ] {
            let actions = schedule_recovery(&report, &ctx);
            assert_eq!(
                actions,
                vec![SchedAction::LaunchMap { task: running, high_priority }],
                "{:?}",
                ctx.mode
            );
        }
    }
}
