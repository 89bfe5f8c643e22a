//! The ApplicationMaster's ledger: the bookkeeping around a recovery
//! decision, written once for both engines.
//!
//! A [`Ledger`] keeps, per task, whether it is complete and how many
//! attempts it has had; which attempts run where in which [`ExecMode`];
//! and the job's attempt [`Trace`], at the times the driver passes in. It
//! numbers attempts, applies the one attempt budget, and turns an attempt
//! failure or a node's expiry into a [`FailureReport`] and a [`PolicyCtx`]
//! for [`schedule_recovery`]. It reads no cluster: what a driver observes
//! of its own (a node's liveness, where a reduce's logs live, which FCM
//! attempts still count) comes in as named arguments. Its state is
//! ordered, so failure records and actions come out in task order.

use std::collections::{BTreeMap, BTreeSet};

use alm_types::{
    AlmConfig, AttemptId, FailureKind, FailureReport, NodeId, TaskId, Trace, TraceEvent, TraceKind,
    YarnConfig,
};

use crate::sfm::policy::{schedule_recovery, ExecMode, PolicyCtx, SchedAction};

/// What the AM does about a failure.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Execute these actions (none when nothing is left to recover).
    Recover(Vec<SchedAction>),
    /// A failed task had used up its attempt budget: the job fails.
    JobFailed,
}

#[derive(Clone, Copy, Default)]
struct TaskLedger {
    completed: bool,
    attempts: u32,
}

/// One job's attempts, as its AM accounts for them.
pub struct Ledger {
    alm: AlmConfig,
    max_task_attempts: u32,
    maps: Vec<TaskLedger>,
    reduces: Vec<TaskLedger>,
    /// Running attempts in `AttemptId` order: by task, then number.
    running: BTreeMap<AttemptId, (NodeId, ExecMode)>,
    expired: BTreeSet<NodeId>,
    job_failed: bool,
    trace: Trace,
}

impl Ledger {
    pub fn new(alm: &AlmConfig, yarn: &YarnConfig, num_maps: u32, num_reduces: u32) -> Ledger {
        Ledger {
            alm: alm.clone(),
            max_task_attempts: yarn.max_task_attempts,
            maps: vec![TaskLedger::default(); num_maps as usize],
            reduces: vec![TaskLedger::default(); num_reduces as usize],
            running: BTreeMap::new(),
            expired: BTreeSet::new(),
            job_failed: false,
            trace: Trace::default(),
        }
    }

    fn task(&self, task: TaskId) -> &TaskLedger {
        let tasks = if task.is_map() { &self.maps } else { &self.reduces };
        &tasks[task.index as usize]
    }

    fn task_mut(&mut self, task: TaskId) -> &mut TaskLedger {
        let tasks = if task.is_map() { &mut self.maps } else { &mut self.reduces };
        &mut tasks[task.index as usize]
    }

    pub fn is_complete(&self, task: TaskId) -> bool {
        self.task(task).completed
    }

    pub fn reduces_complete(&self) -> bool {
        self.reduces.iter().all(|t| t.completed)
    }

    /// Whether [`Ledger::expire`] has seen `node`.
    pub fn is_expired(&self, node: NodeId) -> bool {
        self.expired.contains(&node)
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The running attempts of `task`, by number.
    fn running_of(&self, task: TaskId) -> impl Iterator<Item = AttemptId> + '_ {
        self.running.range(task.attempt(0)..=task.attempt(u32::MAX)).map(|(a, _)| *a)
    }

    /// At `at_ns`, number the next attempt of `task`, placed on `node`.
    pub fn launch(&mut self, at_ns: u64, task: TaskId, node: NodeId, mode: ExecMode) -> AttemptId {
        let t = self.task_mut(task);
        let attempt = task.attempt(t.attempts);
        t.attempts += 1;
        self.running.insert(attempt, (node, mode));
        let kind = TraceKind::Launched { fcm: mode == ExecMode::Fcm };
        self.trace.push(TraceEvent { at_ns, attempt, node, kind });
        attempt
    }

    /// `attempt` stops running with `kind`; where it ran, if it was running.
    fn end(&mut self, at_ns: u64, attempt: AttemptId, kind: TraceKind) -> Option<NodeId> {
        let (node, _) = self.running.remove(&attempt)?;
        self.trace.push(TraceEvent { at_ns, attempt, node, kind });
        Some(node)
    }

    /// `attempt` finished its task. On the task's first completion since
    /// it was last opened, returns its other running attempts, which stay
    /// running until the driver cancels them; `None` if the task was
    /// already complete.
    pub fn complete(&mut self, at_ns: u64, attempt: AttemptId) -> Option<Vec<AttemptId>> {
        self.end(at_ns, attempt, TraceKind::Completed);
        if std::mem::replace(&mut self.task_mut(attempt.task).completed, true) {
            return None;
        }
        Some(self.running_of(attempt.task).collect())
    }

    /// The AM killed `attempt`: it no longer runs, and did not fail.
    pub fn cancel(&mut self, at_ns: u64, attempt: AttemptId) {
        self.end(at_ns, attempt, TraceKind::Cancelled);
    }

    /// Open `task` again: its MOF or committed output is to be redone.
    pub fn reopen(&mut self, task: TaskId) {
        self.task_mut(task).completed = false;
    }

    /// At `at_ns`, `attempt` failed with `kind`. It is recorded even when
    /// its task is complete (a finished map's still-running sibling), but
    /// then recovers nothing; so does a report about an attempt that no
    /// longer runs (cancelled, expired or ended), which records nothing
    /// either. Otherwise the task is charged against the attempt budget and
    /// the policy decides. `node_alive` is the driver's reading of the
    /// attempt's node; `resume_node` the live node holding a failed
    /// reduce's newest local log; `counts_fcm_on` whether a running FCM
    /// attempt on a node counts against `FCM_cap`.
    pub fn fail(
        &mut self,
        at_ns: u64,
        attempt: AttemptId,
        kind: FailureKind,
        node_alive: bool,
        resume_node: Option<NodeId>,
        counts_fcm_on: impl Fn(NodeId) -> bool,
    ) -> Decision {
        debug_assert!(!kind.is_transient(), "transient kind {kind:?} recorded as an attempt failure");
        let Some(node) = self.end(at_ns, attempt, TraceKind::Failed(kind)) else {
            return Decision::Recover(Vec::new());
        };
        if self.is_complete(attempt.task) {
            return Decision::Recover(Vec::new());
        }
        let report = FailureReport::task_failure(node, node_alive, attempt.task);
        self.recover(&report, &[attempt.task], resume_node, counts_fcm_on)
    }

    /// At `at_ns`, `node` expired: every attempt running there is gone.
    /// Those of incomplete tasks fail with `NodeCrash`, reduces by index
    /// and attempt number, then maps; the others are cancelled. Returns
    /// the decision over the failed ones and `lost_mofs`. Only a failed
    /// reduce is charged against the budget.
    pub fn expire(
        &mut self,
        at_ns: u64,
        node: NodeId,
        lost_mofs: impl IntoIterator<Item = TaskId>,
        counts_fcm_on: impl Fn(NodeId) -> bool,
    ) -> Decision {
        self.expired.insert(node);
        let mut lost: Vec<AttemptId> =
            self.running.iter().filter(|(_, (n, _))| *n == node).map(|(a, _)| *a).collect();
        lost.sort_by_key(|a| a.task.is_map());
        let mut failed = Vec::new();
        for a in lost {
            if self.is_complete(a.task) {
                self.end(at_ns, a, TraceKind::Cancelled);
            } else {
                self.end(at_ns, a, TraceKind::Failed(FailureKind::NodeCrash));
                failed.push(a.task);
            }
        }
        let report = FailureReport::node_crash(node, failed, lost_mofs);
        self.recover(&report, &report.failed_reduces, None, counts_fcm_on)
    }

    /// The one budget rule, then the policy. Once the job has failed,
    /// every later failure decides the same.
    fn recover(
        &mut self,
        report: &FailureReport,
        charged: &[TaskId],
        resume_node: Option<NodeId>,
        counts_fcm_on: impl Fn(NodeId) -> bool,
    ) -> Decision {
        self.job_failed |= charged.iter().any(|&t| self.task(t).attempts >= self.max_task_attempts);
        if self.job_failed {
            return Decision::JobFailed;
        }
        let fcm_running =
            self.running.values().filter(|&&(n, mode)| mode == ExecMode::Fcm && counts_fcm_on(n)).count();
        let mut ctx = PolicyCtx::new(&self.alm, fcm_running);
        for &r in &report.failed_reduces {
            let on_source = self.trace.nodes_of(r).filter(|&n| n == report.source_node).count();
            ctx.attempts_on_source_node.insert(r, on_source as u32);
            ctx.running_attempts.insert(r, self.running_of(r).count() as u32);
            if let Some(n) = resume_node {
                ctx.resume_node.insert(r, n);
            }
        }
        let actions = schedule_recovery(report, &ctx);
        for action in &actions {
            if let SchedAction::LaunchMap { task, .. } = action {
                self.reopen(*task);
            }
        }
        Decision::Recover(actions)
    }
}
