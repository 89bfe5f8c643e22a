//! The ApplicationMaster's ledger: the bookkeeping around a recovery
//! decision, written once for both engines.
//!
//! A [`Ledger`] keeps, per task, whether it is complete and how many
//! attempts it has had; per reduce, its attempts on each node; and which
//! attempts run where in which [`ExecMode`]. It numbers attempts, applies
//! the one attempt budget, and turns an attempt failure or a node's expiry
//! into a [`FailureReport`] and a [`PolicyCtx`] for [`schedule_recovery`].
//! It reads no cluster: what a driver observes of its own (a node's
//! liveness, where a reduce's logs live, which FCM attempts still count)
//! comes in as named arguments. Its state is ordered, so failure records
//! and actions come out in task order.

use std::collections::{BTreeMap, BTreeSet};

use alm_types::{AlmConfig, AttemptId, FailureReport, NodeId, TaskId, YarnConfig};

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

/// Attempts launched so far, as the job reports count them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Launched {
    pub maps: u32,
    pub reduces: u32,
    pub fcm: u32,
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
    /// Reduce attempts launched per node (Algorithm 1's `limit_local`).
    reduce_attempts_on: BTreeMap<(TaskId, NodeId), u32>,
    /// Running attempts in `AttemptId` order: by task, then number.
    running: BTreeMap<AttemptId, (NodeId, ExecMode)>,
    expired: BTreeSet<NodeId>,
    launched: Launched,
    job_failed: bool,
}

impl Ledger {
    pub fn new(alm: &AlmConfig, yarn: &YarnConfig, num_maps: u32, num_reduces: u32) -> Ledger {
        Ledger {
            alm: alm.clone(),
            max_task_attempts: yarn.max_task_attempts,
            maps: vec![TaskLedger::default(); num_maps as usize],
            reduces: vec![TaskLedger::default(); num_reduces as usize],
            reduce_attempts_on: BTreeMap::new(),
            running: BTreeMap::new(),
            expired: BTreeSet::new(),
            launched: Launched::default(),
            job_failed: false,
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

    pub fn launched(&self) -> Launched {
        self.launched
    }

    /// Attempts of reduce `task` launched on `node`.
    pub fn reduce_attempts_on(&self, task: TaskId, node: NodeId) -> u32 {
        self.reduce_attempts_on.get(&(task, node)).copied().unwrap_or(0)
    }

    /// The running attempts of `task`, by number.
    fn running_of(&self, task: TaskId) -> impl Iterator<Item = AttemptId> + '_ {
        self.running.range(task.attempt(0)..=task.attempt(u32::MAX)).map(|(a, _)| *a)
    }

    /// Number the next attempt of `task`, placed on `node`, and count it.
    pub fn launch(&mut self, task: TaskId, node: NodeId, mode: ExecMode) -> AttemptId {
        let t = self.task_mut(task);
        let attempt = task.attempt(t.attempts);
        t.attempts += 1;
        self.running.insert(attempt, (node, mode));
        if task.is_map() {
            self.launched.maps += 1;
        } else {
            self.launched.reduces += 1;
            *self.reduce_attempts_on.entry((task, node)).or_insert(0) += 1;
        }
        self.launched.fcm += u32::from(mode == ExecMode::Fcm);
        attempt
    }

    /// `attempt` finished its task. On the task's first completion since
    /// it was last opened, returns its other running attempts, which stay
    /// running until the driver cancels them; `None` if the task was
    /// already complete.
    pub fn complete(&mut self, attempt: AttemptId) -> Option<Vec<AttemptId>> {
        self.cancel(attempt);
        if std::mem::replace(&mut self.task_mut(attempt.task).completed, true) {
            return None;
        }
        Some(self.running_of(attempt.task).collect())
    }

    /// The AM killed `attempt`: it no longer runs, and did not fail.
    pub fn cancel(&mut self, attempt: AttemptId) {
        self.running.remove(&attempt);
    }

    /// Open `task` again: its MOF or committed output is to be redone.
    pub fn reopen(&mut self, task: TaskId) {
        self.task_mut(task).completed = false;
    }

    /// `attempt` failed on `node`. A failure of a complete task recovers
    /// nothing. Otherwise the task is charged against the attempt budget
    /// and the policy decides. `node_alive` is the driver's reading of
    /// `node`; `resume_node` the live node holding a failed reduce's newest
    /// local log; `counts_fcm_on` whether a running FCM attempt on a node
    /// counts against `FCM_cap`.
    pub fn fail(
        &mut self,
        attempt: AttemptId,
        node: NodeId,
        node_alive: bool,
        resume_node: Option<NodeId>,
        counts_fcm_on: impl Fn(NodeId) -> bool,
    ) -> Decision {
        self.cancel(attempt);
        if self.is_complete(attempt.task) {
            return Decision::Recover(Vec::new());
        }
        let report = FailureReport::task_failure(node, node_alive, attempt.task);
        self.recover(&report, &[attempt.task], resume_node, counts_fcm_on)
    }

    /// `node` expired: every attempt running there is gone. Returns the
    /// attempts of incomplete tasks that failed with it, reduces by index
    /// and attempt number, then maps, and the decision over them and
    /// `lost_mofs`. Only a failed reduce is charged against the budget.
    pub fn expire(
        &mut self,
        node: NodeId,
        lost_mofs: impl IntoIterator<Item = TaskId>,
        counts_fcm_on: impl Fn(NodeId) -> bool,
    ) -> (Vec<AttemptId>, Decision) {
        self.expired.insert(node);
        let lost: Vec<AttemptId> =
            self.running.iter().filter(|(_, (n, _))| *n == node).map(|(a, _)| *a).collect();
        for a in &lost {
            self.running.remove(a);
        }
        let mut failed: Vec<AttemptId> = lost.into_iter().filter(|a| !self.is_complete(a.task)).collect();
        failed.sort_by_key(|a| a.task.is_map());
        let report = FailureReport::node_crash(node, failed.iter().map(|a| a.task), lost_mofs);
        let decision = self.recover(&report, &report.failed_reduces, None, counts_fcm_on);
        (failed, decision)
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
            ctx.attempts_on_source_node.insert(r, self.reduce_attempts_on(r, report.source_node));
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
