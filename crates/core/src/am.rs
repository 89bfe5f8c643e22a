//! The ApplicationMaster, written once for both engines.
//!
//! An [`Am`] keeps, per task, whether it is complete and how many attempts
//! it has had; which attempts run where in which [`ExecMode`]; the job's
//! attempt [`Trace`], at the times the driver passes in; the map and
//! reduce run queues; and each node's slots. It numbers attempts, applies
//! the one attempt budget, turns an attempt failure or a node's expiry
//! into a [`FailureReport`] and a [`PolicyCtx`] for [`schedule_recovery`],
//! queues what the policy decides, and places queued tasks when the
//! driver calls [`Am::dispatch`]. It reads no cluster: a node is live until
//! [`Am::node_down`] says otherwise, and where a reduce's logs live comes
//! in as an argument. Its state is ordered, so failure records, actions
//! and launches come out in task order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use alm_types::{
    AlmConfig, AttemptId, FailureKind, FailureReport, NodeId, TaskId, TaskKind, Trace, TraceEvent, TraceKind,
    YarnConfig,
};

use crate::sfm::policy::{schedule_recovery, ExecMode, PolicyCtx, SchedAction};

/// What the AM does about a failure.
enum Decision {
    /// Queue these actions (none when nothing is left to recover).
    Recover(Vec<SchedAction>),
    /// A failed task had used up its attempt budget: the job fails.
    JobFailed,
}

/// What [`Am::dispatch`] tells the driver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Start `attempt` on `node`.
    Launch { attempt: AttemptId, node: NodeId, mode: ExecMode },
    /// Stop `attempt`: a sibling finished its reduce first.
    Cancel(AttemptId),
    /// A failed task had used up its attempt budget: the job fails.
    JobFailed,
}

/// Containers per node, by task kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    pub map: u32,
    pub reduce: u32,
}

impl Slots {
    /// No limit: every placement on a live node succeeds.
    pub const UNBOUNDED: Slots = Slots { map: u32::MAX, reduce: u32::MAX };
}

/// A queued reduce attempt: `(task, pinned node, avoided node, mode,
/// drop_if_pin_unavailable)`. SFM's local-resume attempts are dropped when
/// their pinned node is gone or full (the speculative attempt covers
/// recovery); ALG's relaunches fall back to any node instead.
type QueuedReduce = (TaskId, Option<NodeId>, Option<NodeId>, ExecMode, bool);

#[derive(Clone, Copy, Default)]
struct TaskLedger {
    completed: bool,
    attempts: u32,
}

/// One job's ApplicationMaster.
pub struct Am {
    alm: AlmConfig,
    max_task_attempts: u32,
    maps: Vec<TaskLedger>,
    reduces: Vec<TaskLedger>,
    /// Running attempts in `AttemptId` order: by task, then number.
    running: BTreeMap<AttemptId, (NodeId, ExecMode)>,
    expired: BTreeSet<NodeId>,
    job_failed: bool,
    /// A `JobFailed` decision the next dispatch reports.
    failure_pending: bool,
    trace: Trace,
    /// Per node: whether the AM believes it live.
    live: Vec<bool>,
    capacity: [u32; 2],
    /// Per node: running attempts by kind, maps then reduces.
    used: Vec<[u32; 2]>,
    /// The next node round-robin placement looks at.
    rr: u32,
    queued_maps: VecDeque<TaskId>,
    queued_reduces: VecDeque<QueuedReduce>,
    /// Per map: whether a re-execution of it is queued or running.
    regenerating: Vec<bool>,
    /// Siblings cancelled by a reduce's first completion, reported by the
    /// next dispatch.
    cancelled: Vec<AttemptId>,
}

impl Am {
    /// The AM of a job on `nodes` nodes, all live, each with `slots`.
    pub fn new(
        alm: &AlmConfig,
        yarn: &YarnConfig,
        num_maps: u32,
        num_reduces: u32,
        nodes: u32,
        slots: Slots,
    ) -> Am {
        Am {
            alm: alm.clone(),
            max_task_attempts: yarn.max_task_attempts,
            maps: vec![TaskLedger::default(); num_maps as usize],
            reduces: vec![TaskLedger::default(); num_reduces as usize],
            running: BTreeMap::new(),
            expired: BTreeSet::new(),
            job_failed: false,
            failure_pending: false,
            trace: Trace::default(),
            live: vec![true; nodes as usize],
            capacity: [slots.map, slots.reduce],
            used: vec![[0; 2]; nodes as usize],
            rr: 0,
            queued_maps: VecDeque::new(),
            queued_reduces: VecDeque::new(),
            regenerating: vec![false; num_maps as usize],
            cancelled: Vec::new(),
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

    /// Whether [`Am::expire`] has seen `node`.
    pub fn is_expired(&self, node: NodeId) -> bool {
        self.expired.contains(&node)
    }

    /// Whether the AM believes `node` live: until [`Am::node_down`].
    pub fn is_live(&self, node: NodeId) -> bool {
        self.live[node.0 as usize]
    }

    /// Whether a re-execution of `map` is queued or running.
    pub fn is_regenerating(&self, map: TaskId) -> bool {
        self.regenerating[map.index as usize]
    }

    /// Slots of `kind` on `node` that no running attempt holds.
    pub fn free_slots(&self, node: NodeId, kind: TaskKind) -> u32 {
        self.capacity[kind as usize] - self.used[node.0 as usize][kind as usize]
    }

    /// Queued tasks in launch order, maps first.
    pub fn queued(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.queued_maps.iter().copied().chain(self.queued_reduces.iter().map(|q| q.0))
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The AM learns that `node` is down: nothing is placed there again,
    /// and its FCM attempts stop counting against `FCM_cap`. Its running
    /// attempts stay running until [`Am::expire`].
    pub fn node_down(&mut self, node: NodeId) {
        self.live[node.0 as usize] = false;
    }

    /// Open `task` and queue a run of it at normal priority: the job's
    /// first wave, or a rerun of a reduce whose committed output was lost.
    pub fn submit(&mut self, task: TaskId) {
        self.reopen(task);
        if task.is_map() {
            self.enqueue_map(task, false);
        } else {
            self.queued_reduces.push_back((task, None, None, ExecMode::Regular, false));
        }
    }

    /// Queue a re-execution of `map` unless one is queued or running
    /// already; whether this queued one.
    pub fn regenerate(&mut self, map: TaskId, high_priority: bool) -> bool {
        if std::mem::replace(&mut self.regenerating[map.index as usize], true) {
            return false;
        }
        self.reopen(map);
        self.enqueue_map(map, high_priority);
        true
    }

    /// A reducer failed to fetch `map`'s output from `source`. SFM knows
    /// the cause when `source` is down and regenerates the map at high
    /// priority; whether this queued it.
    pub fn fetch_failed(&mut self, map: TaskId, source: NodeId) -> bool {
        self.alm.mode.sfm_enabled() && !self.is_live(source) && self.regenerate(map, true)
    }

    fn enqueue_map(&mut self, task: TaskId, high_priority: bool) {
        if high_priority {
            self.queued_maps.push_front(task);
        } else {
            self.queued_maps.push_back(task);
        }
    }

    /// The running attempts of `task`, by number.
    fn running_of(&self, task: TaskId) -> impl Iterator<Item = AttemptId> + '_ {
        self.running.range(task.attempt(0)..=task.attempt(u32::MAX)).map(|(a, _)| *a)
    }

    /// At `at_ns`, number the next attempt of `task`, placed on `node`.
    fn launch(&mut self, at_ns: u64, task: TaskId, node: NodeId, mode: ExecMode) -> AttemptId {
        let t = self.task_mut(task);
        let attempt = task.attempt(t.attempts);
        t.attempts += 1;
        self.running.insert(attempt, (node, mode));
        self.used[node.0 as usize][task.kind as usize] += 1;
        let kind = TraceKind::Launched { fcm: mode == ExecMode::Fcm };
        self.trace.push(TraceEvent { at_ns, attempt, node, kind });
        attempt
    }

    /// `attempt` stops running with `kind`; where it ran, if it was running.
    fn end(&mut self, at_ns: u64, attempt: AttemptId, kind: TraceKind) -> Option<NodeId> {
        let (node, _) = self.running.remove(&attempt)?;
        self.used[node.0 as usize][attempt.task.kind as usize] -= 1;
        self.trace.push(TraceEvent { at_ns, attempt, node, kind });
        Some(node)
    }

    /// `attempt` finished its task; whether this is the task's first
    /// completion since it was last opened. A map's siblings run on, and
    /// each copy registers its output as it ends; a reduce's first
    /// completion cancels its siblings, which the next dispatch reports.
    pub fn complete(&mut self, at_ns: u64, attempt: AttemptId) -> bool {
        self.end(at_ns, attempt, TraceKind::Completed);
        let task = attempt.task;
        if task.is_map() {
            self.regenerating[task.index as usize] = false;
        }
        if std::mem::replace(&mut self.task_mut(task).completed, true) {
            return false;
        }
        if task.is_reduce() {
            let siblings: Vec<AttemptId> = self.running_of(task).collect();
            for s in siblings {
                self.end(at_ns, s, TraceKind::Cancelled);
                self.cancelled.push(s);
            }
        }
        true
    }

    /// Open `task` again: its MOF or committed output is to be redone.
    fn reopen(&mut self, task: TaskId) {
        self.task_mut(task).completed = false;
    }

    /// At `at_ns`, `attempt` failed with `kind`. It is recorded even when
    /// its task is complete (a finished map's still-running sibling), but
    /// then recovers nothing; so does a report about an attempt that no
    /// longer runs (cancelled, expired or ended), which records nothing
    /// either. Otherwise the task is charged against the attempt budget and
    /// the policy decides. `resume_node` is where a failed reduce's newest
    /// local log lives; ALG resumes there while the AM believes it live.
    pub fn fail(&mut self, at_ns: u64, attempt: AttemptId, kind: FailureKind, resume_node: Option<NodeId>) {
        debug_assert!(!kind.is_transient(), "transient kind {kind:?} recorded as an attempt failure");
        let Some(node) = self.end(at_ns, attempt, TraceKind::Failed(kind)) else {
            return;
        };
        if self.is_complete(attempt.task) {
            return;
        }
        let report = FailureReport::task_failure(node, self.is_live(node), attempt.task);
        let resume_node = resume_node.filter(|&n| self.is_live(n));
        let decision = self.recover(&report, &[attempt.task], resume_node);
        self.apply(decision);
    }

    /// At `at_ns`, `node` expired: every attempt running there is gone.
    /// Those of incomplete tasks fail with `NodeCrash`, reduces by index
    /// and attempt number, then maps; the others are cancelled. The policy
    /// decides over the failed ones and `lost_mofs`. Only a failed reduce
    /// is charged against the budget.
    pub fn expire(&mut self, at_ns: u64, node: NodeId, lost_mofs: impl IntoIterator<Item = TaskId>) {
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
        let decision = self.recover(&report, &report.failed_reduces, None);
        self.apply(decision);
    }

    /// FCM attempts running on nodes the AM believes live.
    fn fcm_running(&self) -> usize {
        self.running.values().filter(|&&(n, mode)| mode == ExecMode::Fcm && self.is_live(n)).count()
    }

    /// The one budget rule, then the policy. Once the job has failed,
    /// every later failure decides the same.
    fn recover(&mut self, report: &FailureReport, charged: &[TaskId], resume: Option<NodeId>) -> Decision {
        self.job_failed |= charged.iter().any(|&t| self.task(t).attempts >= self.max_task_attempts);
        if self.job_failed {
            return Decision::JobFailed;
        }
        let mut ctx = PolicyCtx::new(&self.alm, self.fcm_running());
        for &r in &report.failed_reduces {
            let on_source = self.trace.nodes_of(r).filter(|&n| n == report.source_node).count();
            ctx.attempts_on_source_node.insert(r, on_source as u32);
            ctx.running_attempts.insert(r, self.running_of(r).count() as u32);
            if let Some(n) = resume {
                ctx.resume_node.insert(r, n);
            }
        }
        Decision::Recover(schedule_recovery(report, &ctx))
    }

    /// Queue what was decided: high-priority maps and SFM's local resumes
    /// go to the front of their queue, the rest to the back.
    fn apply(&mut self, decision: Decision) {
        let actions = match decision {
            Decision::Recover(actions) => actions,
            Decision::JobFailed => {
                self.failure_pending = true;
                return;
            }
        };
        for action in actions {
            match action {
                SchedAction::LaunchMap { task, high_priority } => {
                    self.reopen(task);
                    self.regenerating[task.index as usize] |= high_priority;
                    self.enqueue_map(task, high_priority);
                }
                SchedAction::RelaunchReduceOnOrigin { task, node } => {
                    self.queued_reduces.push_front((task, Some(node), None, ExecMode::Regular, true));
                }
                SchedAction::LaunchSpeculativeReduce { task, mode, avoid } => {
                    self.queued_reduces.push_back((task, None, avoid, mode, false));
                }
                // A pinned relaunch whose node is gone or full falls back to
                // any node (see `dispatch`).
                SchedAction::RelaunchReduce { task, prefer } => {
                    self.queued_reduces.push_back((task, prefer, None, ExecMode::Regular, false));
                }
            }
        }
    }

    fn has_room(&self, node: NodeId, kind: TaskKind) -> bool {
        self.is_live(node) && self.free_slots(node, kind) > 0
    }

    /// A node with a free slot of `kind`: `pin` or none when pinned,
    /// otherwise round-robin over live nodes, skipping `avoid` while
    /// another node lives.
    fn place(&mut self, kind: TaskKind, avoid: Option<NodeId>, pin: Option<NodeId>) -> Option<NodeId> {
        if let Some(p) = pin {
            return self.has_room(p, kind).then_some(p);
        }
        let count = self.live.len() as u32;
        for _ in 0..count {
            let id = NodeId(self.rr % count);
            self.rr += 1;
            let avoided = avoid == Some(id) && self.live.iter().filter(|&&live| live).count() > 1;
            if !avoided && self.has_room(id, kind) {
                return Some(id);
            }
        }
        None
    }

    /// At `at_ns`, append to `out` what the driver is to do: the cancels
    /// since the last dispatch; then, after a `JobFailed` decision, that
    /// and nothing more; otherwise the launches of queued maps, then of
    /// queued reduces, in queue order until one cannot be placed, which
    /// keeps its place at the front.
    pub fn dispatch(&mut self, at_ns: u64, out: &mut Vec<Command>) {
        out.extend(self.cancelled.drain(..).map(Command::Cancel));
        if std::mem::replace(&mut self.failure_pending, false) {
            out.push(Command::JobFailed);
            return;
        }
        while let Some(task) = self.queued_maps.pop_front() {
            if self.is_complete(task) {
                continue;
            }
            match self.place(TaskKind::Map, None, None) {
                Some(node) => {
                    let attempt = self.launch(at_ns, task, node, ExecMode::Regular);
                    out.push(Command::Launch { attempt, node, mode: ExecMode::Regular });
                }
                None => {
                    self.queued_maps.push_front(task);
                    break;
                }
            }
        }

        // ALG relaunches that lost their pin go back ahead, in the order
        // they fell back.
        let mut unpinned = Vec::new();
        while let Some((task, pin, avoid, mode, drop_on_pin_fail)) = self.queued_reduces.pop_front() {
            if self.is_complete(task) {
                continue;
            }
            match self.place(TaskKind::Reduce, avoid, pin) {
                Some(node) => {
                    let attempt = self.launch(at_ns, task, node, mode);
                    out.push(Command::Launch { attempt, node, mode });
                }
                None => match pin {
                    // SFM's local resume with its node gone or full: drop
                    // it; the speculative attempt covers recovery.
                    Some(_) if drop_on_pin_fail => continue,
                    // ALG's relaunch: any node (losing the local files but
                    // keeping DFS-logged progress).
                    Some(_) => unpinned.push((task, None, avoid, mode, false)),
                    None => {
                        self.queued_reduces.push_front((task, pin, avoid, mode, drop_on_pin_fail));
                        break;
                    }
                },
            }
        }
        for entry in unpinned.into_iter().rev() {
            self.queued_reduces.push_front(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::{JobId, RecoveryMode};

    const NODES: u32 = 20;
    const PAPER_SLOTS: Slots = Slots { map: 8, reduce: 4 };

    fn am(mode: RecoveryMode, slots: Slots) -> Am {
        Am::new(&AlmConfig::with_mode(mode), &YarnConfig::default(), 800, 20, NODES, slots)
    }

    #[test]
    fn dispatch_with_every_map_slot_taken_keeps_the_queue_in_place() {
        let mut am = am(RecoveryMode::Sfm, PAPER_SLOTS);
        let maps = |range: std::ops::Range<u32>| range.map(|m| TaskId::map(JobId(0), m)).collect::<Vec<_>>();
        for m in maps(0..800) {
            am.submit(m);
        }
        let mut out = Vec::new();
        am.dispatch(0, &mut out);
        let slots = NODES * PAPER_SLOTS.map;
        assert!((0..NODES).all(|n| am.free_slots(NodeId(n), TaskKind::Map) == 0));
        assert_eq!(am.queued_maps, maps(slots..800));

        // Completed entries ahead of the first unplaceable map are
        // skipped; one behind it stays.
        for m in [slots, slots + 1, 700] {
            let attempt = am.launch(0, TaskId::map(JobId(0), m), NodeId(0), ExecMode::Regular);
            am.complete(0, attempt);
        }
        am.dispatch(0, &mut out);
        assert_eq!(am.queued_maps, maps(slots + 2..800));

        // A high-priority regeneration stays first.
        assert!(am.regenerate(TaskId::map(JobId(0), slots), true));
        am.dispatch(0, &mut out);
        let mut expected = maps(slots..slots + 1);
        expected.extend(maps(slots + 2..800));
        assert_eq!(am.queued_maps, expected);
    }

    #[test]
    fn dispatch_with_every_reduce_slot_taken_keeps_unpinned_fallbacks_ahead() {
        let mut am = am(RecoveryMode::Alg, Slots { reduce: 0, ..PAPER_SLOTS });
        let r = |index| TaskId::reduce(JobId(0), index);
        let n = |index| Some(NodeId(index));
        let regular = ExecMode::Regular;
        am.queued_reduces.extend([
            (r(0), n(1), None, regular, false),
            (r(1), n(2), None, regular, true),
            (r(2), n(3), n(4), regular, false),
            (r(3), None, None, regular, false),
            (r(4), n(5), None, regular, false),
        ]);
        am.dispatch(0, &mut Vec::new());
        // ALG relaunches fall back to any node in order, SFM's local resume
        // is dropped, and the first unplaceable entry keeps its place.
        let expected: VecDeque<QueuedReduce> = VecDeque::from([
            (r(0), None, None, regular, false),
            (r(2), None, n(4), regular, false),
            (r(3), None, None, regular, false),
            (r(4), n(5), None, regular, false),
        ]);
        assert_eq!(am.queued_reduces, expected);
    }

    /// The simulator's rule, which the runtime took over: an FCM attempt
    /// stops counting against `FCM_cap` once the AM is told its node is
    /// down, before the node expires.
    #[test]
    fn an_fcm_attempt_on_a_node_known_down_leaves_fcm_cap() {
        let mut alm = AlmConfig::with_mode(RecoveryMode::Sfm);
        alm.fcm_cap = 0;
        for down in [false, true] {
            let mut am = Am::new(&alm, &YarnConfig::default(), 1, 2, 3, Slots::UNBOUNDED);
            am.launch(0, TaskId::reduce(JobId(0), 0), NodeId(1), ExecMode::Fcm);
            if down {
                am.node_down(NodeId(1));
            }
            let failed = am.launch(0, TaskId::reduce(JobId(0), 1), NodeId(2), ExecMode::Regular);
            am.fail(1, failed, FailureKind::TaskOom, None);
            // Algorithm 1 line 16 admits an FCM attempt while the count is
            // at most the cap.
            let (_, _, _, mode, _) = am.queued_reduces.back().copied().expect("a speculative attempt");
            assert_eq!(mode, if down { ExecMode::Fcm } else { ExecMode::Regular }, "node 1 down: {down}");
        }
    }
}
