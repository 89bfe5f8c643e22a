//! Property tests of the AM ledger: random sequences of launches,
//! completions, cancels, failures, node expiries and reopens, checked
//! against a plain model of what the AM has launched, what still runs and
//! the attempt trace it should have appended.

use proptest::prelude::*;
use std::collections::BTreeMap;

use alm_core::{Decision, ExecMode, Ledger, SchedAction};
use alm_types::{
    AlmConfig, AttemptId, FailureKind, JobId, NodeId, RecoveryMode, TaskId, TaskKind, Trace, TraceEvent,
    TraceKind, YarnConfig,
};

const MODES: [RecoveryMode; 4] =
    [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg];
const MAPS: u32 = 3;
const REDUCES: u32 = 3;
const NODES: u32 = 4;
const MAX_TASK_ATTEMPTS: u32 = 5;

fn task(code: u32) -> TaskId {
    let code = code % (MAPS + REDUCES);
    if code < MAPS {
        TaskId::map(JobId(0), code)
    } else {
        TaskId::reduce(JobId(0), code - MAPS)
    }
}

fn tasks() -> impl Iterator<Item = TaskId> {
    (0..MAPS + REDUCES).map(task)
}

/// What the AM has done so far, kept the obvious way.
#[derive(Default)]
struct Model {
    launches: BTreeMap<TaskId, u32>,
    launches_on: BTreeMap<(TaskId, NodeId), u32>,
    complete: BTreeMap<TaskId, bool>,
    /// Running attempts and their nodes.
    running: BTreeMap<AttemptId, NodeId>,
    /// Attempts that ran and ended.
    ended: Vec<AttemptId>,
    job_failed: bool,
    trace: Trace,
}

impl Model {
    fn is_complete(&self, t: TaskId) -> bool {
        self.complete.get(&t).copied().unwrap_or(false)
    }

    fn spent(&self, t: TaskId) -> bool {
        self.launches.get(&t).copied().unwrap_or(0) >= MAX_TASK_ATTEMPTS
    }

    /// The `k`-th running attempt, wrapping; `None` when nothing runs.
    fn pick(&self, k: u32) -> Option<(AttemptId, NodeId)> {
        self.running.iter().nth(k as usize % self.running.len().max(1)).map(|(a, n)| (*a, *n))
    }

    /// `attempt` stops running at `at_ns` with `kind`.
    fn end(&mut self, at_ns: u64, attempt: AttemptId, kind: TraceKind) {
        let node = self.running.remove(&attempt).expect("a running attempt");
        self.ended.push(attempt);
        self.trace.push(TraceEvent { at_ns, attempt, node, kind });
    }
}

/// Checks one decision against the budget rule and the latch, and applies
/// it to the model.
fn check_decision(
    model: &mut Model,
    decision: &Decision,
    charged: &[TaskId],
    failed_maps: &[TaskId],
) -> Result<(), String> {
    let should_fail = model.job_failed || charged.iter().any(|&t| model.spent(t));
    match decision {
        Decision::JobFailed => {
            prop_assert!(should_fail, "JobFailed with budget left on {charged:?}");
            model.job_failed = true;
        }
        Decision::Recover(actions) => {
            prop_assert!(!should_fail, "{actions:?} after the budget of {charged:?} ran out");
            for action in actions {
                if let SchedAction::LaunchMap { task, .. } = action {
                    model.complete.insert(*task, false);
                }
            }
            // Every failed map runs again in every mode.
            for m in failed_maps {
                let launched =
                    actions.iter().any(|a| matches!(a, SchedAction::LaunchMap { task, .. } if task == m));
                prop_assert!(launched, "failed {m} not relaunched: {actions:?}");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn ledger_keeps_the_books(
        mode in 0usize..MODES.len(),
        ops in proptest::collection::vec((0u8..9, 0u32..64, 0u32..NODES, proptest::bool::ANY, proptest::bool::ANY), 0..160),
    ) {
        let alm = AlmConfig::with_mode(MODES[mode]);
        let yarn = YarnConfig { max_task_attempts: MAX_TASK_ATTEMPTS, ..YarnConfig::default() };
        let mut ledger = Ledger::new(&alm, &yarn, MAPS, REDUCES);
        let mut model = Model::default();
        for (at_ns, (op, k, node, flag, flag2)) in ops.into_iter().enumerate() {
            let at_ns = at_ns as u64;
            let node = NodeId(node);
            match op {
                // Launch: attempt numbers are gapless from 0 per task.
                0 | 1 => {
                    let t = task(k);
                    let mode = if t.is_reduce() && flag { ExecMode::Fcm } else { ExecMode::Regular };
                    let number = model.launches.entry(t).or_insert(0);
                    let attempt = ledger.launch(at_ns, t, node, mode);
                    prop_assert_eq!(attempt, t.attempt(*number));
                    *number += 1;
                    *model.launches_on.entry((t, node)).or_insert(0) += 1;
                    model.running.insert(attempt, node);
                    let kind = TraceKind::Launched { fcm: mode == ExecMode::Fcm };
                    model.trace.push(TraceEvent { at_ns, attempt, node, kind });
                }
                // Completion: siblings come back on the first completion only.
                2 => {
                    let Some((attempt, _)) = model.pick(k) else { continue };
                    let t = attempt.task;
                    model.end(at_ns, attempt, TraceKind::Completed);
                    let siblings = ledger.complete(at_ns, attempt);
                    let want: Vec<AttemptId> = model.running.keys().copied().filter(|a| a.task == t).collect();
                    prop_assert_eq!(siblings, (!model.is_complete(t)).then_some(want));
                    model.complete.insert(t, true);
                }
                3 => {
                    let Some((attempt, _)) = model.pick(k) else { continue };
                    model.end(at_ns, attempt, TraceKind::Cancelled);
                    ledger.cancel(at_ns, attempt);
                }
                // Attempt failure, recorded also when its task is complete
                // (a finished map's running sibling).
                4 | 5 => {
                    let Some((attempt, _)) = model.pick(k) else { continue };
                    let kind = if op == 4 { FailureKind::TaskOom } else { FailureKind::FetchFailureLimit };
                    model.end(at_ns, attempt, TraceKind::Failed(kind));
                    let t = attempt.task;
                    let resume = flag2.then_some(node);
                    let decision = ledger.fail(at_ns, attempt, kind, flag, resume, |n| n != node);
                    if model.is_complete(t) {
                        prop_assert_eq!(decision, Decision::Recover(Vec::new()), "failure of complete {}", t);
                        continue;
                    }
                    let maps: Vec<TaskId> = Some(t).filter(|t| t.is_map()).into_iter().collect();
                    check_decision(&mut model, &decision, &[t], &maps)?;
                }
                // Node expiry: exactly the incomplete tasks' attempts on
                // the node fail, reduces by index and number, then maps;
                // the others are cancelled.
                6 => {
                    let lost: Vec<TaskId> = (0..MAPS).filter(|m| (k >> m) & 1 == 1).map(|m| TaskId::map(JobId(0), m)).collect();
                    let decision = ledger.expire(at_ns, node, lost, |_| true);
                    prop_assert!(ledger.is_expired(node));
                    let mut gone: Vec<AttemptId> =
                        model.running.iter().filter(|(_, n)| **n == node).map(|(a, _)| *a).collect();
                    gone.sort_by_key(|a| (a.task.is_map(), a.task.index, a.number));
                    let mut failed = Vec::new();
                    for a in gone {
                        if model.is_complete(a.task) {
                            model.end(at_ns, a, TraceKind::Cancelled);
                        } else {
                            model.end(at_ns, a, TraceKind::Failed(FailureKind::NodeCrash));
                            failed.push(a.task);
                        }
                    }
                    let reduces: Vec<TaskId> = failed.iter().copied().filter(|t| t.is_reduce()).collect();
                    let maps: Vec<TaskId> = failed.iter().copied().filter(|t| t.is_map()).collect();
                    check_decision(&mut model, &decision, &reduces, &maps)?;
                }
                // A stale report about an attempt that already ended
                // records and recovers nothing.
                7 => {
                    if model.ended.is_empty() { continue }
                    let attempt = model.ended[k as usize % model.ended.len()];
                    if flag {
                        let decision = ledger.fail(at_ns, attempt, FailureKind::TaskOom, true, None, |_| true);
                        prop_assert_eq!(decision, Decision::Recover(Vec::new()), "stale failure of {}", attempt);
                    } else {
                        ledger.cancel(at_ns, attempt);
                    }
                }
                _ => {
                    let t = task(k);
                    ledger.reopen(t);
                    model.complete.insert(t, false);
                }
            }
            // A reduce's per-node counts are its launches per node, and they
            // sum to the reduce attempts.
            let mut on_nodes = 0;
            for t in tasks() {
                prop_assert_eq!(ledger.is_complete(t), model.is_complete(t));
                if t.is_reduce() {
                    for n in (0..NODES).map(NodeId) {
                        let want = model.launches_on.get(&(t, n)).copied().unwrap_or(0);
                        let on = ledger.trace().nodes_of(t).filter(|&m| m == n).count() as u32;
                        prop_assert_eq!(on, want, "{} on {}", t, n);
                        on_nodes += want;
                    }
                }
            }
            prop_assert_eq!(ledger.trace().launches(TaskKind::Reduce), on_nodes);
            prop_assert_eq!(ledger.trace(), &model.trace);
            prop_assert_eq!(ledger.reduces_complete(), tasks().filter(|t| t.is_reduce()).all(|t| model.is_complete(t)));
        }
    }
}
