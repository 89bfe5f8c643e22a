//! Property tests of the AM: random sequences of submissions, dispatches,
//! completions, failures, node losses and expiries, regenerations and
//! stale reports, checked against a plain model of what the AM has
//! launched, what still runs where, which nodes it believes live and the
//! attempt trace it should have appended.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use alm_core::{Am, Command, ExecMode, Slots};
use alm_types::{
    AlmConfig, AttemptId, FailureKind, JobId, NodeId, RecoveryMode, TaskId, TaskKind, Trace, TraceEvent,
    TraceKind, YarnConfig,
};

const MODES: [RecoveryMode; 4] =
    [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg];
const MAPS: u32 = 3;
const REDUCES: u32 = 3;
const NODES: u32 = 4;
const SLOTS: Slots = Slots { map: 2, reduce: 1 };
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

fn capacity(kind: TaskKind) -> u32 {
    match kind {
        TaskKind::Map => SLOTS.map,
        TaskKind::Reduce => SLOTS.reduce,
    }
}

/// What the AM has done so far, kept the obvious way.
struct Model {
    sfm: bool,
    launches: BTreeMap<TaskId, u32>,
    launches_on: BTreeMap<(TaskId, NodeId), u32>,
    complete: BTreeSet<TaskId>,
    /// Running attempts and their nodes.
    running: BTreeMap<AttemptId, NodeId>,
    /// Attempts that ran and ended.
    ended: Vec<AttemptId>,
    down: BTreeSet<NodeId>,
    regenerating: BTreeSet<TaskId>,
    /// Cancels the next dispatch reports, in order.
    cancels: Vec<AttemptId>,
    job_failed: bool,
    /// A `JobFailed` the next dispatch reports.
    failure_pending: bool,
    trace: Trace,
}

impl Model {
    fn new(mode: RecoveryMode) -> Model {
        Model {
            sfm: mode.sfm_enabled(),
            launches: BTreeMap::new(),
            launches_on: BTreeMap::new(),
            complete: BTreeSet::new(),
            running: BTreeMap::new(),
            ended: Vec::new(),
            down: BTreeSet::new(),
            regenerating: BTreeSet::new(),
            cancels: Vec::new(),
            job_failed: false,
            failure_pending: false,
            trace: Trace::default(),
        }
    }

    fn is_complete(&self, t: TaskId) -> bool {
        self.complete.contains(&t)
    }

    fn spent(&self, t: TaskId) -> bool {
        self.launches.get(&t).copied().unwrap_or(0) >= MAX_TASK_ATTEMPTS
    }

    fn running_on(&self, node: NodeId, kind: TaskKind) -> u32 {
        self.running.iter().filter(|(a, n)| **n == node && a.task.kind == kind).count() as u32
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

    /// A decision over `charged` tasks: the budget rule and the latch, or
    /// the maps it queues again (every failed map, and under SFM every
    /// lost MOF, at high priority).
    fn decide(&mut self, charged: &[TaskId], queued_maps: &[TaskId]) -> bool {
        self.job_failed |= charged.iter().any(|&t| self.spent(t));
        if self.job_failed {
            self.failure_pending = true;
            return false;
        }
        for &m in queued_maps {
            self.complete.remove(&m);
            if self.sfm {
                self.regenerating.insert(m);
            }
        }
        true
    }
}

/// One dispatch, checked: the pending cancels first; then a pending job
/// failure alone; otherwise launches that are numbered gaplessly, land on
/// nodes believed live within their capacity, and take maps in queue
/// order, skipping complete ones, until one cannot be placed.
fn dispatch(am: &mut Am, model: &mut Model, at_ns: u64) -> Result<(), String> {
    let queued_maps: Vec<TaskId> = am.queued().filter(|t| t.is_map()).collect();
    let mut out = Vec::new();
    am.dispatch(at_ns, &mut out);
    let cancels: Vec<AttemptId> =
        out.iter().map_while(|c| if let Command::Cancel(a) = c { Some(*a) } else { None }).collect();
    prop_assert_eq!(&cancels, &model.cancels);
    model.cancels.clear();
    let rest = &out[cancels.len()..];
    if std::mem::replace(&mut model.failure_pending, false) {
        prop_assert_eq!(rest, &[Command::JobFailed][..]);
        return Ok(());
    }
    let mut launched_maps = Vec::new();
    for command in rest {
        let Command::Launch { attempt, node, mode } = *command else {
            return Err(format!("{command:?} among launches: {out:?}"));
        };
        let t = attempt.task;
        prop_assert!(!model.down.contains(&node), "{attempt} placed on {node}, believed down");
        prop_assert!(model.running_on(node, t.kind) < capacity(t.kind), "{attempt} placed on full {node}");
        let number = model.launches.entry(t).or_insert(0);
        prop_assert_eq!(attempt, t.attempt(*number));
        *number += 1;
        *model.launches_on.entry((t, node)).or_insert(0) += 1;
        model.running.insert(attempt, node);
        let kind = TraceKind::Launched { fcm: mode == ExecMode::Fcm };
        model.trace.push(TraceEvent { at_ns, attempt, node, kind });
        if t.is_map() {
            launched_maps.push(t);
        }
    }
    let mut launched = launched_maps.iter().peekable();
    for t in queued_maps.iter().filter(|t| !model.is_complete(**t)) {
        if launched.next_if_eq(&t).is_none() {
            break;
        }
    }
    prop_assert!(
        launched.next().is_none(),
        "maps {launched_maps:?} launched out of queue order {queued_maps:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn ledger_keeps_the_books(
        mode in 0usize..MODES.len(),
        ops in proptest::collection::vec((0u8..11, 0u32..64, 0u32..NODES, proptest::bool::ANY, proptest::bool::ANY), 0..160),
    ) {
        let mode = MODES[mode];
        let alm = AlmConfig::with_mode(mode);
        let yarn = YarnConfig { max_task_attempts: MAX_TASK_ATTEMPTS, ..YarnConfig::default() };
        let mut am = Am::new(&alm, &yarn, MAPS, REDUCES, NODES, SLOTS);
        let mut model = Model::new(mode);
        for (at_ns, (op, k, node, flag, flag2)) in ops.into_iter().enumerate() {
            let at_ns = at_ns as u64;
            let node = NodeId(node);
            let queued_before: Vec<TaskId> = am.queued().collect();
            match op {
                0 => {
                    let t = task(k);
                    am.submit(t);
                    model.complete.remove(&t);
                }
                1 | 2 => dispatch(&mut am, &mut model, at_ns)?,
                // Completion: a reduce's first one cancels its siblings, a
                // map's leave them running.
                3 => {
                    let Some((attempt, _)) = model.pick(k) else { continue };
                    let t = attempt.task;
                    model.end(at_ns, attempt, TraceKind::Completed);
                    let first = am.complete(at_ns, attempt);
                    prop_assert_eq!(first, !model.is_complete(t));
                    model.complete.insert(t);
                    if t.is_map() {
                        model.regenerating.remove(&t);
                    } else if first {
                        let siblings: Vec<AttemptId> = model.running.keys().copied().filter(|a| a.task == t).collect();
                        for s in siblings {
                            model.end(at_ns, s, TraceKind::Cancelled);
                            model.cancels.push(s);
                        }
                    }
                }
                // Attempt failure, recorded also when its task is complete
                // (a finished map's running sibling), which decides nothing.
                4 | 5 => {
                    let Some((attempt, _)) = model.pick(k) else { continue };
                    let kind = if op == 4 { FailureKind::TaskOom } else { FailureKind::FetchFailureLimit };
                    model.end(at_ns, attempt, TraceKind::Failed(kind));
                    let t = attempt.task;
                    am.fail(at_ns, attempt, kind, flag2.then_some(node));
                    if model.is_complete(t) {
                        prop_assert_eq!(am.queued().collect::<Vec<_>>(), queued_before, "failure of complete {}", t);
                        continue;
                    }
                    let maps: Vec<TaskId> = Some(t).filter(|t| t.is_map()).into_iter().collect();
                    if model.decide(&[t], &maps) {
                        for m in &maps {
                            prop_assert!(am.queued().any(|q| q == *m), "failed {} not queued", m);
                        }
                    }
                }
                // Node expiry: exactly the incomplete tasks' attempts on
                // the node fail, reduces by index and number, then maps;
                // the others are cancelled.
                6 => {
                    let lost: Vec<TaskId> = (0..MAPS).filter(|m| (k >> m) & 1 == 1).map(|m| TaskId::map(JobId(0), m)).collect();
                    am.expire(at_ns, node, lost.clone());
                    prop_assert!(am.is_expired(node));
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
                    let mut maps: Vec<TaskId> = failed.iter().copied().filter(|t| t.is_map()).collect();
                    if model.sfm && alm.proactive_map_regen {
                        for &m in &lost {
                            if !maps.contains(&m) {
                                maps.push(m);
                            }
                        }
                    }
                    if model.decide(&reduces, &maps) {
                        for m in &maps {
                            prop_assert!(am.queued().any(|q| q == *m), "{} not queued after expiry", m);
                        }
                    }
                }
                // A stale report about an attempt that already ended
                // records and decides nothing.
                7 => {
                    if model.ended.is_empty() { continue }
                    let attempt = model.ended[k as usize % model.ended.len()];
                    am.fail(at_ns, attempt, FailureKind::TaskOom, None);
                    prop_assert_eq!(am.queued().collect::<Vec<_>>(), queued_before, "stale failure of {}", attempt);
                }
                8 => {
                    am.node_down(node);
                    model.down.insert(node);
                }
                // Regeneration, asked for directly or by SFM after a fetch
                // failure against a node the AM believes down: once per
                // queued or running re-execution, at the front of the map
                // queue at high priority and at the back otherwise.
                9 | 10 => {
                    let m = TaskId::map(JobId(0), k % MAPS);
                    let (queued, high_priority) = if op == 9 {
                        (am.regenerate(m, flag), flag)
                    } else {
                        (am.fetch_failed(m, node), true)
                    };
                    let asked = op == 9 || (model.sfm && model.down.contains(&node));
                    prop_assert_eq!(queued, asked && !model.regenerating.contains(&m));
                    if queued {
                        model.regenerating.insert(m);
                        model.complete.remove(&m);
                        let maps: Vec<TaskId> = am.queued().filter(|t| t.is_map()).collect();
                        let at = if high_priority { maps.first() } else { maps.last() };
                        prop_assert_eq!(at, Some(&m));
                    }
                }
                _ => unreachable!(),
            }
            // The books: completion, regeneration, liveness, slots, the
            // per-node launch counts of each reduce, and the trace.
            let mut on_nodes = 0;
            for t in tasks() {
                prop_assert_eq!(am.is_complete(t), model.is_complete(t), "{}", t);
                if t.is_map() {
                    prop_assert_eq!(am.is_regenerating(t), model.regenerating.contains(&t), "{}", t);
                } else {
                    for n in (0..NODES).map(NodeId) {
                        let want = model.launches_on.get(&(t, n)).copied().unwrap_or(0);
                        let on = am.trace().nodes_of(t).filter(|&m| m == n).count() as u32;
                        prop_assert_eq!(on, want, "{} on {}", t, n);
                        on_nodes += want;
                    }
                }
            }
            for n in (0..NODES).map(NodeId) {
                prop_assert_eq!(am.is_live(n), !model.down.contains(&n));
                for kind in [TaskKind::Map, TaskKind::Reduce] {
                    prop_assert_eq!(am.free_slots(n, kind), capacity(kind) - model.running_on(n, kind), "{} {}", n, kind);
                }
            }
            prop_assert_eq!(am.trace().launches(TaskKind::Reduce), on_nodes);
            prop_assert_eq!(am.trace(), &model.trace);
            prop_assert_eq!(am.reduces_complete(), tasks().filter(|t| t.is_reduce()).all(|t| model.is_complete(t)));
        }
    }
}
