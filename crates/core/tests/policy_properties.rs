//! Property-based tests of the recovery policy: for arbitrary failure
//! reports, scheduler contexts and recovery modes, the policy's
//! invariants hold.

use proptest::prelude::*;
use std::collections::BTreeMap;

use alm_core::sfm::policy::MAX_RUNNING_FOR_SPECULATION;
use alm_core::{schedule_recovery, ExecMode, PolicyCtx, SchedAction};
use alm_types::{FailureReport, JobId, NodeId, RecoveryMode, TaskId};

const MODES: [RecoveryMode; 4] =
    [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg];

fn arb_report() -> impl Strategy<Value = FailureReport> {
    (
        0u32..30,
        proptest::bool::ANY,
        proptest::collection::btree_set(0u32..40, 0..12),
        proptest::collection::btree_set(0u32..200, 0..30),
        proptest::collection::btree_set(0u32..200, 0..30),
    )
        .prop_map(|(node, alive, reduces, maps, lost)| FailureReport {
            source_node: NodeId(node),
            node_alive: alive,
            failed_reduces: reduces.into_iter().map(|i| TaskId::reduce(JobId(0), i)).collect(),
            failed_maps: maps.into_iter().map(|i| TaskId::map(JobId(0), i)).collect(),
            lost_mofs: lost.into_iter().map(|i| TaskId::map(JobId(0), i)).collect(),
        })
}

fn arb_ctx(report: &FailureReport) -> impl Strategy<Value = PolicyCtx> {
    let reduces = report.failed_reduces.clone();
    (
        (0usize..MODES.len(), proptest::bool::ANY),
        0u32..3,
        1usize..20,
        0usize..25,
        proptest::collection::vec((0u32..4, 0u32..4, proptest::bool::ANY, 0u32..30), reduces.len()),
    )
        .prop_map(move |((mode, proactive_map_regen), limit_local, fcm_cap, fcm_running, per_reduce)| {
            let mut attempts_on_source_node = BTreeMap::new();
            let mut running_attempts = BTreeMap::new();
            let mut resume_node = BTreeMap::new();
            for (r, (on_node, running, logged, log_node)) in reduces.iter().zip(per_reduce) {
                attempts_on_source_node.insert(*r, on_node);
                running_attempts.insert(*r, running);
                if logged {
                    resume_node.insert(*r, NodeId(log_node));
                }
            }
            PolicyCtx {
                mode: MODES[mode],
                proactive_map_regen,
                limit_local,
                fcm_cap,
                fcm_tasks_running: fcm_running,
                attempts_on_source_node,
                running_attempts,
                resume_node,
            }
        })
}

proptest! {
    #[test]
    fn policy_invariants(report in arb_report().prop_flat_map(|r| {
        let ctx = arb_ctx(&r);
        (Just(r), ctx)
    })) {
        let (report, ctx) = report;
        report.validate().unwrap();
        let actions = schedule_recovery(&report, &ctx);
        let sfm = matches!(ctx.mode, RecoveryMode::Sfm | RecoveryMode::SfmAlg);

        // 1. Every failed map runs again exactly once, in report order; a
        //    lost MOF runs again only under SFM with proactive regeneration
        //    (once, after the failed maps). SFM's map launches are high
        //    priority, the others normal; nothing else launches maps.
        let mut want_maps = report.failed_maps.clone();
        if sfm && ctx.proactive_map_regen {
            want_maps.extend(report.lost_mofs.iter().filter(|m| !report.failed_maps.contains(m)));
        }
        let map_launches: Vec<TaskId> = actions
            .iter()
            .filter_map(|a| match a {
                SchedAction::LaunchMap { task, high_priority } => Some((*task, *high_priority)),
                _ => None,
            })
            .map(|(task, high_priority)| {
                assert!(task.is_map());
                assert_eq!(high_priority, sfm, "map priority under {:?}", ctx.mode);
                task
            })
            .collect();
        prop_assert_eq!(map_launches, want_maps);

        if !sfm {
            // 2. Outside SFM every failed reduce is relaunched exactly once
            //    as a plain attempt, pinned only under ALG to its live log
            //    node; nothing is speculative, origin-pinned or FCM.
            let relaunched: Vec<TaskId> = actions
                .iter()
                .filter_map(|a| match a {
                    SchedAction::LaunchMap { .. } => None,
                    SchedAction::RelaunchReduce { task, prefer } => {
                        let want = match ctx.mode {
                            RecoveryMode::Alg if report.node_alive => ctx.resume_node.get(task).copied(),
                            _ => None,
                        };
                        assert_eq!(*prefer, want, "{task} under {:?}", ctx.mode);
                        Some(*task)
                    }
                    other => panic!("{other:?} issued under {:?}", ctx.mode),
                })
                .collect();
            prop_assert_eq!(relaunched, report.failed_reduces.clone());
            return Ok(());
        }

        // Under SFM, Algorithm 1's invariants.
        prop_assert!(!actions.iter().any(|a| matches!(a, SchedAction::RelaunchReduce { .. })));

        // 2. Local relaunches only when the node lives and the budget allows.
        for a in &actions {
            if let SchedAction::RelaunchReduceOnOrigin { task, node } = a {
                prop_assert!(report.node_alive, "local relaunch on a dead node");
                prop_assert_eq!(*node, report.source_node);
                prop_assert!(ctx.attempts_on_source_node[task] < ctx.limit_local);
            }
        }

        // 3. New FCM admissions never exceed the remaining budget (the
        //    paper's `<=` admits one past the cap; tasks already running
        //    above the cap admit nothing new).
        let fcm_new = actions.iter().filter(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { mode: ExecMode::Fcm, .. })).count();
        let budget = (ctx.fcm_cap + 1).saturating_sub(ctx.fcm_tasks_running);
        prop_assert!(fcm_new <= budget,
            "FCM budget blown: {} new admissions with running {} and cap {}", fcm_new, ctx.fcm_tasks_running, ctx.fcm_cap);

        // 4. At most one speculative attempt per failed reduce, always
        //    avoiding the failure's source node; none for maps.
        let mut spec_seen = std::collections::BTreeSet::new();
        for a in &actions {
            if let SchedAction::LaunchSpeculativeReduce { task, avoid, .. } = a {
                prop_assert!(task.is_reduce());
                prop_assert!(report.failed_reduces.contains(task));
                prop_assert_eq!(*avoid, Some(report.source_node));
                prop_assert!(spec_seen.insert(*task), "duplicate speculative attempt for {task}");
            }
        }

        // 5. Reduces with too many running attempts get no speculative copy.
        for r in &report.failed_reduces {
            let running = ctx.running_attempts[r]
                + actions.iter().filter(|a| matches!(a, SchedAction::RelaunchReduceOnOrigin { task, .. } if task == r)).count() as u32;
            let has_spec = actions.iter().any(|a| matches!(a, SchedAction::LaunchSpeculativeReduce { task, .. } if task == r));
            if running > MAX_RUNNING_FOR_SPECULATION {
                prop_assert!(!has_spec, "speculation despite {running} running attempts of {r}");
            } else {
                prop_assert!(has_spec, "missing speculation for {r} with {running} running attempts");
            }
        }
    }

    /// The policy is a pure function: same inputs, same actions.
    #[test]
    fn policy_is_deterministic(pair in arb_report().prop_flat_map(|r| {
        let ctx = arb_ctx(&r);
        (Just(r), ctx)
    })) {
        let (report, ctx) = pair;
        prop_assert_eq!(schedule_recovery(&report, &ctx), schedule_recovery(&report, &ctx));
    }
}
