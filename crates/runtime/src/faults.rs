//! Fault injection plans — the experiment methodology of §V-A.
//!
//! The vocabulary itself lives in `alm_types::failure` so that this engine
//! and the discrete-event simulator inject from one shared plan type; this
//! module re-exports it under the runtime's historical path. The AM arms
//! the plan through `FaultPlan::arm`, the same call the simulator makes,
//! and drains the resulting `FaultTimeline`: `at_ms` triggers fire against
//! the job's real-time clock, progress triggers on reduce progress events,
//! kills when their attempt launches, and [`Fault::SlowNode`] throttles a
//! node's task threads at their safe points.

pub use alm_types::failure::{Fault, FaultPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::{JobId, NodeId, TaskId};

    #[test]
    fn runtime_and_types_share_one_plan_type() {
        // A plan built through the runtime path is the types' plan —
        // not a parallel definition.
        let t = TaskId::reduce(JobId(0), 1);
        let plan: alm_types::FaultPlan =
            FaultPlan::kill_task(t, 0.5).and(FaultPlan::crash_node_at_ms(NodeId(2), 100));
        assert_eq!(plan.arm().kills[&t.attempt(0)], 0.5);
        assert_eq!(plan.injected_count(), 2);
    }
}
