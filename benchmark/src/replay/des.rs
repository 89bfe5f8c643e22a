//! `alm-des` replays: the event queue in the classic *hold* model (pop one
//! event, schedule another, at a steady pending-set size) and the
//! `FlowPool` in the completion cycle the simulator drives it through.
//!
//! The queue feeds both simulators; the flow pool only `alm-sim`.

use std::hint::black_box;

use alm_des::flow::{FlowId, FlowPool};
use alm_des::queue::EventQueue;
use alm_des::rng;
use alm_des::time::SimTime;
use rand::Rng;

use crate::clock;
use crate::metrics::Metrics;

/// Timed operations per queue rung.
const HOLDS: usize = 400_000;
const CANCELS: usize = 200_000;
/// Timed completion cycles per flow rung.
const FLOW_CYCLES: usize = 200_000;

/// Nanoseconds per `pop` + `schedule_at` with `pending` events queued.
fn hold_ns(pending: usize, seed: u64) -> f64 {
    let mut rng = rng::stream(seed, &format!("benchmark/des-hold/{pending}"));
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending {
        q.schedule_at(SimTime::from_nanos(rng.random_range(0..1_000_000u64)), i as u64);
    }
    let increments: Vec<u64> = (0..HOLDS).map(|_| rng.random_range(1..1_000_000u64)).collect();
    let start = clock::now();
    for inc in &increments {
        let (t, e) = q.pop().expect("the hold model keeps the queue non-empty");
        q.schedule_at(SimTime::from_nanos(t.as_nanos() + inc), black_box(e));
    }
    let secs = clock::secs_since(start);
    assert_eq!(q.len(), pending, "hold model must preserve the pending-set size");
    secs * 1e9 / HOLDS as f64
}

/// Nanoseconds per `cancel` of a pending event (1k live events stay
/// queued underneath, and the queue's compaction runs as it would in a
/// simulation).
fn cancel_ns(seed: u64) -> f64 {
    let mut rng = rng::stream(seed, "benchmark/des-cancel");
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..1024u64 {
        q.schedule_at(SimTime::from_nanos(rng.random_range(0..1_000_000u64)), i);
    }
    let tokens: Vec<_> = (0..CANCELS as u64)
        .map(|i| q.schedule_at(SimTime::from_nanos(rng.random_range(0..1_000_000u64)), i))
        .collect();
    let start = clock::now();
    for t in &tokens {
        black_box(q.cancel(*t));
    }
    let secs = clock::secs_since(start);
    assert_eq!(q.len(), 1024, "only the cancelled events may leave the queue");
    secs * 1e9 / CANCELS as f64
}

/// Nanoseconds per completion cycle — `next_completion`, `advance_to`,
/// `drain_completed`, then `add` back up to `k` concurrent flows.
fn flow_cycle_ns(k: usize, seed: u64) -> f64 {
    let mut rng = rng::stream(seed, &format!("benchmark/des-flow/{k}"));
    let mut pool = FlowPool::new(1_250_000_000); // 10 GbE, the paper's NIC
    let mut next_id = 0u64;
    // Sizes are drawn inside the timed loop: one generator step is a few
    // nanoseconds against a cycle of several tree operations.
    let mut add = |pool: &mut FlowPool| {
        pool.add(FlowId(next_id), rng.random_range(64 * 1024..64 * 1024 * 1024u64));
        next_id += 1;
    };
    for _ in 0..k {
        add(&mut pool);
    }
    let mut completed = 0usize;
    let start = clock::now();
    while completed < FLOW_CYCLES {
        let (_, at) = pool.next_completion().expect("the pool is kept at k flows");
        pool.advance_to(at);
        let done = pool.drain_completed().len();
        completed += done;
        for _ in 0..done {
            add(&mut pool);
        }
    }
    let secs = clock::secs_since(start);
    black_box(pool.total_delivered());
    secs * 1e9 / completed as f64
}

pub fn run(seed: u64, out: &mut Metrics) {
    out.set("des.queue.hold_ns.p64", hold_ns(64, seed));
    out.set("des.queue.hold_ns.p1k", hold_ns(1024, seed));
    out.set("des.queue.hold_ns.p16k", hold_ns(16 * 1024, seed));
    out.set("des.queue.cancel_ns", cancel_ns(seed));
    out.set("des.flow.cycle_ns.k8", flow_cycle_ns(8, seed));
    out.set("des.flow.cycle_ns.k64", flow_cycle_ns(64, seed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_measures_real_work() {
        let mut out = Metrics::new();
        run(7, &mut out);
        for name in [
            "des.queue.hold_ns.p64",
            "des.queue.hold_ns.p1k",
            "des.queue.hold_ns.p16k",
            "des.queue.cancel_ns",
            "des.flow.cycle_ns.k8",
            "des.flow.cycle_ns.k64",
        ] {
            assert!(out.get(name).is_some_and(|v| v > 0.0), "{name} must be positive");
        }
    }
}
