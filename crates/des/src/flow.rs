//! Equal-share bandwidth resources.
//!
//! A [`FlowPool`] models one contended resource — a node's NIC or its SSD —
//! with processor-sharing semantics: `n` concurrent flows each progress at
//! `capacity / n` bytes per second. This is the standard fluid approximation
//! for TCP fair sharing on a single bottleneck and for mixed sequential I/O
//! on an SSD, and it is what makes the paper's contention effects emerge in
//! simulation: e.g. a recovering reducer pulling from 20 senders saturates
//! its inbound NIC, and heavy merge I/O on one disk slows co-located spills.
//!
//! The pool is pure state: the simulation driver calls [`FlowPool::advance_to`]
//! before any mutation, then re-asks [`FlowPool::next_completion`] and
//! (re)schedules a kernel event at that time.
//!
//! # Cumulative-service representation
//!
//! Because every active flow receives the *same* service rate, the pool
//! tracks one global counter — `service`, the bytes any flow active since
//! the beginning would have received — advanced in O(1) per step
//! (`service += capacity/n · dt`). Each flow stores the counter value at
//! which it started and the value at which it finishes
//! (`target = start + bytes`); its remaining bytes are `target - service`.
//! Since `remaining` differs from `target` by the same global offset for
//! every flow, a list sorted by `(target, id)` *is* a list sorted by
//! `(remaining, id)`: completion lookup reads its head, the completed flows
//! are a prefix, and `add` binary-searches its slot. The flows live in one
//! such sorted `Vec`: a pool holds a handful of flows, where shifting a
//! short array is cheaper than any tree, and `remove` scans for the id.

use crate::time::{SimDuration, SimTime};

/// Identifier for a flow within a pool; allocated by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    id: FlowId,
    /// Global service counter when the flow started.
    start: f64,
    /// Global service counter at which the flow is fully delivered.
    target: f64,
}

impl FlowEntry {
    /// Whether this flow completes before one finishing at `target` with
    /// `id`. Targets are finite by construction (sums of byte counts and
    /// bounded service), where `total_cmp` agrees with the usual `<`.
    fn before(&self, target: f64, id: FlowId) -> bool {
        self.target.total_cmp(&target).then(self.id.cmp(&id)).is_lt()
    }
}

/// A shared-bandwidth resource with equal-share scheduling.
#[derive(Debug, Clone)]
pub struct FlowPool {
    capacity: f64, // bytes per second
    /// Active flows ordered by `(target, id)`, which equals
    /// `(remaining, id)` order because `remaining = target - service`
    /// uniformly across flows.
    flows: Vec<FlowEntry>,
    /// Bytes an always-active flow would have received so far.
    service: f64,
    last_advance: SimTime,
    /// Bytes delivered by flows that already left the pool.
    delivered_completed: f64,
}

impl FlowPool {
    /// A pool with `capacity` bytes/second of total bandwidth.
    pub fn new(capacity_bytes_per_sec: u64) -> FlowPool {
        FlowPool {
            capacity: capacity_bytes_per_sec as f64,
            flows: Vec::new(),
            service: 0.0,
            last_advance: SimTime::ZERO,
            delivered_completed: 0.0,
        }
    }

    /// Bytes a flow present since `start` has received, capped at its size.
    fn served(&self, f: &FlowEntry) -> f64 {
        (self.service - f.start).clamp(0.0, f.target - f.start)
    }

    /// Total bytes fully delivered by this pool (diagnostic/metrics).
    /// O(active flows · log); the hot path never calls it. Active flows are
    /// summed in id order, which fixes the float result.
    pub fn total_delivered(&self) -> f64 {
        let mut by_id: Vec<(FlowId, f64)> = self.flows.iter().map(|f| (f.id, self.served(f))).collect();
        by_id.sort_unstable_by_key(|&(id, _)| id);
        self.delivered_completed + by_id.iter().map(|&(_, served)| served).sum::<f64>()
    }

    /// Per-flow rate right now (bytes/second).
    pub fn rate_per_flow(&self) -> f64 {
        if self.flows.is_empty() {
            self.capacity
        } else {
            self.capacity / self.flows.len() as f64
        }
    }

    /// Progress all flows to `now` at the current equal-share rate — O(1).
    ///
    /// Must be called (by the driver) before any add/remove/query whenever
    /// virtual time has moved. Calls with non-monotone `now` are ignored.
    pub fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let dt = now.since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if self.flows.is_empty() {
            return;
        }
        self.service += self.capacity / self.flows.len() as f64 * dt;
    }

    /// Start a flow of `bytes`. The caller must have advanced the pool to
    /// the current time first. Returns the predicted next completion.
    pub fn add(&mut self, id: FlowId, bytes: u64) -> Option<(FlowId, SimTime)> {
        debug_assert!(self.flows.iter().all(|f| f.id != id), "flow id {id:?} reused while active");
        let entry = FlowEntry { id, start: self.service, target: self.service + bytes as f64 };
        let at = self.flows.partition_point(|f| f.before(entry.target, id));
        self.flows.insert(at, entry);
        self.next_completion()
    }

    /// Remove a flow (completed or aborted), returning its remaining bytes.
    pub fn remove(&mut self, id: FlowId) -> Option<u64> {
        let at = self.flows.iter().position(|f| f.id == id)?;
        let f = self.flows.remove(at);
        self.delivered_completed += self.served(&f);
        Some((f.target - self.service).max(0.0).ceil() as u64)
    }

    /// Flows that are (numerically) finished right now, in id order.
    pub fn drain_completed(&mut self) -> Vec<FlowId> {
        // Sub-byte residue counts as done: remaining = target - service < 1.
        let k = self.flows.partition_point(|f| f.target < self.service + 1.0);
        let mut done = Vec::with_capacity(k);
        for f in self.flows.drain(..k) {
            // `served`, inlined: the drain borrows `flows`. Summed in
            // completion order, which fixes the float result.
            self.delivered_completed += (self.service - f.start).clamp(0.0, f.target - f.start);
            done.push(f.id);
        }
        done.sort_unstable();
        done
    }

    /// Predicted time the *earliest* remaining flow completes, assuming the
    /// current flow set stays fixed. `None` when idle. O(1): the head of
    /// the list is the flow with the least remaining (ties to the smallest
    /// id).
    pub fn next_completion(&self) -> Option<(FlowId, SimTime)> {
        let head = self.flows.first()?;
        let rate = self.rate_per_flow();
        // Predict from the fractional remainder directly, with a 1 ns floor
        // so the driver's wake event always advances virtual time (a zero
        // -duration prediction would livelock the event loop).
        let remaining = (head.target - self.service).max(0.0);
        let d = SimDuration::from_secs_f64(remaining / rate).max(SimDuration::from_nanos(1));
        Some((head.id, self.last_advance + d))
    }

    /// Remaining bytes of one flow.
    #[cfg(test)]
    fn remaining(&self, id: FlowId) -> Option<u64> {
        self.flows.iter().find(|f| f.id == id).map(|f| (f.target - self.service).max(0.0).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut p = FlowPool::new(1_000_000); // 1 MB/s
        p.add(FlowId(1), 500_000);
        let (_, when) = p.next_completion().unwrap();
        assert!((when.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut p = FlowPool::new(1_000_000);
        p.add(FlowId(1), 1_000_000);
        p.add(FlowId(2), 1_000_000);
        assert_eq!(p.rate_per_flow(), 500_000.0);
        // After 1 s each has 500 KB left.
        p.advance_to(t(1000));
        assert_eq!(p.remaining(FlowId(1)).unwrap(), 500_000);
        assert_eq!(p.remaining(FlowId(2)).unwrap(), 500_000);
        // Second flow leaves; first finishes at full rate: 0.5 s more.
        p.remove(FlowId(2));
        let (id, when) = p.next_completion().unwrap();
        assert_eq!(id, FlowId(1));
        assert!((when.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn completion_detection() {
        let mut p = FlowPool::new(100);
        p.add(FlowId(7), 100);
        p.advance_to(t(1000));
        let done = p.drain_completed();
        assert_eq!(done, vec![FlowId(7)]);
        assert!(p.flows.is_empty());
        assert!(p.next_completion().is_none());
    }

    #[test]
    fn advance_is_monotone_and_idempotent() {
        let mut p = FlowPool::new(1000);
        p.add(FlowId(1), 1000);
        p.advance_to(t(500));
        let r = p.remaining(FlowId(1)).unwrap();
        p.advance_to(t(500)); // same time: no change
        p.advance_to(t(100)); // going backwards: ignored
        assert_eq!(p.remaining(FlowId(1)).unwrap(), r);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut p = FlowPool::new(1000);
        p.add(FlowId(1), 0);
        assert_eq!(p.drain_completed(), vec![FlowId(1)]);
    }

    #[test]
    fn late_joiner_tracks_only_its_own_service() {
        let mut p = FlowPool::new(1_000_000);
        p.add(FlowId(1), 1_000_000);
        p.advance_to(t(500)); // flow 1 alone: 500 KB served
        p.add(FlowId(2), 1_000_000);
        assert_eq!(p.remaining(FlowId(2)).unwrap(), 1_000_000);
        p.advance_to(t(1500)); // shared second: 500 KB each
        assert_eq!(p.remaining(FlowId(1)).unwrap(), 0);
        assert_eq!(p.remaining(FlowId(2)).unwrap(), 500_000);
        assert_eq!(p.drain_completed(), vec![FlowId(1)]);
        // Delivered so far: flow 1's full MB plus flow 2's 500 KB.
        assert!((p.total_delivered() - 1_500_000.0).abs() < 1.0);
    }

    #[test]
    fn completion_order_ties_break_by_id() {
        let mut p = FlowPool::new(1000);
        p.add(FlowId(9), 100);
        p.add(FlowId(3), 100);
        let (id, _) = p.next_completion().unwrap();
        assert_eq!(id, FlowId(3));
        p.advance_to(t(10_000));
        assert_eq!(p.drain_completed(), vec![FlowId(3), FlowId(9)]);
    }

    /// The previous per-flow implementation, kept as a test oracle.
    #[derive(Clone)]
    struct NaivePool {
        capacity: f64,
        flows: BTreeMap<FlowId, f64>,
        last: SimTime,
    }

    impl NaivePool {
        fn advance_to(&mut self, now: SimTime) {
            if now <= self.last {
                return;
            }
            let dt = now.since(self.last).as_secs_f64();
            self.last = now;
            if self.flows.is_empty() {
                return;
            }
            let per_flow = self.capacity / self.flows.len() as f64 * dt;
            for r in self.flows.values_mut() {
                *r = (*r - per_flow).max(0.0);
            }
        }

        fn drain_completed(&mut self) -> Vec<FlowId> {
            let done: Vec<FlowId> = self.flows.iter().filter(|(_, r)| **r < 1.0).map(|(id, _)| *id).collect();
            for id in &done {
                self.flows.remove(id);
            }
            done
        }
    }

    /// Total-order f64 key (`f64::total_cmp`) so finish targets can live in
    /// a `BTreeSet`.
    #[derive(Debug, Clone, Copy)]
    struct TotalF64(f64);

    impl PartialEq for TotalF64 {
        fn eq(&self, other: &Self) -> bool {
            self.0.total_cmp(&other.0).is_eq()
        }
    }

    impl Eq for TotalF64 {}

    impl PartialOrd for TotalF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for TotalF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    /// The previous cumulative-service representation — a flow map plus a
    /// `(target, id)` completion index, both B-trees — kept as the oracle
    /// of the sorted-`Vec` pool's arithmetic contract: the same
    /// expressions in the same order, so every observable matches to the
    /// bit.
    struct TreePool {
        capacity: f64,
        /// `id → (start, target)`.
        flows: BTreeMap<FlowId, (f64, f64)>,
        by_target: BTreeSet<(TotalF64, FlowId)>,
        service: f64,
        last_advance: SimTime,
        delivered_completed: f64,
    }

    impl TreePool {
        fn new(capacity_bytes_per_sec: u64) -> TreePool {
            TreePool {
                capacity: capacity_bytes_per_sec as f64,
                flows: BTreeMap::new(),
                by_target: BTreeSet::new(),
                service: 0.0,
                last_advance: SimTime::ZERO,
                delivered_completed: 0.0,
            }
        }

        fn served(&self, (start, target): (f64, f64)) -> f64 {
            (self.service - start).clamp(0.0, target - start)
        }

        fn total_delivered(&self) -> f64 {
            self.delivered_completed + self.flows.values().map(|f| self.served(*f)).sum::<f64>()
        }

        fn advance_to(&mut self, now: SimTime) {
            if now <= self.last_advance {
                return;
            }
            let dt = now.since(self.last_advance).as_secs_f64();
            self.last_advance = now;
            if self.flows.is_empty() {
                return;
            }
            self.service += self.capacity / self.flows.len() as f64 * dt;
        }

        fn add(&mut self, id: FlowId, bytes: u64) -> Option<(FlowId, SimTime)> {
            let entry = (self.service, self.service + bytes as f64);
            self.flows.insert(id, entry);
            self.by_target.insert((TotalF64(entry.1), id));
            self.next_completion()
        }

        fn remove(&mut self, id: FlowId) -> Option<u64> {
            let f = self.flows.remove(&id)?;
            self.by_target.remove(&(TotalF64(f.1), id));
            self.delivered_completed += self.served(f);
            Some((f.1 - self.service).max(0.0).ceil() as u64)
        }

        fn drain_completed(&mut self) -> Vec<FlowId> {
            let mut done = Vec::new();
            while let Some(&(TotalF64(target), id)) = self.by_target.iter().next() {
                if target >= self.service + 1.0 {
                    break;
                }
                self.by_target.remove(&(TotalF64(target), id));
                if let Some(f) = self.flows.remove(&id) {
                    self.delivered_completed += self.served(f);
                }
                done.push(id);
            }
            done.sort_unstable();
            done
        }

        fn next_completion(&self) -> Option<(FlowId, SimTime)> {
            let &(TotalF64(target), id) = self.by_target.iter().next()?;
            let rate =
                if self.flows.is_empty() { self.capacity } else { self.capacity / self.flows.len() as f64 };
            let remaining = (target - self.service).max(0.0);
            let d = SimDuration::from_secs_f64(remaining / rate).max(SimDuration::from_nanos(1));
            Some((id, self.last_advance + d))
        }

        fn remaining(&self, id: FlowId) -> Option<u64> {
            self.flows.get(&id).map(|f| (f.1 - self.service).max(0.0).ceil() as u64)
        }
    }

    /// One step of a random pool workout.
    #[derive(Debug, Clone)]
    enum PoolOp {
        Add(u64),
        /// Remove the live flow at this position (modulo the live count).
        Remove(usize),
        AdvanceNs(u64),
        Drain,
    }

    fn arb_pool_op() -> impl Strategy<Value = PoolOp> {
        prop_oneof![
            // Equal small sizes tie on target, so the id tie-break is hit.
            (0u64..4).prop_map(|k| PoolOp::Add(k * 1_000)),
            (1u64..50_000_000).prop_map(PoolOp::Add),
            (0usize..64).prop_map(PoolOp::Remove),
            (1u64..50_000_000).prop_map(PoolOp::AdvanceNs),
            Just(PoolOp::Drain),
        ]
    }

    proptest! {
        /// Conservation: however we interleave advances, the pool never
        /// delivers more than capacity * elapsed bytes in total.
        #[test]
        fn work_conservation(
            flows in proptest::collection::vec(1u64..10_000_000, 1..10),
            steps in proptest::collection::vec(1u64..5_000, 1..30),
        ) {
            let cap = 1_000_000u64;
            let mut p = FlowPool::new(cap);
            for (i, b) in flows.iter().enumerate() {
                p.add(FlowId(i as u64), *b);
            }
            let mut now = 0u64;
            for s in steps {
                now += s;
                p.advance_to(SimTime::from_ms(now));
                p.drain_completed();
            }
            let elapsed = now as f64 / 1000.0;
            prop_assert!(p.total_delivered() <= cap as f64 * elapsed + 1.0);
            let total_in: f64 = flows.iter().map(|&b| b as f64).sum();
            prop_assert!(p.total_delivered() <= total_in + 1.0);
        }

        /// The predicted completion instant is exact: advancing to it makes
        /// that flow complete (and not earlier).
        #[test]
        fn prediction_is_exact(flows in proptest::collection::vec(1u64..1_000_000, 1..8)) {
            let mut p = FlowPool::new(123_456);
            for (i, b) in flows.iter().enumerate() {
                p.add(FlowId(i as u64), *b);
            }
            let (id, when) = p.next_completion().unwrap();
            // Just before: not yet complete (allow 1ms slack for rounding).
            if when.as_millis() > 2 {
                let mut early = p.clone();
                early.advance_to(SimTime::from_ms(when.as_millis().saturating_sub(2)));
                prop_assert!(!early.drain_completed().contains(&id) || flows.len() > 1);
            }
            p.advance_to(when + crate::time::SimDuration::from_nanos(1));
            prop_assert!(p.drain_completed().contains(&id));
        }

        /// Semantic equivalence with the previous O(n)-per-step
        /// representation: same flows, same advance schedule, same
        /// completion sets at every step (within a byte of float slack at
        /// the boundary, where the two arrangements of the same arithmetic
        /// may disagree on sub-byte residue).
        #[test]
        fn matches_naive_reference(
            adds in proptest::collection::vec((1u64..5_000_000, 1u64..2_000), 1..20),
        ) {
            let cap = 777_777u64;
            let mut fast = FlowPool::new(cap);
            let mut naive = NaivePool { capacity: cap as f64, flows: BTreeMap::new(), last: SimTime::ZERO };
            let mut now = 0u64;
            for (i, (bytes, step_ms)) in adds.iter().enumerate() {
                let id = FlowId(i as u64);
                fast.add(id, *bytes);
                naive.flows.insert(id, *bytes as f64);
                now += step_ms;
                fast.advance_to(SimTime::from_ms(now));
                naive.advance_to(SimTime::from_ms(now));
                let a = fast.drain_completed();
                let b = naive.drain_completed();
                // Allow boundary disagreement: re-drain whichever lags
                // after nudging a hair forward.
                if a != b {
                    let grace = SimTime::from_ms(now) + SimDuration::from_nanos(1_000);
                    fast.advance_to(grace);
                    naive.advance_to(grace);
                    let mut a2 = a; a2.extend(fast.drain_completed());
                    let mut b2 = b; b2.extend(naive.drain_completed());
                    a2.sort_unstable();
                    b2.sort_unstable();
                    prop_assert_eq!(a2, b2);
                }
            }
            prop_assert_eq!(fast.flows.len(), naive.flows.len());
        }

        /// Bit-exact equivalence with the B-tree representation under any
        /// add / remove / advance / drain sequence: the same completions,
        /// predictions, remaining bytes and delivered total after every
        /// step.
        #[test]
        fn matches_tree_pool_bit_for_bit(ops in proptest::collection::vec(arb_pool_op(), 1..120)) {
            let cap = 1_250_000_000u64;
            let mut pool = FlowPool::new(cap);
            let mut tree = TreePool::new(cap);
            let mut now = SimTime::ZERO;
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    PoolOp::Add(bytes) => {
                        let id = FlowId(next_id);
                        next_id += 1;
                        prop_assert_eq!(pool.add(id, bytes), tree.add(id, bytes));
                    }
                    PoolOp::Remove(k) => {
                        if let Some(&id) = tree.flows.keys().nth(k % tree.flows.len().max(1)) {
                            prop_assert_eq!(pool.remove(id), tree.remove(id));
                        }
                        prop_assert_eq!(pool.remove(FlowId(next_id)), None);
                    }
                    PoolOp::AdvanceNs(ns) => {
                        now += SimDuration::from_nanos(ns);
                        pool.advance_to(now);
                        tree.advance_to(now);
                    }
                    PoolOp::Drain => prop_assert_eq!(pool.drain_completed(), tree.drain_completed()),
                }
                prop_assert_eq!(pool.next_completion(), tree.next_completion());
                prop_assert_eq!(pool.total_delivered().to_bits(), tree.total_delivered().to_bits());
                for &id in tree.flows.keys() {
                    prop_assert_eq!(pool.remaining(id), tree.remaining(id));
                }
                prop_assert_eq!(pool.flows.len(), tree.flows.len());
            }
        }
    }
}
