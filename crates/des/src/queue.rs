//! Cancellable, deterministic event queue.
//!
//! Events are arbitrary payloads `E`. Scheduling returns an [`EventToken`]
//! that can later cancel the event (lazily: cancelled entries are skipped at
//! pop time). Events at the same instant pop in scheduling order, which
//! makes whole simulations reproducible bit-for-bit.
//!
//! Cancellation leaves a dead entry in the heap; workloads that cancel
//! heavily (the warehouse engine cancels every task a crashed node was
//! running, and every SFM suspension) would otherwise grow the heap far
//! beyond the live event count. When dead entries outnumber live ones
//! (past a small floor) the heap is rebuilt from the live entries — an
//! O(live) operation amortised against the cancellations that earned it,
//! and invisible to event order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Handle for a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

#[derive(PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earlier time first; FIFO among equals.
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A virtual-time priority queue of events of type `E`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry>>,
    #[allow(
        clippy::disallowed_types,
        reason = "lookup-only by sequence number (insert/remove/len): never iterated, so hash order \
                  cannot reach the event schedule, and O(1) removal is what `cancel` is measured on"
    )]
    payloads: std::collections::HashMap<u64, E>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    /// Dead entries still sitting in `heap` (cancelled, not yet skipped).
    cancelled: u64,
}

/// Compaction floor: below this many dead entries a rebuild isn't worth
/// the traversal, whatever the live count.
const COMPACT_MIN_DEAD: u64 = 64;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Default::default(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            cancelled: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (diagnostic).
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Number of live (scheduled, not cancelled, not popped) events.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Schedule `event` at absolute time `t`. Scheduling in the past (before
    /// `now`) is clamped to `now`: the event fires immediately-next. This
    /// matches how hardware models hand the kernel "already due" deadlines
    /// after floating-point rounding.
    pub fn schedule_at(&mut self, t: SimTime, event: E) -> EventToken {
        let t = t.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time: t, seq }));
        self.payloads.insert(seq, event);
        EventToken(seq)
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_after(&mut self, d: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + d, event)
    }

    /// Cancel a scheduled event. Returns the payload if the event was still
    /// pending, `None` if it already fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> Option<E> {
        let payload = self.payloads.remove(&token.0);
        if payload.is_some() {
            self.cancelled += 1;
            self.maybe_compact();
        }
        payload
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let Reverse(entry) = self.heap.pop()?;
        let payload =
            self.payloads.remove(&entry.seq).expect("skip_cancelled guarantees a live payload at the top");
        debug_assert!(entry.time >= self.now, "virtual time must be monotone");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, payload))
    }

    fn skip_cancelled(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.payloads.contains_key(&top.seq) {
                break;
            }
            self.heap.pop();
            self.cancelled = self.cancelled.saturating_sub(1);
        }
    }

    /// Rebuild the heap from live entries once dead ones dominate. Entry
    /// order is a pure function of `(time, seq)`, so a rebuild can never
    /// change what pops next.
    fn maybe_compact(&mut self) {
        if self.cancelled < COMPACT_MIN_DEAD || self.cancelled <= self.payloads.len() as u64 {
            return;
        }
        let live: Vec<Reverse<Entry>> = std::mem::take(&mut self.heap)
            .into_iter()
            .filter(|Reverse(e)| self.payloads.contains_key(&e.seq))
            .collect();
        self.heap = BinaryHeap::from(live);
        self.cancelled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order_fifo_on_ties() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(10), "b-first-at-10");
        q.schedule_at(SimTime::from_ms(5), "a");
        q.schedule_at(SimTime::from_ms(10), "c-second-at-10");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b-first-at-10");
        assert_eq!(q.pop().unwrap().1, "c-second-at-10");
        assert!(q.pop().is_none());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(7), ());
        q.schedule_after(SimDuration::from_ms(3), ()); // at t=3
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(3));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(7));
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let t1 = q.schedule_at(SimTime::from_ms(1), 1);
        q.schedule_at(SimTime::from_ms(2), 2);
        assert_eq!(q.cancel(t1), Some(1));
        assert_eq!(q.cancel(t1), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(100), "late");
        q.pop();
        q.schedule_at(SimTime::from_ms(1), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "past");
        assert_eq!(t, SimTime::from_ms(100), "clamped to now");
    }

    #[test]
    fn compaction_bounds_heap_growth() {
        let mut q = EventQueue::new();
        // Schedule 10k, cancel all but 10: without compaction the heap
        // would keep ~10k entries until they surface.
        let tokens: Vec<_> = (0..10_000u64).map(|ms| q.schedule_at(SimTime::from_ms(ms), ms)).collect();
        for t in tokens.iter().skip(10) {
            q.cancel(*t);
        }
        assert_eq!(q.len(), 10);
        assert!(
            q.heap.len() <= 2 * q.len() + COMPACT_MIN_DEAD as usize,
            "heap={} live={}",
            q.heap.len(),
            q.len()
        );
        // The survivors still pop, in order.
        let survivors: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(survivors, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn compaction_preserves_order_and_fifo_ties() {
        // Same schedule with and without interleaved cancel pressure on
        // unrelated events: the survivor sequence must be identical.
        let run = |noise: bool| -> Vec<(u64, u64)> {
            let mut q = EventQueue::new();
            for i in 0..500u64 {
                q.schedule_at(SimTime::from_ms(i % 7), i);
                if noise {
                    let t = q.schedule_at(SimTime::from_ms(3), 1_000_000 + i);
                    q.cancel(t);
                }
            }
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_millis(), e))).collect()
        };
        assert_eq!(run(false), run(true));
    }

    proptest! {
        /// Popping must always yield a non-decreasing time sequence, with
        /// FIFO order among equal timestamps, regardless of insertion order
        /// and interleaved cancellations.
        #[test]
        fn time_monotonicity_under_random_ops(ops in proptest::collection::vec((0u64..1000, proptest::bool::ANY), 1..200)) {
            let mut q = EventQueue::new();
            let mut tokens = Vec::new();
            for (ms, cancel_one) in ops {
                tokens.push(q.schedule_at(SimTime::from_ms(ms), ms));
                if cancel_one && tokens.len() > 2 {
                    let victim = tokens[tokens.len() / 2];
                    q.cancel(victim);
                }
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                prop_assert_eq!(q.now(), t);
            }
            prop_assert!(q.is_empty());
        }
    }
}
