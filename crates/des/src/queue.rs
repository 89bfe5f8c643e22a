//! Cancellable, deterministic event queue.
//!
//! Events are arbitrary payloads `E`. Scheduling returns an [`EventToken`]
//! that can later cancel the event or move it to another instant. Events at
//! the same instant pop in scheduling order, which makes whole simulations
//! reproducible bit-for-bit.
//!
//! The queue is an indexed binary min-heap of `(time, seq, slot)` keys. The
//! payloads sit in a slab of slots, reused through a free list, and every
//! occupied slot records where its key sits in the heap. `cancel` and
//! `reschedule` therefore find their entry directly and repair the heap in
//! one sift, O(log n), and the heap holds exactly the live events. The
//! callers lean on this: `alm-sim` moves a pool's wake-up every time a flow
//! starts or ends on it (1.66 moves per popped event on the seed-42
//! benchmark campaign, beside 1.00 fresh schedules), and the warehouse
//! engine cancels every task a crashed node was running.
//!
//! Pop order is a pure function of `(time, seq)`. A `seq` is drawn once per
//! [`EventQueue::schedule_at`] and once per [`EventQueue::reschedule`], so
//! moving an event orders it exactly as cancelling it and scheduling its
//! payload afresh would.

use crate::time::{SimDuration, SimTime};

/// Handle for a scheduled event, used to cancel or move it.
///
/// It names the event's slot and the `seq` the event was first scheduled
/// with. A slot keeps that `seq` until the slot is reused, and no `seq` is
/// ever drawn twice, so a token whose event fired or was cancelled can never
/// reach a later event that reuses its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: usize,
    id: u64,
}

/// One heap entry: the event's position in pop order and its slot.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl Key {
    /// Earlier time first; FIFO among equals. `seq`s are unique, so two
    /// keys never tie.
    fn before(&self, other: &Key) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

struct Slot<E> {
    /// The `seq` its event was first scheduled with (the token's `id`);
    /// kept after the event leaves, until the slot is reused.
    id: u64,
    /// Index of the event's key in `heap`, while `event` is `Some`.
    pos: usize,
    event: Option<E>,
}

/// A virtual-time priority queue of events of type `E`.
pub struct EventQueue<E> {
    /// Min-heap on `(time, seq)`; one key per live event.
    heap: Vec<Key>,
    slots: Vec<Slot<E>>,
    /// Slots whose event fired or was cancelled, reused last-freed first.
    free: Vec<usize>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
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
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `t`. Scheduling in the past (before
    /// `now`) is clamped to `now`: the event fires immediately-next. This
    /// matches how hardware models hand the kernel "already due" deadlines
    /// after floating-point rounding.
    pub fn schedule_at(&mut self, t: SimTime, event: E) -> EventToken {
        let seq = self.draw_seq();
        let occupied = Slot { id: seq, pos: 0, event: Some(event) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = occupied;
                slot
            }
            None => {
                self.slots.push(occupied);
                self.slots.len() - 1
            }
        };
        self.heap.push(Key { time: t.max(self.now), seq, slot });
        self.sift_up(self.heap.len() - 1);
        EventToken { slot, id: seq }
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_after(&mut self, d: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + d, event)
    }

    /// Cancel a scheduled event. Returns the payload if the event was still
    /// pending, `None` if it already fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> Option<E> {
        let pos = self.live_pos(token)?;
        self.remove_at(pos);
        Some(self.release(token.slot))
    }

    /// Move a pending event to `t` (clamped to `now`, as in `schedule_at`)
    /// with a fresh `seq`: it then pops exactly where cancelling it and
    /// scheduling its payload at `t` would put it. The token stays valid.
    /// Returns `false`, and schedules nothing, if the event already fired or
    /// was cancelled.
    pub fn reschedule(&mut self, token: EventToken, t: SimTime) -> bool {
        let Some(pos) = self.live_pos(token) else {
            return false;
        };
        self.heap[pos] = Key { time: t.max(self.now), seq: self.draw_seq(), slot: token.slot };
        self.resift(pos);
        true
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        self.remove_at(0);
        debug_assert!(top.time >= self.now, "virtual time must be monotone");
        self.now = top.time;
        self.popped += 1;
        Some((top.time, self.release(top.slot)))
    }

    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Heap position of the token's event, if it is still pending.
    fn live_pos(&self, token: EventToken) -> Option<usize> {
        let slot = self.slots.get(token.slot)?;
        (slot.id == token.id && slot.event.is_some()).then_some(slot.pos)
    }

    /// Empty a slot whose key has left the heap, returning its payload.
    fn release(&mut self, slot: usize) -> E {
        let event = self.slots[slot].event.take().expect("a key in the heap names an occupied slot");
        self.free.push(slot);
        event
    }

    /// Take the key at `pos` out of the heap; the last key fills the hole.
    fn remove_at(&mut self, pos: usize) {
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.resift(pos);
        }
    }

    /// Sift the key at `pos`, which just changed, whichever way restores
    /// the heap.
    fn resift(&mut self, pos: usize) {
        if pos > 0 && self.heap[pos].before(&self.heap[(pos - 1) / 2]) {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Record that `key` now sits at `pos`.
    fn place(&mut self, pos: usize, key: Key) {
        self.heap[pos] = key;
        self.slots[key.slot].pos = pos;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, key);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        let n = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            if !self.heap[child].before(&key) {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    /// The previous lazy-deletion queue — a `(time, seq)` heap beside a
    /// `seq → payload` side-table, cancelled entries skipped at pop time and
    /// compacted away once they outnumber the live ones — kept as the oracle
    /// of the indexed heap's order. Its `reschedule` is cancel-then-schedule,
    /// the ordering `EventQueue::reschedule` promises.
    struct TombstoneQueue<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        payloads: BTreeMap<u64, E>,
        now: SimTime,
        next_seq: u64,
        popped: u64,
        /// Dead entries still sitting in `heap`.
        cancelled: u64,
    }

    /// Below this many dead entries a compaction isn't worth the traversal.
    const COMPACT_MIN_DEAD: u64 = 64;

    impl<E> TombstoneQueue<E> {
        fn new() -> Self {
            TombstoneQueue {
                heap: BinaryHeap::new(),
                payloads: BTreeMap::new(),
                now: SimTime::ZERO,
                next_seq: 0,
                popped: 0,
                cancelled: 0,
            }
        }

        fn schedule_at(&mut self, t: SimTime, event: E) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((t.max(self.now), seq)));
            self.payloads.insert(seq, event);
            seq
        }

        fn cancel(&mut self, token: u64) -> Option<E> {
            let payload = self.payloads.remove(&token);
            if payload.is_some() {
                self.cancelled += 1;
                self.maybe_compact();
            }
            payload
        }

        /// Cancel-then-schedule; the event's token moves to its new `seq`.
        fn reschedule(&mut self, token: &mut u64, t: SimTime) -> bool {
            match self.cancel(*token) {
                Some(event) => {
                    *token = self.schedule_at(t, event);
                    true
                }
                None => false,
            }
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(&Reverse((_, seq))) = self.heap.peek() {
                if self.payloads.contains_key(&seq) {
                    break;
                }
                self.heap.pop();
                self.cancelled = self.cancelled.saturating_sub(1);
            }
            let Reverse((time, seq)) = self.heap.pop()?;
            let payload = self.payloads.remove(&seq).expect("dead entries were skipped");
            self.now = time;
            self.popped += 1;
            Some((time, payload))
        }

        fn maybe_compact(&mut self) {
            if self.cancelled < COMPACT_MIN_DEAD || self.cancelled <= self.payloads.len() as u64 {
                return;
            }
            let live: Vec<_> = std::mem::take(&mut self.heap)
                .into_iter()
                .filter(|Reverse((_, seq))| self.payloads.contains_key(seq))
                .collect();
            self.heap = BinaryHeap::from(live);
            self.cancelled = 0;
        }
    }

    /// Every key sits where its slot says, and no child precedes its parent.
    fn assert_indexed_heap<E>(q: &EventQueue<E>) {
        for (pos, key) in q.heap.iter().enumerate() {
            assert_eq!(q.slots[key.slot].pos, pos);
            assert!(q.slots[key.slot].event.is_some());
            if pos > 0 {
                assert!(q.heap[(pos - 1) / 2].before(key));
            }
        }
        let occupied = q.slots.iter().filter(|s| s.event.is_some()).count();
        assert_eq!(occupied, q.heap.len());
        assert_eq!(q.slots.len() - q.free.len(), q.heap.len());
    }

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
    fn reschedule_moves_event_behind_its_new_peers() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_ms(1), "a");
        q.schedule_at(SimTime::from_ms(5), "b");
        q.schedule_at(SimTime::from_ms(5), "c");
        // Moved to 5 ms, `a` queues behind the events already there.
        assert!(q.reschedule(a, SimTime::from_ms(5)));
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_millis(), e))).collect();
        assert_eq!(order, [(5, "b"), (5, "c"), (5, "a")]);
    }

    #[test]
    fn reschedule_earlier_and_into_the_past() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(10), "first");
        let late = q.schedule_at(SimTime::from_ms(50), "late");
        q.schedule_at(SimTime::from_ms(20), "mid");
        assert_eq!(q.pop().unwrap().1, "first");
        // Moving into the past clamps to now, ahead of `mid`.
        assert!(q.reschedule(late, SimTime::from_ms(1)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ms(10), "late"));
        assert_eq!(q.pop().unwrap().1, "mid");
    }

    /// A token whose event fired or was cancelled is dead for good: it
    /// cancels and moves nothing, not even the event that reused its slot.
    #[test]
    fn stale_tokens_cannot_touch_the_slot_reuser() {
        let mut q = EventQueue::new();
        let fired = q.schedule_at(SimTime::from_ms(1), "fired");
        assert_eq!(q.pop().unwrap().1, "fired");
        let reuser = q.schedule_at(SimTime::from_ms(3), "reuser");
        assert_eq!(reuser.slot, fired.slot, "the freed slot is reused");
        assert_eq!(q.cancel(fired), None);
        assert!(!q.reschedule(fired, SimTime::from_ms(2)));

        let cancelled = q.schedule_at(SimTime::from_ms(4), "cancelled");
        assert_eq!(q.cancel(cancelled), Some("cancelled"));
        let reuser2 = q.schedule_at(SimTime::from_ms(5), "reuser2");
        assert_eq!(reuser2.slot, cancelled.slot);
        assert_eq!(q.cancel(cancelled), None);
        assert!(!q.reschedule(cancelled, SimTime::from_ms(2)));

        // A dead token's reschedule drew no `seq` and queued nothing.
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_seq, 4);
        assert_indexed_heap(&q);
        assert_eq!(q.pop().unwrap(), (SimTime::from_ms(3), "reuser"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ms(5), "reuser2"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn heap_holds_exactly_the_live_events() {
        let mut q = EventQueue::new();
        let tokens: Vec<_> = (0..10_000u64).map(|ms| q.schedule_at(SimTime::from_ms(ms), ms)).collect();
        for t in tokens.iter().skip(10) {
            q.cancel(*t);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.heap.len(), 10);
        assert_indexed_heap(&q);
        // The survivors still pop, in order.
        let survivors: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(survivors, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn cancellation_preserves_order_and_fifo_ties() {
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

    /// One step of a random queue workout. Indices pick from every token
    /// ever issued (modulo their count), so live, fired, cancelled and
    /// slot-reused tokens are all hit.
    #[derive(Debug, Clone)]
    enum QueueOp {
        Schedule(u64),
        Cancel(usize),
        Reschedule(usize, u64),
        Pop,
    }

    fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
        // Times from a small range: equal-time ties are common, and once the
        // clock has moved many land in the past and clamp to `now`. Schedules
        // and pops are listed twice to keep the queue populated.
        prop_oneof![
            (0u64..40).prop_map(QueueOp::Schedule),
            (0u64..40).prop_map(QueueOp::Schedule),
            (0usize..256).prop_map(QueueOp::Cancel),
            ((0usize..256), (0u64..40)).prop_map(|(i, ms)| QueueOp::Reschedule(i, ms)),
            Just(QueueOp::Pop),
            Just(QueueOp::Pop),
        ]
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

        /// Step-for-step equivalence with the lazy-deletion queue: the same
        /// pops, the same cancel and reschedule results, and the same
        /// `len` / `now` / `popped_count` after every operation.
        #[test]
        fn matches_tombstone_queue(ops in proptest::collection::vec(arb_queue_op(), 1..300)) {
            let mut q = EventQueue::new();
            let mut oracle = TombstoneQueue::new();
            let mut tokens: Vec<(EventToken, u64)> = Vec::new();
            for op in ops {
                match op {
                    QueueOp::Schedule(ms) => {
                        let payload = tokens.len() as u64;
                        let t = SimTime::from_ms(ms);
                        tokens.push((q.schedule_at(t, payload), oracle.schedule_at(t, payload)));
                    }
                    QueueOp::Cancel(i) if !tokens.is_empty() => {
                        let (token, seq) = tokens[i % tokens.len()];
                        prop_assert_eq!(q.cancel(token), oracle.cancel(seq));
                    }
                    QueueOp::Reschedule(i, ms) if !tokens.is_empty() => {
                        let n = tokens.len();
                        let (token, seq) = &mut tokens[i % n];
                        let t = SimTime::from_ms(ms);
                        prop_assert_eq!(q.reschedule(*token, t), oracle.reschedule(seq, t));
                    }
                    QueueOp::Cancel(_) | QueueOp::Reschedule(..) => {}
                    QueueOp::Pop => prop_assert_eq!(q.pop(), oracle.pop()),
                }
                prop_assert_eq!(q.len(), oracle.payloads.len());
                prop_assert_eq!(q.now(), oracle.now);
                prop_assert_eq!(q.popped_count(), oracle.popped);
                assert_indexed_heap(&q);
            }
            while let Some(popped) = q.pop() {
                prop_assert_eq!(Some(popped), oracle.pop());
            }
            prop_assert_eq!(oracle.pop(), None);
        }
    }
}
