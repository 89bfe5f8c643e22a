//! The reducer's fetch loop, written once for both engines.
//!
//! What a reducer does when it cannot copy a map's output (MOF) is where
//! the paper's amplification happens (§II-C): a healthy reducer that keeps
//! retrying a lost MOF spends its retry budget, fails with
//! `FetchFailureLimit` and is preempted. One [`FetchCore`] per reduce
//! attempt makes every such decision: retries and their budget, back-off,
//! gray-link drops and the shuffle stall cap (DESIGN.md, "One fetch
//! loop"). Each engine's reducer only asks sources, moves bytes and acts on
//! the [`Step`] it returns. It does no I/O and reads no clock: times are the
//! engine's (virtual ns in the simulator, ms since job start in the
//! runtime). A map not fetched yet is *ready* or *backing off*, both
//! *pending*, or *in flight* from its source's answer to the transfer's end.

use std::collections::BTreeMap;

use alm_types::{AttemptId, NodeId, YarnConfig};

/// Gray-link drops drawn per map, at most: past this a transfer is let
/// through, so a link with `loss = 1.0` cannot livelock a reducer.
pub const MAX_GRAY_DROPS: u32 = 16;

/// A seeded draw: uniform in `0..n`, the first of the stream keyed by
/// `(seed, label)`. Both engines pass `alm_des::rng::below`; the core
/// builds the labels and the rules around them, and links no RNG itself.
pub type Draw = fn(seed: u64, label: &str, n: u64) -> u64;

/// What a reducer observed about one map's partition. `loss` is the
/// probability that the link from `source` drops a transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The source answered with the partition's bytes, intact.
    Data { source: NodeId, loss: f64 },
    /// The map has not registered its output, or is being regenerated.
    NotReady,
    /// The bytes failed the frame check; `generation` names the copy read.
    Corrupt { source: NodeId, generation: u64, loss: f64 },
    /// The source did not answer: the engine reads it as dead, or as alive
    /// behind a cut link.
    Refused { source: NodeId, source_dead: bool },
}

/// What the reducer does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Move `map`'s partition, then [`FetchCore::observe`] how it ended.
    Fetch { map: u32, source: NodeId },
    /// `map`'s bytes arrived intact: keep them.
    Keep { map: u32 },
    /// A lossy link dropped `map`'s transfer: count it; `map` is ready again.
    Dropped { map: u32, source: NodeId },
    /// Nothing to do now: the map is not ready, or its link is cut.
    Wait,
    /// Report a fetch failure of `map`, and ask again at `until`.
    BackOff { map: u32, source: NodeId, until: u64 },
    /// Report copy `generation` of `map` corrupt; `map` is pending again.
    ReportCorruption { map: u32, source: NodeId, generation: u64 },
    /// Report a fetch failure of `map`, then fail the attempt with
    /// `FetchFailureLimit`: the map's retry budget is spent.
    FetchFailureLimit { map: u32, source: NodeId },
    /// Fail the attempt with `TaskTimeout`: parked past `shuffle_wait_cap_ms`.
    TaskTimeout,
}

/// One reduce attempt's fetch state and rules (see the module docs).
#[derive(Debug)]
pub struct FetchCore {
    attempt: AttemptId,
    seed: u64,
    draw: Draw,
    config: YarnConfig,
    /// The engine's clock ticks per millisecond.
    per_ms: u64,
    /// Not fetched and not in flight, backing-off maps included.
    pending: MapSet,
    in_flight: usize,
    /// Per backing-off map: charged refusals in a row, and when to ask
    /// again.
    backoffs: BTreeMap<u32, (u32, u64)>,
    /// Per map: gray-link drops drawn so far.
    drops: BTreeMap<u32, u32>,
    /// Since when the shuffle is parked behind cut links.
    parked_since: Option<u64>,
}

impl FetchCore {
    /// A core for `attempt` that still has to fetch `pending`. `per_ms` is
    /// the engine's clock ticks per millisecond; `draw` makes the back-off
    /// and gray-loss draws, keyed by `seed`.
    pub fn new(
        attempt: AttemptId,
        seed: u64,
        draw: Draw,
        cfg: &YarnConfig,
        per_ms: u64,
        pending: MapSet,
    ) -> Self {
        let config = cfg.clone();
        let (in_flight, backoffs, drops, parked_since) = (0, BTreeMap::new(), BTreeMap::new(), None);
        FetchCore { attempt, seed, draw, config, per_ms, pending, in_flight, backoffs, drops, parked_since }
    }

    /// Whether `map` is pending (backing off included).
    #[inline]
    pub fn is_pending(&self, map: u32) -> bool {
        self.pending.contains(map)
    }

    /// Whether every partition is fetched.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }

    /// The first pending map after `after` that is ready, or whose
    /// back-off ends by `due_by` (for a reducer that polls).
    #[inline]
    pub fn next(&self, after: Option<u32>, due_by: Option<u64>) -> Option<u32> {
        let mut from = after.map_or(0, |m| m + 1);
        loop {
            let m = self.pending.first_from(from)?;
            match self.backoffs.get(&m) {
                Some(&(_, until)) if due_by.is_none_or(|now| until > now) => from = m + 1,
                _ => return Some(m),
            }
        }
    }

    /// Ask about the ready maps after `at` in map order, `probe` telling
    /// what each one's source shows, up to the first that needs the
    /// reducer to act (`None`: none does); `at` moves to each map asked.
    pub fn pump(&mut self, now: u64, at: &mut Option<u32>, probe: impl Fn(u32) -> Outcome) -> Option<Step> {
        while let Some(m) = self.next(*at, None) {
            *at = Some(m);
            match probe(m) {
                // What `observe` does for a ready map: it waits as it is.
                Outcome::NotReady | Outcome::Refused { source_dead: false, .. } => {}
                outcome => return Some(self.observe(now, m, outcome)),
            }
        }
        None
    }

    /// The maps backing off, in ascending order.
    pub fn backing_off(&self) -> impl Iterator<Item = u32> + '_ {
        self.backoffs.keys().copied()
    }

    /// When the earliest back-off ends.
    pub fn next_retry(&self) -> Option<u64> {
        self.backoffs.values().map(|&(_, until)| until).min()
    }

    /// What the reducer saw of `map` at `now`: a ready map's source
    /// answering or not, a backing-off map's source when its back-off
    /// ended, or how an in-flight map's transfer ended.
    pub fn observe(&mut self, now: u64, map: u32, outcome: Outcome) -> Step {
        if !self.pending.contains(map) {
            return self.arrive(now, map, outcome);
        }
        match outcome {
            Outcome::Refused { source, source_dead: true } => self.charge(now, map, source),
            Outcome::NotReady | Outcome::Refused { source_dead: false, .. } => {
                self.backoffs.remove(&map);
                Step::Wait
            }
            Outcome::Data { source, .. } | Outcome::Corrupt { source, .. } => {
                // A source found alive when a back-off ends only ends it:
                // the map is asked again in its turn.
                if self.backoffs.remove(&map).is_some() {
                    return Step::Wait;
                }
                self.pending.remove(map);
                self.in_flight += 1;
                Step::Fetch { map, source }
            }
        }
    }

    /// How `map`'s transfer ended.
    fn arrive(&mut self, now: u64, map: u32, outcome: Outcome) -> Step {
        debug_assert!(self.in_flight > 0, "{map} of {} is neither pending nor in flight", self.attempt);
        self.in_flight -= 1;
        let step = match outcome {
            Outcome::Data { source, loss } | Outcome::Corrupt { source, loss, .. }
                if self.gray_drop(map, loss) =>
            {
                Step::Dropped { map, source }
            }
            Outcome::Data { .. } => return Step::Keep { map },
            Outcome::Corrupt { source, generation, .. } => Step::ReportCorruption { map, source, generation },
            Outcome::Refused { source, source_dead: true } => self.charge(now, map, source),
            Outcome::NotReady | Outcome::Refused { source_dead: false, .. } => Step::Wait,
        };
        self.pending.insert(map);
        step
    }

    /// Charge `map`'s budget for a dead-source refusal.
    fn charge(&mut self, now: u64, map: u32, source: NodeId) -> Step {
        let round = self.backoffs.get(&map).map_or(0, |&(round, _)| round) + 1;
        if round > self.config.fetch_retries_per_source {
            self.backoffs.insert(map, (round, now));
            return Step::FetchFailureLimit { map, source };
        }
        let until = now + self.backoff_ms(map, round) * self.per_ms;
        self.backoffs.insert(map, (round, until));
        Step::BackOff { map, source, until }
    }

    /// The back-off after the `round`-th charge of `map`: doubling from
    /// `fetch_retry_delay_ms` per round, capped at half the liveness
    /// timeout, jittered into `[cap/2, cap]` from the seeded
    /// `sim-fetch-backoff/{attempt}/{map}/{round}` stream.
    pub fn backoff_ms(&self, map: u32, round: u32) -> u64 {
        let base = self.config.fetch_retry_delay_ms.max(1);
        let exp = base.saturating_mul(1u64 << round.saturating_sub(1).min(10));
        let cap = exp.min((self.config.node_liveness_timeout_ms / 2).max(base));
        let label = format!("sim-fetch-backoff/{}/{map}/{round}", self.attempt);
        cap / 2 + (self.draw)(self.seed, &label, cap.div_ceil(2) + 1)
    }

    /// Whether a link with `loss` drops this transfer of `map`: the `k`-th
    /// draw for a map reads the seeded `sim-degraded-loss/{attempt}/{map}/{k}`
    /// stream, and draws past [`MAX_GRAY_DROPS`] let the transfer through.
    fn gray_drop(&mut self, map: u32, loss: f64) -> bool {
        if loss <= 0.0 {
            return false;
        }
        let k = self.drops.entry(map).or_insert(0);
        *k += 1;
        let k = *k;
        k <= MAX_GRAY_DROPS && {
            let label = format!("sim-degraded-loss/{}/{map}/{k}", self.attempt);
            (self.draw)(self.seed, &label, 1_000_000) < (loss * 1e6) as u64
        }
    }

    /// The park timer, read at `now`. The shuffle is parked when nothing
    /// is in flight or backing off and `probe`, asked about each pending
    /// map in order, finds no source answering and at least one link cut.
    /// A park that has lasted past `shuffle_wait_cap_ms` fails the attempt.
    pub fn tick(&mut self, now: u64, mut probe: impl FnMut(u32) -> Outcome) -> Step {
        let parked = self.in_flight == 0
            && self.backoffs.is_empty()
            && self.pending.iter().try_fold(false, |cut, m| match probe(m) {
                Outcome::Data { .. } | Outcome::Corrupt { .. } => None,
                Outcome::Refused { source_dead: false, .. } => Some(true),
                Outcome::NotReady | Outcome::Refused { source_dead: true, .. } => Some(cut),
            }) == Some(true);
        self.parked_since = parked.then(|| self.parked_since.unwrap_or(now));
        let cap = self.config.shuffle_wait_cap_ms.saturating_mul(self.per_ms);
        match self.parked_since {
            Some(since) if now - since > cap => Step::TaskTimeout,
            _ => Step::Wait,
        }
    }
}

/// A set of map indices: one bit per map, with a kept count. It iterates
/// in ascending index order, which fetch order depends on, and a clone (an
/// ALG snapshot) copies `num_maps / 64` words.
#[derive(Debug, Clone)]
pub struct MapSet {
    words: Vec<u64>,
    len: usize,
}

impl MapSet {
    /// The empty set over map indices `0..n`.
    pub fn empty(n: u32) -> MapSet {
        MapSet { words: vec![0; n.div_ceil(64) as usize], len: 0 }
    }

    /// Every map index in `0..n`.
    pub fn full(n: u32) -> MapSet {
        let mut words = vec![!0u64; n.div_ceil(64) as usize];
        words.last_mut().into_iter().for_each(|last| *last >>= (64 - n % 64) % 64);
        MapSet { words, len: n as usize }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn contains(&self, m: u32) -> bool {
        self.words.get(m as usize / 64).is_some_and(|&w| (w >> (m % 64)) & 1 == 1)
    }

    /// Add `m`; whether it was absent.
    #[inline]
    pub fn insert(&mut self, m: u32) -> bool {
        let (word, bit) = (&mut self.words[m as usize / 64], 1u64 << (m % 64));
        let absent = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(absent);
        absent
    }

    /// Drop `m`; whether it was present.
    pub fn remove(&mut self, m: u32) -> bool {
        let (word, bit) = (&mut self.words[m as usize / 64], 1u64 << (m % 64));
        let present = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// The smallest member at or above `from`.
    pub fn first_from(&self, from: u32) -> Option<u32> {
        let mut i = from as usize / 64;
        let mut word = self.words.get(i)? & (!0u64 << (from % 64));
        while word == 0 {
            i += 1;
            word = *self.words.get(i)?;
        }
        Some(i as u32 * 64 + word.trailing_zeros())
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.first_from(0), |&m| self.first_from(m + 1))
    }
}
