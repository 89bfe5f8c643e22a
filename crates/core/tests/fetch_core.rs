//! Property-based tests of the reducer's fetch loop: for arbitrary
//! sequences of what a reducer can observe, `FetchCore` decides as a plain
//! model of its rules says, and its back-off draws are pinned.

use proptest::prelude::*;
use std::collections::BTreeSet;

use alm_core::fetch::{FetchCore, MapSet, Outcome, Step, MAX_GRAY_DROPS};
use alm_des::rng::below;
use alm_types::{AttemptId, JobId, NodeId, TaskId, YarnConfig};

const MAPS: u32 = 6;

fn attempt() -> AttemptId {
    TaskId::reduce(JobId(0), 3).attempt(1)
}

fn config(retries: u32, delay_ms: u64, liveness_ms: u64, wait_cap_ms: u64) -> YarnConfig {
    YarnConfig {
        fetch_retries_per_source: retries,
        fetch_retry_delay_ms: delay_ms,
        node_liveness_timeout_ms: liveness_ms,
        shuffle_wait_cap_ms: wait_cap_ms,
        ..YarnConfig::scaled_for_tests()
    }
}

/// The outcome a reducer observes, drawn from a small alphabet: `kind`
/// picks data, not ready, corrupt, a dead source or a cut link; `lossy`
/// puts data and corrupt bytes on a link that drops every transfer.
fn outcome(kind: u8, lossy: bool) -> Outcome {
    let (source, loss) = (NodeId(2), if lossy { 1.0 } else { 0.0 });
    match kind {
        0 => Outcome::Data { source, loss },
        1 => Outcome::NotReady,
        2 => Outcome::Corrupt { source, generation: 7, loss },
        3 => Outcome::Refused { source, source_dead: true },
        _ => Outcome::Refused { source, source_dead: false },
    }
}

/// Where the model keeps a map.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    Ready,
    /// Charged refusals in a row.
    BackingOff(u32),
    InFlight,
    Fetched,
}

proptest! {
    /// Every observation and every park-timer reading, against a model:
    /// only a dead source charges, the budget fails the attempt on exactly
    /// its `retries + 1`-th charge in a row, every back-off lies in
    /// `[cap/2, cap]`, a map drops at most `MAX_GRAY_DROPS` transfers, and
    /// `TaskTimeout` comes only after `shuffle_wait_cap_ms` of continuous
    /// park.
    #[test]
    fn fetch_core_follows_its_rules(
        (retries, delay_ms, liveness_ms, wait_cap_ms) in (1u32..4, 1u64..40, 2u64..400, 0u64..150),
        ops in proptest::collection::vec((0u8..8, 0u32..MAPS, 0u8..5, proptest::bool::ANY, 0u64..40), 0..300),
    ) {
        let cfg = config(retries, delay_ms, liveness_ms, wait_cap_ms);
        let mut core = FetchCore::new(attempt(), 42, below, &cfg, 1, MapSet::full(MAPS));
        let mut model = [Model::Ready; MAPS as usize];
        let mut drops = [0u32; MAPS as usize];
        let mut parked_since: Option<u64> = None;
        let mut now = 0u64;
        for (op, m, kind, lossy, dt) in ops {
            now += dt;
            if op == 0 {
                // The park timer, with one probe outcome for every map.
                let probe = |m: u32| outcome(((u32::from(kind) + m) % 5) as u8, lossy);
                let pending: Vec<u32> = (0..MAPS)
                    .filter(|&m| matches!(model[m as usize], Model::Ready | Model::BackingOff(_)))
                    .collect();
                let idle = !pending.is_empty()
                    && !model.iter().any(|s| matches!(s, Model::InFlight | Model::BackingOff(_)));
                let outcomes: Vec<Outcome> = pending.iter().map(|&m| probe(m)).collect();
                let answering = outcomes.iter().any(|o| matches!(o, Outcome::Data { .. } | Outcome::Corrupt { .. }));
                let cut = outcomes.iter().any(|o| matches!(o, Outcome::Refused { source_dead: false, .. }));
                let parked = idle && !answering && cut;
                let step = core.tick(now, probe);
                if parked {
                    let since = *parked_since.get_or_insert(now);
                    let want = if now - since > wait_cap_ms { Step::TaskTimeout } else { Step::Wait };
                    prop_assert_eq!(step, want);
                    if step == Step::TaskTimeout {
                        return Ok(());
                    }
                } else {
                    parked_since = None;
                    prop_assert_eq!(step, Step::Wait);
                }
                continue;
            }
            let state = model[m as usize];
            if state == Model::Fetched {
                prop_assert!(!core.is_pending(m));
                continue;
            }
            let seen = outcome(kind, lossy);
            let step = core.observe(now, m, seen);
            let charged = |n: u32| if n > retries { None } else { Some(n) };
            match (state, seen) {
                (Model::Ready | Model::InFlight, Outcome::Refused { source_dead: true, .. }) => {
                    charged_as(&mut model, m, step, charged(1), now, &cfg)?;
                }
                (Model::BackingOff(n), Outcome::Refused { source_dead: true, .. }) => {
                    charged_as(&mut model, m, step, charged(n + 1), now, &cfg)?;
                }
                (Model::Ready | Model::BackingOff(_), Outcome::NotReady | Outcome::Refused { .. }) => {
                    prop_assert_eq!(step, Step::Wait);
                    model[m as usize] = Model::Ready;
                }
                (Model::BackingOff(_), Outcome::Data { .. } | Outcome::Corrupt { .. }) => {
                    prop_assert_eq!(step, Step::Wait, "a live source only ends the back-off");
                    model[m as usize] = Model::Ready;
                }
                (Model::Ready, Outcome::Data { source, .. } | Outcome::Corrupt { source, .. }) => {
                    prop_assert_eq!(step, Step::Fetch { map: m, source });
                    model[m as usize] = Model::InFlight;
                }
                (Model::InFlight, Outcome::NotReady | Outcome::Refused { .. }) => {
                    prop_assert_eq!(step, Step::Wait);
                    model[m as usize] = Model::Ready;
                }
                (Model::InFlight, Outcome::Data { source, .. } | Outcome::Corrupt { source, .. }) => {
                    let drop = lossy && drops[m as usize] < MAX_GRAY_DROPS;
                    let want = match seen {
                        _ if drop => Step::Dropped { map: m, source },
                        Outcome::Data { .. } => Step::Keep { map: m },
                        _ => Step::ReportCorruption { map: m, source, generation: 7 },
                    };
                    prop_assert_eq!(step, want);
                    drops[m as usize] += u32::from(lossy);
                    model[m as usize] = if matches!(step, Step::Keep { .. }) { Model::Fetched } else { Model::Ready };
                }
                (Model::Fetched, _) => unreachable!("skipped above"),
            }
            if matches!(step, Step::FetchFailureLimit { .. }) {
                return Ok(());
            }
            let pending: BTreeSet<u32> =
                (0..MAPS).filter(|&m| matches!(model[m as usize], Model::Ready | Model::BackingOff(_))).collect();
            let ready: Vec<u32> =
                pending.iter().copied().filter(|&m| model[m as usize] == Model::Ready).collect();
            prop_assert_eq!(core.next(None, None), ready.first().copied());
            prop_assert_eq!((0..MAPS).filter(|&m| core.is_pending(m)).collect::<BTreeSet<_>>(), pending);
            let backing_off: Vec<u32> =
                (0..MAPS).filter(|&m| matches!(model[m as usize], Model::BackingOff(_))).collect();
            prop_assert_eq!(core.backing_off().collect::<Vec<_>>(), backing_off);
            prop_assert_eq!(core.is_done(), model.iter().all(|&s| s == Model::Fetched));
        }
    }

    /// `MapSet` answers as the `BTreeSet<u32>` it replaced after every
    /// step, and a clone taken midway (an ALG snapshot) keeps its members
    /// while the original moves on.
    #[test]
    fn map_set_matches_btree_set(
        n in 1u32..300,
        ops in proptest::collection::vec((0u8..3, 0u32..300), 0..400),
    ) {
        let mut set = MapSet::empty(n);
        let mut oracle = BTreeSet::new();
        let mut clones = Vec::new();
        for (op, m) in ops {
            let m = m % n;
            match op {
                0 => prop_assert_eq!(set.insert(m), oracle.insert(m)),
                1 => prop_assert_eq!(set.remove(m), oracle.remove(&m)),
                _ => clones.push((set.clone(), oracle.clone())),
            }
            prop_assert_eq!(set.contains(m), oracle.contains(&m));
            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.is_empty(), oracle.is_empty());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), oracle.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.first_from(m), oracle.range(m..).next().copied());
        }
        for (set, oracle) in clones {
            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), oracle.into_iter().collect::<Vec<_>>());
        }
        prop_assert!(!set.contains(n.next_multiple_of(64)), "an index past the last word is absent");
        prop_assert_eq!(set.first_from(n.next_multiple_of(64)), None);
        let full = MapSet::full(n);
        prop_assert_eq!(full.len(), n as usize);
        prop_assert_eq!(full.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
    }
}

/// Check a dead-source charge of `m` that the model counts as the `n`-th
/// in a row (`None`: past the budget), and move the model on.
fn charged_as(
    model: &mut [Model],
    m: u32,
    step: Step,
    n: Option<u32>,
    now: u64,
    cfg: &YarnConfig,
) -> Result<(), String> {
    let source = NodeId(2);
    let Some(n) = n else {
        prop_assert_eq!(step, Step::FetchFailureLimit { map: m, source });
        return Ok(());
    };
    let Step::BackOff { map, source: s, until } = step else {
        return Err(format!("charge {n} of {m}: {step:?}"));
    };
    prop_assert_eq!((map, s), (m, source));
    let base = cfg.fetch_retry_delay_ms.max(1);
    let cap = (base << (n - 1).min(10)).min((cfg.node_liveness_timeout_ms / 2).max(base));
    prop_assert!(
        (cap / 2..=cap).contains(&(until - now)),
        "back-off {} outside [{}, {cap}]",
        until - now,
        cap / 2
    );
    model[m as usize] = Model::BackingOff(n);
    Ok(())
}

/// The back-off draws are the simulator's: pinned for fixed
/// `(seed, attempt, map, round)` at the paper's and the test config.
#[test]
fn backoff_draws_are_pinned() {
    let paper = FetchCore::new(attempt(), 42, below, &YarnConfig::default(), 1_000_000, MapSet::full(MAPS));
    let tests = FetchCore::new(attempt(), 7, below, &YarnConfig::scaled_for_tests(), 1, MapSet::full(MAPS));
    let draws: Vec<(u64, u64)> = [(0, 1), (0, 2), (0, 3), (5, 1), (5, 4)]
        .iter()
        .map(|&(m, r)| (paper.backoff_ms(m, r), tests.backoff_ms(m, r)))
        .collect();
    assert_eq!(draws, vec![(3637, 12), (6346, 29), (12953, 73), (3914, 11), (22937, 117)]);
}

/// A link that drops every transfer drops each map's exactly
/// `MAX_GRAY_DROPS` times; the next transfer is kept, and no drop charges
/// the budget.
#[test]
fn gray_drops_stop_at_the_cap() {
    let mut core = FetchCore::new(attempt(), 42, below, &config(1, 20, 250, 100), 1, MapSet::full(1));
    let data = Outcome::Data { source: NodeId(2), loss: 1.0 };
    let mut steps = Vec::new();
    loop {
        assert_eq!(core.observe(0, 0, data), Step::Fetch { map: 0, source: NodeId(2) });
        let step = core.observe(0, 0, data);
        steps.push(step);
        if step != (Step::Dropped { map: 0, source: NodeId(2) }) {
            break;
        }
    }
    assert_eq!(steps.len() as u32, MAX_GRAY_DROPS + 1);
    assert_eq!(steps.last(), Some(&Step::Keep { map: 0 }));
    assert!(core.is_done());
}

/// The park timer fails the attempt only once a park has lasted longer
/// than `shuffle_wait_cap_ms`, and an answering source restarts it.
#[test]
fn task_timeout_comes_only_past_the_cap() {
    let mut core = FetchCore::new(attempt(), 42, below, &config(1, 20, 250, 100), 1_000_000, MapSet::full(2));
    let cut = |_| Outcome::Refused { source: NodeId(2), source_dead: false };
    let ms = 1_000_000;
    assert_eq!(core.tick(5 * ms, cut), Step::Wait);
    assert_eq!(core.tick(105 * ms, cut), Step::Wait, "exactly the cap is not past it");
    assert_eq!(core.tick(105 * ms + 1, cut), Step::TaskTimeout);
    // One map not ready and one cut is still a park; an answer ends it.
    let mixed = |m| if m == 0 { Outcome::NotReady } else { cut(m) };
    let mut core = FetchCore::new(attempt(), 42, below, &config(1, 20, 250, 100), 1, MapSet::full(2));
    assert_eq!(core.tick(0, mixed), Step::Wait);
    assert_eq!(core.tick(100, |_| Outcome::Data { source: NodeId(2), loss: 0.0 }), Step::Wait);
    assert_eq!(core.tick(150, mixed), Step::Wait, "the answer restarted the park");
    assert_eq!(core.tick(251, mixed), Step::TaskTimeout);
    // Maps that are only not ready never park.
    let mut core = FetchCore::new(attempt(), 42, below, &config(1, 20, 250, 100), 1, MapSet::full(2));
    assert_eq!(core.tick(0, |_| Outcome::NotReady), Step::Wait);
    assert_eq!(core.tick(1_000, |_| Outcome::NotReady), Step::Wait);
}
