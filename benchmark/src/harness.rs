//! The measurement loop shared by every workload.
//!
//! Load model: a **closed loop with one client thread**. The workload is a
//! fixed *cycle* of ops (a fixed job mix generated from the seed); the
//! client runs whole cycles back to back and stops at the first cycle
//! boundary at or past `--seconds`. Stopping only on cycle boundaries
//! keeps the op mix identical between a fast and a slow build, so a
//! speed-up changes the metrics and never the sample composition. The
//! engines' own task threads are the system under test, not the
//! generator.

use crate::clock;
use crate::stats;
use crate::trace::Recorder;

/// Set-ups per run; `setup_s` is their median. Each builds the workload
/// from the seed and runs exactly one warm-up op.
pub const SETUP_REPEATS: usize = 3;

/// Cycles run regardless of `--seconds`: the second cycle is what every
/// op's fingerprint is compared against the first on, and what gives a
/// traced run one cycle of each kind.
pub const MIN_CYCLES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Feeds `job_s_p50` / `job_s_mean`.
    Primary,
    /// An interleaved comparison op (same input, mechanism under test
    /// off); timed and checked, reported separately.
    Reference,
}

#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    pub role: Role,
    /// Host seconds of the op's timed part (output checking excluded).
    pub secs: f64,
    /// The engine reported success *and* the output check passed.
    pub ok: bool,
    /// Work the op did, in the workload's own unit (events processed,
    /// input bytes). Zero on a successful op means it measured nothing.
    pub work: u64,
    /// Digest of everything in the op's result that must repeat exactly
    /// whenever the same op runs again.
    pub fingerprint: u64,
}

pub trait Workload {
    /// Per-op data the workload wants back when it computes its layer
    /// metrics (engine counters, per-op CPU time).
    type Detail;

    /// Ops in one cycle.
    fn cycle_len(&self) -> usize;

    /// Run op `index` of the cycle. Spans go to `rec`.
    fn run_op(&mut self, index: usize, rec: &mut Recorder) -> (OpOutcome, Self::Detail);

    /// Simulated jobs one primary op stands for (`job_s_*` divide by it).
    fn jobs_per_op(&self) -> f64 {
        1.0
    }
}

pub struct OpRecord<D> {
    pub cycle: usize,
    pub traced: bool,
    pub outcome: OpOutcome,
    /// False when this run of the op did not reproduce the fingerprint of
    /// its first run.
    pub reproduced: bool,
    pub detail: D,
}

impl<D> OpRecord<D> {
    pub fn succeeded(&self) -> bool {
        self.outcome.ok && self.reproduced
    }
}

pub struct Measurement<W: Workload> {
    pub workload: W,
    pub recorder: Recorder,
    /// Median over the set-up repeats.
    pub setup_s: f64,
    pub warmups_ok: bool,
    /// Every op of the timed loop, in execution order. Warm-up ops are not
    /// in here, so nothing derived from it can count them.
    pub ops: Vec<OpRecord<W::Detail>>,
    /// `(traced, wall seconds)` per cycle.
    pub cycle_walls: Vec<(bool, f64)>,
    pub loop_wall_s: f64,
}

impl<W: Workload> Measurement<W> {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.succeeded()).count() as u64
    }

    /// Failed ops over attempted ops; a failed op stays in the
    /// denominator.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.warmups_ok && self.failed() == 0
    }

    /// Host seconds of the ops with `role`, untraced cycles only when
    /// `untraced_only` (end-to-end numbers never include a traced op).
    pub fn op_secs(&self, role: Role, untraced_only: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.outcome.role == role && !(untraced_only && o.traced))
            .map(|o| o.outcome.secs)
            .collect()
    }

    /// Mean wall of traced cycles over mean wall of untraced ones, minus
    /// one. `None` unless the run has both kinds.
    pub fn trace_overhead_share(&self) -> Option<f64> {
        let walls = |traced: bool| -> Vec<f64> {
            self.cycle_walls.iter().filter(|(t, _)| *t == traced).map(|(_, w)| *w).collect()
        };
        let (on, off) = (stats::mean(&walls(true))?, stats::mean(&walls(false))?);
        Some((on - off) / off)
    }
}

/// Set up (repeatedly), warm up, then run the timed closed loop.
///
/// Fails — without a result — when the loop measured nothing: no ops, or
/// an op that reports zero work.
pub fn measure<W: Workload>(
    make: impl Fn() -> W,
    seconds: u64,
    trace: bool,
) -> Result<Measurement<W>, String> {
    let mut recorder = Recorder::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut warmups_ok = true;
    let mut built = None;
    // What each op index produced the first time it ran.
    let mut first_seen: Vec<Option<u64>> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = clock::now();
        let mut w = make();
        if w.cycle_len() == 0 {
            return Err("workload has an empty cycle: nothing to measure".into());
        }
        // Exactly one warm-up op: pages in code, sizes the allocator and
        // lets lazy initialisation finish before anything is timed.
        let (warm, _) = w.run_op(0, &mut recorder);
        setups.push(clock::secs_since(t0));
        warmups_ok &= warm.ok;
        first_seen = vec![None; w.cycle_len()];
        first_seen[0] = Some(warm.fingerprint);
        built = Some(w);
    }
    let mut workload = built.expect("SETUP_REPEATS is at least one");
    let setup_s = stats::median(&setups).expect("SETUP_REPEATS is at least one");

    let mut ops = Vec::new();
    let mut cycle_walls = Vec::new();
    let loop_start = clock::now();
    let mut cycle = 0;
    loop {
        // Traced and untraced cycles alternate, so their difference is the
        // tracing overhead measured under the same machine state.
        let traced = trace && cycle % 2 == 1;
        recorder.set_enabled(traced);
        let cycle_start = clock::now();
        for (index, first) in first_seen.iter_mut().enumerate() {
            recorder.set_op(ops.len() as u64);
            let open = recorder.enter("op");
            let (outcome, detail) = workload.run_op(index, &mut recorder);
            recorder.exit(open);
            // A failed op is counted as failed; a *successful* op that did
            // nothing means the harness is measuring air.
            if outcome.ok && outcome.work == 0 {
                return Err(format!("op {index} of cycle {cycle} reported zero work: nothing was measured"));
            }
            let reproduced = *first.get_or_insert(outcome.fingerprint) == outcome.fingerprint;
            ops.push(OpRecord { cycle, traced, outcome, reproduced, detail });
        }
        cycle_walls.push((traced, clock::secs_since(cycle_start)));
        cycle += 1;
        if cycle >= MIN_CYCLES && clock::secs_since(loop_start) >= seconds as f64 {
            break;
        }
    }
    recorder.set_enabled(false);
    let loop_wall_s = clock::secs_since(loop_start);
    Ok(Measurement { workload, recorder, setup_s, warmups_ok, ops, cycle_walls, loop_wall_s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A scripted workload: op `i` of every cycle behaves as `script[i]`.
    struct Fake {
        script: Vec<(Role, bool, u64)>,
        /// Fingerprint drift: op 1 changes its fingerprint on every run.
        drifting: bool,
        runs: Rc<Cell<u64>>,
    }

    impl Workload for Fake {
        type Detail = u64;

        fn cycle_len(&self) -> usize {
            self.script.len()
        }

        fn run_op(&mut self, index: usize, rec: &mut Recorder) -> (OpOutcome, u64) {
            let run = self.runs.get();
            self.runs.set(run + 1);
            rec.span("fake.layer", || ());
            let (role, ok, work) = self.script[index];
            let fingerprint = if self.drifting && index == 1 { run } else { index as u64 };
            (OpOutcome { role, secs: 0.001 * (index + 1) as f64, ok, work, fingerprint }, run)
        }
    }

    fn fake(script: Vec<(Role, bool, u64)>, drifting: bool) -> (impl Fn() -> Fake, Rc<Cell<u64>>) {
        let runs = Rc::new(Cell::new(0));
        let counter = runs.clone();
        (move || Fake { script: script.clone(), drifting, runs: counter.clone() }, runs)
    }

    const OK: (Role, bool, u64) = (Role::Primary, true, 5);

    #[test]
    fn warmup_is_one_op_per_setup_and_never_counted() {
        let (make, runs) = fake(vec![OK, OK, OK], false);
        let m = measure(make, 0, false).unwrap();
        // Two cycles of three ops were measured...
        assert_eq!(m.attempted(), (MIN_CYCLES * 3) as u64);
        // ...and the only other ops ever run are one warm-up per set-up.
        assert_eq!(runs.get(), m.attempted() + SETUP_REPEATS as u64);
        // The first measured op is the first op after the warm-ups, so no
        // warm-up leaked into the records.
        assert_eq!(m.ops[0].detail, SETUP_REPEATS as u64);
        assert!(m.ops.iter().all(|o| !o.traced));
        assert!(m.correct());
        assert_eq!(m.failed_share(), 0.0);
    }

    #[test]
    fn zero_work_is_an_error_not_a_result() {
        let (make, _) = fake(vec![OK, (Role::Primary, true, 0)], false);
        assert!(measure(make, 0, false).is_err_and(|e| e.contains("zero work")));
        let (make, _) = fake(vec![], false);
        assert!(measure(make, 0, false).is_err_and(|e| e.contains("empty cycle")));
    }

    #[test]
    fn a_failed_op_stays_in_the_denominator() {
        let (make, _) = fake(vec![OK, (Role::Primary, false, 5), OK, OK], false);
        let m = measure(make, 0, false).unwrap();
        assert_eq!(m.attempted(), 8);
        assert_eq!(m.failed(), 2);
        assert_eq!(m.failed_share(), 0.25);
        assert!(!m.correct());
        // The failed op's time still counts towards the timings.
        assert_eq!(m.op_secs(Role::Primary, true).len(), 8);
    }

    #[test]
    fn an_op_that_does_not_reproduce_its_first_run_fails() {
        let (make, _) = fake(vec![OK, OK], true);
        let m = measure(make, 0, false).unwrap();
        // Cycle 0 defines op 1's fingerprint; cycle 1 differs from it.
        assert!(m.ops[1].succeeded());
        assert!(!m.ops[3].succeeded());
        assert_eq!(m.failed(), 1);
    }

    #[test]
    fn a_failed_warmup_makes_the_run_incorrect() {
        let (make, _) = fake(vec![(Role::Primary, false, 5)], false);
        assert!(!measure(make, 0, false).unwrap().warmups_ok);
    }

    #[test]
    fn traced_runs_alternate_cycles_and_keep_roles_apart() {
        let (make, _) = fake(vec![OK, (Role::Reference, true, 5)], false);
        let m = measure(make, 0, true).unwrap();
        assert_eq!(m.cycle_walls.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![false, true]);
        // Only the traced cycle recorded spans: per op, the root and the
        // workload's own.
        assert_eq!(m.recorder.spans().len(), 4);
        assert_eq!(m.op_secs(Role::Primary, false), vec![0.001, 0.001]);
        assert_eq!(m.op_secs(Role::Primary, true), vec![0.001]);
        assert_eq!(m.op_secs(Role::Reference, true), vec![0.002]);
        assert!(m.trace_overhead_share().is_some());
        let (make, _) = fake(vec![OK], false);
        assert!(measure(make, 0, false).unwrap().trace_overhead_share().is_none());
    }
}
