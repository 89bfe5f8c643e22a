//! Declarative fault-campaign scenarios.
//!
//! A [`ChaosScenario`] names a set of [`ChaosFault`]s in *engine-neutral,
//! job-neutral* terms: tasks by kind + index (no [`JobId`] yet), nodes by
//! worker index, racks by rack index, times in **scenario seconds**. One
//! lowering pass ([`ChaosScenario::lower`]) binds a job id, expands
//! correlated rack crashes into their member-node crashes, and rescales
//! scenario seconds to engine-native milliseconds — producing the shared
//! [`FaultPlan`] both engines consume directly (`alm_sim::Simulation::new`
//! and the threaded runtime's `JobRunner` each arm it through
//! [`FaultPlan::arm`]).

use alm_types::{CorruptTarget, Fault, FaultPlan, FlapSchedule, JobId, LinkDirection, NodeId, TaskId};
use serde::Serialize;

/// A flapping-link schedule in scenario seconds: `cycles` bounded
/// sever→heal windows starting `period_secs` apart, each staying down a
/// seeded, jittered fraction of `down_secs`. Lowered to the engine-neutral
/// [`FlapSchedule`] (milliseconds) by [`ChaosScenario::lower`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChaosFlap {
    pub seed: u64,
    pub cycles: u32,
    pub period_secs: f64,
    pub down_secs: f64,
}

/// One declarative fault. Times are in scenario seconds; the lowering
/// profile decides what a scenario second means to each engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ChaosFault {
    /// Injected OOM in attempt 0 of a map task at a fraction of its input.
    KillMap { index: u32, at_progress: f64 },
    /// Injected OOM in attempt 0 of a reduce task at a fraction of its
    /// overall progress (the Fig. 2/8 scenario).
    KillReduce { index: u32, at_progress: f64 },
    /// Crash one worker node at an absolute scenario time.
    CrashNode { node: u32, at_secs: f64 },
    /// Crash one worker node once a reduce task reaches a progress
    /// fraction (how §V places node failures; needs no time rescaling).
    CrashNodeAtReduceProgress { node: u32, reduce_index: u32, at_progress: f64 },
    /// Degrade a node's compute speed by `factor` (>= 1) from a scenario
    /// time on. The node keeps heartbeating: faulty-but-alive (§IV-B).
    SlowNode { node: u32, at_secs: f64, factor: f64 },
    /// Correlated failure: crash *every* worker in the rack at once.
    /// Expanded at lowering time through [`alm_types::rack_members`], the
    /// placement both engines and `Topology::even` share.
    CrashRack { rack: u32, at_secs: f64 },
    /// Sever the data-plane link between two *alive, heartbeating* workers
    /// from one scenario time until another, in the given direction(s). The
    /// transient half of §II-C: a partition that heals inside the liveness
    /// window must not be mistaken for node loss by either engine. An
    /// asymmetric direction leaves the reverse path (and heartbeats)
    /// healthy; a `flap` schedule replaces the single window with bounded
    /// sever→heal cycles (`heal_secs` is then advisory — the schedule's
    /// final heal wins).
    PartitionLink {
        a: u32,
        b: u32,
        direction: LinkDirection,
        from_secs: f64,
        heal_secs: f64,
        flap: Option<ChaosFlap>,
    },
    /// Gray-degrade the link between two alive workers: fetch transfers
    /// crossing a degraded direction are stretched by `factor` and dropped
    /// (then transparently re-fetched, never charged to the retry budget)
    /// with probability `loss`. The canonical gray failure: slow and lossy,
    /// but never dead.
    DegradedLink {
        a: u32,
        b: u32,
        direction: LinkDirection,
        from_secs: f64,
        heal_secs: f64,
        factor: f64,
        loss: f64,
    },
    /// Rot one durable artifact (a MOF partition chunk or an analytics-log
    /// record) on a node at a scenario time. Arrival checksums catch it;
    /// recovery must stay bounded and never burn retry budget.
    CorruptData { node: u32, target: CorruptTarget, at_secs: f64 },
}

/// How a scenario maps onto one engine's cluster and clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LoweringProfile {
    /// Worker count (simulator: `ClusterSpec::worker_nodes()`; threaded
    /// runtime: the `MiniCluster` node count — every node hosts tasks).
    pub workers: u32,
    pub racks: u32,
    /// Engine-native milliseconds one scenario second lowers to. The
    /// simulator runs at paper scale, so a scenario second *is* a virtual
    /// second (1000). The test-scaled threaded runtime finishes whole jobs
    /// in hundreds of wall milliseconds, so a scenario second shrinks to a
    /// few real milliseconds.
    pub ms_per_scenario_sec: f64,
}

impl LoweringProfile {
    /// Profile for the discrete-event simulator.
    pub fn simulator(cluster: &alm_types::ClusterSpec) -> LoweringProfile {
        LoweringProfile { workers: cluster.worker_nodes(), racks: cluster.racks, ms_per_scenario_sec: 1000.0 }
    }

    /// Profile for a test-scaled threaded runtime cluster of `nodes`
    /// nodes: one scenario second compresses to `ms_per_scenario_sec`
    /// real milliseconds.
    pub fn runtime(nodes: u32, racks: u32, ms_per_scenario_sec: f64) -> LoweringProfile {
        LoweringProfile { workers: nodes, racks, ms_per_scenario_sec }
    }

    /// Workers in a rack, under the shared [`alm_types::rack_of`] placement.
    pub fn rack_members(&self, rack: u32) -> Vec<u32> {
        alm_types::rack_members(self.workers, self.racks, rack).collect()
    }

    fn to_ms(self, secs: f64) -> u64 {
        (secs * self.ms_per_scenario_sec).round().max(0.0) as u64
    }
}

/// A named, self-contained fault campaign scenario (serde round-trippable,
/// so campaigns can be written as JSON and replayed).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosScenario {
    pub name: String,
    pub faults: Vec<ChaosFault>,
}

impl ChaosScenario {
    pub fn new(name: impl Into<String>) -> ChaosScenario {
        ChaosScenario { name: name.into(), faults: Vec::new() }
    }

    pub fn with(mut self, fault: ChaosFault) -> ChaosScenario {
        self.faults.push(fault);
        self
    }

    /// Faults expected to surface as recorded task failures under
    /// `profile` — the denominator for "additional failures" in
    /// amplification analysis. Counted on the *lowered* plan so that a
    /// correlated rack crash contributes one injected fault per member
    /// node it expands to (and overlapping crash targets, deduplicated at
    /// lowering, are not double-counted): a rack scenario and a node
    /// scenario with the same blast radius get the same denominator.
    pub fn injected_failure_faults(&self, profile: &LoweringProfile) -> usize {
        self.lower(JobId(0), profile).injected_count()
    }

    /// Lower onto the shared [`FaultPlan`]: bind `job`, expand rack
    /// crashes, rescale scenario seconds via `profile`. Node/rack indices
    /// are clamped into the profile's worker range so randomly sampled
    /// scenarios stay valid on any cluster size. Timed crash targets are
    /// deduplicated on `(node, at_ms)`: overlapping rack crashes (two rack
    /// indices congruent modulo the profile's rack count) or an explicit
    /// node crash coinciding with a rack member would otherwise inject the
    /// same crash twice and skew the amplification denominator.
    pub fn lower(&self, job: JobId, profile: &LoweringProfile) -> FaultPlan {
        let workers = profile.workers.max(1);
        let node = |n: u32| NodeId(n % workers);
        let mut seen_crashes = std::collections::BTreeSet::new();
        let mut plan = FaultPlan::none();
        let mut crash = |plan: &mut FaultPlan, node: NodeId, at_ms: u64| {
            if seen_crashes.insert((node, at_ms)) {
                plan.faults.push(Fault::CrashNodeAtMs { node, at_ms });
            }
        };
        for f in &self.faults {
            match f {
                ChaosFault::KillMap { index, at_progress } => plan.faults.push(Fault::KillTask {
                    task: TaskId::map(job, *index),
                    attempt_number: 0,
                    at_progress: *at_progress,
                }),
                ChaosFault::KillReduce { index, at_progress } => plan.faults.push(Fault::KillTask {
                    task: TaskId::reduce(job, *index),
                    attempt_number: 0,
                    at_progress: *at_progress,
                }),
                ChaosFault::CrashNode { node: n, at_secs } => {
                    crash(&mut plan, node(*n), profile.to_ms(*at_secs));
                }
                ChaosFault::CrashNodeAtReduceProgress { node: n, reduce_index, at_progress } => {
                    plan.faults.push(Fault::CrashNodeAtReduceProgress {
                        node: node(*n),
                        reduce_index: *reduce_index,
                        at_progress: *at_progress,
                    })
                }
                ChaosFault::SlowNode { node: n, at_secs, factor } => plan.faults.push(Fault::SlowNode {
                    node: node(*n),
                    at_ms: profile.to_ms(*at_secs),
                    factor: *factor,
                }),
                ChaosFault::CrashRack { rack, at_secs } => {
                    for w in profile.rack_members(*rack) {
                        crash(&mut plan, NodeId(w), profile.to_ms(*at_secs));
                    }
                }
                ChaosFault::PartitionLink { a, b, direction, from_secs, heal_secs, flap } => {
                    let from_ms = profile.to_ms(*from_secs);
                    let flap = flap.map(|f| FlapSchedule {
                        seed: f.seed,
                        cycles: f.cycles,
                        period_ms: profile.to_ms(f.period_secs).max(2),
                        down_ms: profile.to_ms(f.down_secs).max(1),
                    });
                    plan.faults.push(Fault::PartitionLink {
                        a: node(*a),
                        b: node(*b),
                        direction: *direction,
                        from_ms,
                        // A heal can never precede its sever, even if
                        // rounding to engine milliseconds collapses them;
                        // with a flap schedule the final cycle's heal wins.
                        heal_ms: match &flap {
                            Some(f) => f.end_ms(from_ms),
                            None => profile.to_ms(*heal_secs).max(from_ms),
                        },
                        flap,
                    });
                }
                ChaosFault::DegradedLink { a, b, direction, from_secs, heal_secs, factor, loss } => {
                    let from_ms = profile.to_ms(*from_secs);
                    plan.faults.push(Fault::DegradedLink {
                        a: node(*a),
                        b: node(*b),
                        direction: *direction,
                        from_ms,
                        heal_ms: profile.to_ms(*heal_secs).max(from_ms),
                        factor: factor.max(1.0),
                        loss: loss.clamp(0.0, 1.0),
                    });
                }
                ChaosFault::CorruptData { node: n, target, at_secs } => {
                    plan.faults.push(Fault::CorruptData {
                        node: node(*n),
                        target: *target,
                        at_ms: profile.to_ms(*at_secs),
                    });
                }
            }
        }
        plan
    }

    /// Validate the scenario's link faults under `profile`: for every
    /// directed link touched by at least one *flapping* partition, the
    /// lowered sever→heal windows must not overlap — an overlap would let
    /// one window's heal erase another's cut, silently shortening the
    /// outage both engines think they injected.
    pub fn validate(&self, profile: &LoweringProfile) -> Result<(), String> {
        let plan = self.lower(JobId(0), profile);
        let mut flapping: std::collections::BTreeSet<(NodeId, NodeId)> = std::collections::BTreeSet::new();
        for f in &plan.faults {
            if let Fault::PartitionLink { a, b, direction, flap: Some(_), .. } = f {
                flapping.extend(direction.directed_keys(*a, *b));
            }
        }
        let mut by_link: std::collections::BTreeMap<(NodeId, NodeId), Vec<(u64, u64)>> = Default::default();
        for w in plan.partition_windows() {
            for key in w.direction.directed_keys(w.a, w.b) {
                if flapping.contains(&key) {
                    by_link.entry(key).or_default().push((w.from_ms, w.heal_ms));
                }
            }
        }
        for ((from, to), mut windows) in by_link {
            windows.sort_unstable();
            for pair in windows.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return Err(format!(
                        "scenario '{}': flap windows on link {from} → {to} overlap \
                         ([{}, {}] ms vs [{}, {}] ms)",
                        self.name, pair[0].0, pair[0].1, pair[1].0, pair[1].1
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> LoweringProfile {
        LoweringProfile { workers: 6, racks: 2, ms_per_scenario_sec: 1000.0 }
    }

    #[test]
    fn rack_crash_expands_to_member_nodes() {
        let s = ChaosScenario::new("rack-loss").with(ChaosFault::CrashRack { rack: 1, at_secs: 30.0 });
        let plan = s.lower(JobId(7), &profile());
        let crashed: Vec<(u32, u64)> = plan
            .faults
            .iter()
            .map(|f| match f {
                Fault::CrashNodeAtMs { node, at_ms } => (node.0, *at_ms),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(crashed, vec![(1, 30_000), (3, 30_000), (5, 30_000)]);
    }

    #[test]
    fn scenario_seconds_rescale_per_engine() {
        let s = ChaosScenario::new("crash").with(ChaosFault::CrashNode { node: 2, at_secs: 30.0 });
        let sim = s.lower(JobId(0), &profile());
        let rt = s.lower(JobId(0), &LoweringProfile::runtime(6, 2, 5.0));
        assert_eq!(sim.faults, vec![Fault::CrashNodeAtMs { node: NodeId(2), at_ms: 30_000 }]);
        assert_eq!(rt.faults, vec![Fault::CrashNodeAtMs { node: NodeId(2), at_ms: 150 }]);
    }

    #[test]
    fn node_indices_clamp_into_worker_range() {
        let s = ChaosScenario::new("oob").with(ChaosFault::CrashNode { node: 13, at_secs: 1.0 });
        let plan = s.lower(JobId(0), &profile());
        assert_eq!(plan.faults, vec![Fault::CrashNodeAtMs { node: NodeId(1), at_ms: 1000 }]);
    }

    #[test]
    fn kills_bind_the_job_id_and_count_as_injected() {
        let s = ChaosScenario::new("kills")
            .with(ChaosFault::KillReduce { index: 3, at_progress: 0.8 })
            .with(ChaosFault::KillMap { index: 1, at_progress: 0.5 })
            .with(ChaosFault::SlowNode { node: 0, at_secs: 0.0, factor: 4.0 });
        assert_eq!(s.injected_failure_faults(&profile()), 2);
        let mut armed = s.lower(JobId(9), &profile()).arm();
        assert_eq!(armed.kills[&TaskId::reduce(JobId(9), 3).attempt(0)], 0.8);
        assert_eq!(armed.kills[&TaskId::map(JobId(9), 1).attempt(0)], 0.5);
        assert_eq!(armed.fire(0), vec![alm_types::Trigger::Slow { node: NodeId(0), factor: 4.0 }]);
    }

    #[test]
    fn overlapping_rack_crashes_dedupe_at_lowering() {
        // rack 2 clamps onto rack 0 on a 2-rack profile: both faults name
        // the same member set and must inject each crash exactly once.
        let s = ChaosScenario::new("overlap")
            .with(ChaosFault::CrashRack { rack: 0, at_secs: 10.0 })
            .with(ChaosFault::CrashRack { rack: 2, at_secs: 10.0 });
        let plan = s.lower(JobId(0), &profile());
        assert_eq!(
            plan.faults,
            vec![
                Fault::CrashNodeAtMs { node: NodeId(0), at_ms: 10_000 },
                Fault::CrashNodeAtMs { node: NodeId(2), at_ms: 10_000 },
                Fault::CrashNodeAtMs { node: NodeId(4), at_ms: 10_000 },
            ]
        );
        assert_eq!(s.injected_failure_faults(&profile()), 3);
    }

    #[test]
    fn node_crash_coinciding_with_rack_member_dedupes() {
        let s = ChaosScenario::new("coincide")
            .with(ChaosFault::CrashNode { node: 3, at_secs: 5.0 })
            .with(ChaosFault::CrashRack { rack: 1, at_secs: 5.0 });
        let plan = s.lower(JobId(0), &profile());
        let crashed: Vec<u32> = plan
            .faults
            .iter()
            .map(|f| match f {
                Fault::CrashNodeAtMs { node, at_ms: 5_000 } => node.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(crashed, vec![3, 1, 5], "node 3 injected once, not twice");
        // Same node at a *different* time is a distinct fault and kept.
        let s2 = ChaosScenario::new("two-times")
            .with(ChaosFault::CrashNode { node: 1, at_secs: 5.0 })
            .with(ChaosFault::CrashNode { node: 1, at_secs: 9.0 });
        assert_eq!(s2.lower(JobId(0), &profile()).faults.len(), 2);
    }

    #[test]
    fn injected_fault_count_is_profile_aware_for_rack_crashes() {
        // One rack fault on a 6-worker/2-rack profile expands to 3 node
        // crashes; the amplification denominator must count all 3, so rack
        // scenarios are not judged against a node-scenario denominator.
        let s = ChaosScenario::new("rack").with(ChaosFault::CrashRack { rack: 0, at_secs: 20.0 });
        assert_eq!(s.injected_failure_faults(&profile()), 3);
        let narrow = LoweringProfile { workers: 2, racks: 2, ms_per_scenario_sec: 1000.0 };
        assert_eq!(s.injected_failure_faults(&narrow), 1, "1 member per rack on 2 workers");
    }

    #[test]
    fn transient_faults_lower_with_clamping_and_rescaling() {
        let s = ChaosScenario::new("transient")
            .with(ChaosFault::PartitionLink {
                a: 1,
                b: 8,
                direction: LinkDirection::Both,
                from_secs: 4.0,
                heal_secs: 20.0,
                flap: None,
            })
            .with(ChaosFault::CorruptData {
                node: 9,
                target: CorruptTarget::MofPartition { map_index: 2, partition: 1 },
                at_secs: 6.0,
            });
        let plan = s.lower(JobId(0), &LoweringProfile::runtime(6, 2, 5.0));
        assert_eq!(
            plan.faults,
            vec![
                Fault::PartitionLink {
                    a: NodeId(1),
                    b: NodeId(2),
                    direction: LinkDirection::Both,
                    from_ms: 20,
                    heal_ms: 100,
                    flap: None,
                },
                Fault::CorruptData {
                    node: NodeId(3),
                    target: CorruptTarget::MofPartition { map_index: 2, partition: 1 },
                    at_ms: 30,
                },
            ],
            "node indices clamp modulo workers, scenario seconds rescale to wall ms"
        );
    }

    #[test]
    fn transient_faults_do_not_count_as_injected_failures() {
        let s = ChaosScenario::new("transient-only")
            .with(ChaosFault::PartitionLink {
                a: 0,
                b: 1,
                direction: LinkDirection::Both,
                from_secs: 1.0,
                heal_secs: 5.0,
                flap: None,
            })
            .with(ChaosFault::DegradedLink {
                a: 1,
                b: 2,
                direction: LinkDirection::BToA,
                from_secs: 0.0,
                heal_secs: 9.0,
                factor: 2.0,
                loss: 0.1,
            })
            .with(ChaosFault::CorruptData {
                node: 2,
                target: CorruptTarget::AlgRecord { reduce_index: 0, seq: 0 },
                at_secs: 3.0,
            });
        assert_eq!(s.injected_failure_faults(&profile()), 0);
    }

    #[test]
    fn heal_never_precedes_sever_after_rounding() {
        // 0.04 scenario-sec of partition at 5 ms/sec rounds both ends to
        // the same millisecond; the lowered heal must not land earlier.
        let s = ChaosScenario::new("tiny").with(ChaosFault::PartitionLink {
            a: 0,
            b: 1,
            direction: LinkDirection::Both,
            from_secs: 10.0,
            heal_secs: 10.04,
            flap: None,
        });
        let plan = s.lower(JobId(0), &LoweringProfile::runtime(6, 2, 5.0));
        match plan.faults[0] {
            Fault::PartitionLink { from_ms, heal_ms, .. } => assert!(heal_ms >= from_ms),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flapping_partition_lowers_cycles_and_direction() {
        let s = ChaosScenario::new("flap").with(ChaosFault::PartitionLink {
            a: 0,
            b: 2,
            direction: LinkDirection::AToB,
            from_secs: 5.0,
            heal_secs: 0.0, // advisory: the schedule's final heal wins
            flap: Some(ChaosFlap { seed: 3, cycles: 4, period_secs: 10.0, down_secs: 6.0 }),
        });
        let plan = s.lower(JobId(0), &profile());
        let windows = plan.partition_windows();
        assert_eq!(windows.len(), 4, "one window per cycle");
        assert!(windows.iter().all(|w| w.direction == LinkDirection::AToB));
        match &plan.faults[0] {
            Fault::PartitionLink { heal_ms, flap: Some(f), .. } => {
                assert_eq!(*heal_ms, f.end_ms(5_000), "advisory heal pinned to the final cycle's");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_overlapping_flap_windows() {
        // Two flapping faults on the same directed link whose cycles
        // interleave: one's heal would erase the other's cut.
        let flap = |seed| Some(ChaosFlap { seed, cycles: 3, period_secs: 10.0, down_secs: 8.0 });
        let bad = ChaosScenario::new("clash")
            .with(ChaosFault::PartitionLink {
                a: 0,
                b: 1,
                direction: LinkDirection::Both,
                from_secs: 0.0,
                heal_secs: 0.0,
                flap: flap(1),
            })
            .with(ChaosFault::PartitionLink {
                a: 0,
                b: 1,
                direction: LinkDirection::Both,
                from_secs: 2.0,
                heal_secs: 0.0,
                flap: flap(2),
            });
        let err = bad.validate(&profile()).unwrap_err();
        assert!(err.contains("overlap"), "{err}");

        // A single flapping fault can never overlap itself (heal strictly
        // precedes the next sever by construction)…
        let good = ChaosScenario::new("solo").with(ChaosFault::PartitionLink {
            a: 0,
            b: 1,
            direction: LinkDirection::Both,
            from_secs: 0.0,
            heal_secs: 0.0,
            flap: flap(1),
        });
        assert_eq!(good.validate(&profile()), Ok(()));

        // …and flapping faults on *different* directions of the same pair
        // never collide either.
        let split = ChaosScenario::new("split")
            .with(ChaosFault::PartitionLink {
                a: 0,
                b: 1,
                direction: LinkDirection::AToB,
                from_secs: 0.0,
                heal_secs: 0.0,
                flap: flap(1),
            })
            .with(ChaosFault::PartitionLink {
                a: 0,
                b: 1,
                direction: LinkDirection::BToA,
                from_secs: 2.0,
                heal_secs: 0.0,
                flap: flap(2),
            });
        assert_eq!(split.validate(&profile()), Ok(()));
    }
}
