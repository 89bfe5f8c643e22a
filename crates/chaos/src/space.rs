//! Seeded randomized fault-space sweeps.
//!
//! A [`FaultSpace`] describes the *distribution* a campaign draws from:
//! which fault kinds (weighted), how many per scenario, which progress /
//! time / slowdown windows. [`FaultSpace::sample`] turns it into N concrete
//! [`ChaosScenario`]s, fully determined by the seed — the same
//! (space, seed, n) always yields the same campaign, so a campaign is
//! reproducible from three numbers and a spec.

use alm_types::CorruptTarget;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use alm_types::LinkDirection;

use crate::scenario::{ChaosFault, ChaosFlap, ChaosScenario};

/// Relative weights of each fault kind (0 disables a kind).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultWeights {
    pub kill_map: u32,
    pub kill_reduce: u32,
    pub crash_node: u32,
    pub crash_node_at_reduce_progress: u32,
    pub slow_node: u32,
    pub crash_rack: u32,
    pub partition_link: u32,
    pub corrupt_data: u32,
    /// Weight of the gray degraded-link fault. Defaults to 0 so existing
    /// recorded spaces (and the golden gate campaign) keep their exact
    /// draw sequence; enable via [`FaultSpace::gray_like`].
    pub degraded_link: u32,
}

impl Default for FaultWeights {
    fn default() -> FaultWeights {
        FaultWeights {
            kill_map: 2,
            kill_reduce: 3,
            crash_node: 2,
            crash_node_at_reduce_progress: 3,
            slow_node: 1,
            crash_rack: 1,
            partition_link: 2,
            corrupt_data: 2,
            degraded_link: 0,
        }
    }
}

impl FaultWeights {
    fn total(&self) -> u32 {
        self.kill_map
            + self.kill_reduce
            + self.crash_node
            + self.crash_node_at_reduce_progress
            + self.slow_node
            + self.crash_rack
            + self.partition_link
            + self.corrupt_data
            + self.degraded_link
    }
}

/// The sampling distribution of one randomized campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSpace {
    /// Worker-node count faults may target.
    pub workers: u32,
    pub racks: u32,
    pub num_maps: u32,
    pub num_reduces: u32,
    /// Faults per scenario are drawn uniformly from `1..=max_faults`.
    pub max_faults: u32,
    /// Progress window for progress-triggered faults.
    pub progress: (f64, f64),
    /// Scenario-seconds window for time-triggered faults.
    pub at_secs: (f64, f64),
    /// Slowdown-factor window for slow nodes.
    pub slow_factor: (f64, f64),
    /// How long a sampled partition stays severed before healing, in
    /// scenario seconds. Keep the upper bound under the engines' liveness
    /// window so sampled partitions are genuinely transient.
    pub partition_secs: (f64, f64),
    /// Probability a sampled partition is *asymmetric* (one direction cut,
    /// the reverse healthy). 0.0 keeps legacy symmetric-only sampling —
    /// and, crucially, the legacy RNG draw sequence.
    pub asymmetric_prob: f64,
    /// Probability a sampled partition carries a seeded flap schedule
    /// (bounded sever→heal cycles) instead of a single window. 0.0 keeps
    /// the legacy draw sequence.
    pub flap_prob: f64,
    /// Slowdown-factor window for sampled degraded links.
    pub degraded_factor: (f64, f64),
    /// Loss-probability window for sampled degraded links.
    pub degraded_loss: (f64, f64),
    pub weights: FaultWeights,
}

impl FaultSpace {
    /// A space shaped like the paper's §V experiments: early-reduce-phase
    /// failures on a cluster of `workers` workers.
    pub fn paper_like(workers: u32, racks: u32, num_maps: u32, num_reduces: u32) -> FaultSpace {
        FaultSpace {
            workers,
            racks,
            num_maps,
            num_reduces,
            max_faults: 2,
            progress: (0.05, 0.6),
            at_secs: (5.0, 60.0),
            slow_factor: (1.5, 6.0),
            partition_secs: (10.0, 40.0),
            asymmetric_prob: 0.0,
            flap_prob: 0.0,
            degraded_factor: (2.0, 6.0),
            degraded_loss: (0.05, 0.3),
            weights: FaultWeights::default(),
        }
    }

    /// The gray-failure sweep space: the paper-like shape plus asymmetric
    /// partitions, flap schedules, and weighted degraded links — the
    /// acceptance sweep for the directed-link invariants.
    pub fn gray_like(workers: u32, racks: u32, num_maps: u32, num_reduces: u32) -> FaultSpace {
        let mut space = FaultSpace::paper_like(workers, racks, num_maps, num_reduces);
        space.asymmetric_prob = 0.5;
        space.flap_prob = 0.4;
        space.weights.degraded_link = 2;
        space
    }

    /// Sample a link direction: symmetric unless the space enables
    /// asymmetric partitions (probability draws only happen when enabled,
    /// preserving legacy draw sequences).
    fn sample_direction(&self, rng: &mut SmallRng) -> LinkDirection {
        if self.asymmetric_prob > 0.0 && rng.random_bool(self.asymmetric_prob.min(1.0)) {
            if rng.random_range(0..2u32) == 0 {
                LinkDirection::AToB
            } else {
                LinkDirection::BToA
            }
        } else {
            LinkDirection::Both
        }
    }

    fn sample_fault(&self, rng: &mut SmallRng) -> ChaosFault {
        let w = &self.weights;
        let total = w.total().max(1);
        let mut pick = rng.random_range(0..total);
        let progress = rng.random_range(self.progress.0..=self.progress.1);
        let at_secs = rng.random_range(self.at_secs.0..=self.at_secs.1);
        let node = rng.random_range(0..self.workers.max(1));
        for (weight, kind) in [
            (w.kill_map, 0u8),
            (w.kill_reduce, 1),
            (w.crash_node, 2),
            (w.crash_node_at_reduce_progress, 3),
            (w.slow_node, 4),
            (w.crash_rack, 5),
            (w.partition_link, 6),
            (w.corrupt_data, 7),
            (w.degraded_link, 8),
        ] {
            if pick < weight {
                return match kind {
                    0 => ChaosFault::KillMap {
                        index: rng.random_range(0..self.num_maps.max(1)),
                        at_progress: progress,
                    },
                    1 => ChaosFault::KillReduce {
                        index: rng.random_range(0..self.num_reduces.max(1)),
                        at_progress: progress,
                    },
                    2 => ChaosFault::CrashNode { node, at_secs },
                    3 => ChaosFault::CrashNodeAtReduceProgress {
                        node,
                        reduce_index: rng.random_range(0..self.num_reduces.max(1)),
                        at_progress: progress,
                    },
                    4 => ChaosFault::SlowNode {
                        node,
                        at_secs,
                        factor: rng.random_range(self.slow_factor.0..=self.slow_factor.1),
                    },
                    5 => ChaosFault::CrashRack { rack: rng.random_range(0..self.racks.max(1)), at_secs },
                    6 => {
                        let b = rng.random_range(0..self.workers.max(1));
                        let heal_secs =
                            at_secs + rng.random_range(self.partition_secs.0..=self.partition_secs.1);
                        let direction = self.sample_direction(rng);
                        let flap = if self.flap_prob > 0.0 && rng.random_bool(self.flap_prob.min(1.0)) {
                            let period_secs = rng.random_range(self.partition_secs.0..=self.partition_secs.1);
                            Some(ChaosFlap {
                                seed: rng.random(),
                                cycles: rng.random_range(2..=4),
                                period_secs,
                                down_secs: period_secs * rng.random_range(0.3..=0.7),
                            })
                        } else {
                            None
                        };
                        ChaosFault::PartitionLink {
                            a: node,
                            b,
                            direction,
                            from_secs: at_secs,
                            heal_secs,
                            flap,
                        }
                    }
                    8 => ChaosFault::DegradedLink {
                        a: node,
                        b: rng.random_range(0..self.workers.max(1)),
                        direction: self.sample_direction(rng),
                        from_secs: at_secs,
                        heal_secs: at_secs + rng.random_range(self.partition_secs.0..=self.partition_secs.1),
                        factor: rng.random_range(self.degraded_factor.0..=self.degraded_factor.1),
                        loss: rng.random_range(self.degraded_loss.0..=self.degraded_loss.1),
                    },
                    _ => ChaosFault::CorruptData {
                        node,
                        target: if rng.random_range(0..2u32) == 0 {
                            CorruptTarget::MofPartition {
                                map_index: rng.random_range(0..self.num_maps.max(1)),
                                partition: rng.random_range(0..self.num_reduces.max(1)),
                            }
                        } else {
                            CorruptTarget::AlgRecord {
                                reduce_index: rng.random_range(0..self.num_reduces.max(1)),
                                seq: rng.random_range(0..8),
                            }
                        },
                        at_secs,
                    },
                };
            }
            pick -= weight;
        }
        // Unreachable with a positive total; keep a deterministic fallback.
        ChaosFault::KillReduce { index: 0, at_progress: progress }
    }

    /// Draw `n` scenarios, fully determined by `seed`. Names embed the
    /// seed and index so a single scenario can be re-derived later.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<ChaosScenario> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let faults = rng.random_range(1..=self.max_faults.max(1));
                let mut s = ChaosScenario::new(format!("s{seed}-{i:03}"));
                for _ in 0..faults {
                    s.faults.push(self.sample_fault(&mut rng));
                }
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> FaultSpace {
        FaultSpace::paper_like(20, 2, 80, 20)
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let a = space().sample(8, 42);
        let b = space().sample(8, 42);
        let c = space().sample(8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must explore different scenarios");
    }

    #[test]
    fn samples_respect_the_space_bounds() {
        for s in space().sample(32, 7) {
            assert!(!s.faults.is_empty() && s.faults.len() <= 2);
            for f in &s.faults {
                match f {
                    ChaosFault::KillMap { index, at_progress } => {
                        assert!(*index < 80 && (0.05..=0.6).contains(at_progress));
                    }
                    ChaosFault::KillReduce { index, at_progress } => {
                        assert!(*index < 20 && (0.05..=0.6).contains(at_progress));
                    }
                    ChaosFault::CrashNode { node, at_secs } => {
                        assert!(*node < 20 && (5.0..=60.0).contains(at_secs));
                    }
                    ChaosFault::CrashNodeAtReduceProgress { node, reduce_index, at_progress } => {
                        assert!(*node < 20 && *reduce_index < 20 && (0.05..=0.6).contains(at_progress));
                    }
                    ChaosFault::SlowNode { node, factor, .. } => {
                        assert!(*node < 20 && (1.5..=6.0).contains(factor));
                    }
                    ChaosFault::CrashRack { rack, .. } => assert!(*rack < 2),
                    ChaosFault::PartitionLink { a, b, direction, from_secs, heal_secs, flap } => {
                        assert!(*a < 20 && *b < 20);
                        assert!((5.0..=60.0).contains(from_secs));
                        let dur = heal_secs - from_secs;
                        assert!((10.0..=40.0).contains(&dur), "partition must be transient: {dur}");
                        assert_eq!(*direction, LinkDirection::Both, "paper_like samples symmetric only");
                        assert!(flap.is_none(), "paper_like samples no flap schedules");
                    }
                    ChaosFault::DegradedLink { .. } => {
                        panic!("paper_like weights the gray degraded-link fault at 0")
                    }
                    ChaosFault::CorruptData { node, target, at_secs } => {
                        assert!(*node < 20 && (5.0..=60.0).contains(at_secs));
                        match target {
                            alm_types::CorruptTarget::MofPartition { map_index, partition } => {
                                assert!(*map_index < 80 && *partition < 20);
                            }
                            alm_types::CorruptTarget::AlgRecord { reduce_index, .. } => {
                                assert!(*reduce_index < 20);
                            }
                            alm_types::CorruptTarget::DfsBlock { reduce_index, .. } => {
                                assert!(*reduce_index < 20);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn golden_gate_sample_exercises_transient_faults() {
        // The fixed-seed campaign behind the campaign_gate CI gate must
        // cover the transient vocabulary: same space shape and (seed, n)
        // as `SimCampaign::golden_gate(42, 20)`.
        let faults: Vec<ChaosFault> =
            FaultSpace::paper_like(20, 2, 80, 20).sample(20, 42).into_iter().flat_map(|s| s.faults).collect();
        assert!(
            faults.iter().any(|f| matches!(f, ChaosFault::PartitionLink { .. })),
            "seed-42 gate campaign samples no network partition"
        );
        assert!(
            faults.iter().any(|f| matches!(f, ChaosFault::CorruptData { .. })),
            "seed-42 gate campaign samples no data corruption"
        );
    }

    #[test]
    fn zero_weights_disable_kinds() {
        let mut sp = space();
        sp.weights = FaultWeights {
            kill_map: 0,
            kill_reduce: 1,
            crash_node: 0,
            crash_node_at_reduce_progress: 0,
            slow_node: 0,
            crash_rack: 0,
            partition_link: 0,
            corrupt_data: 0,
            degraded_link: 0,
        };
        for s in sp.sample(16, 3) {
            assert!(s.faults.iter().all(|f| matches!(f, ChaosFault::KillReduce { .. })));
        }
    }

    #[test]
    fn gray_space_samples_the_gray_vocabulary_within_bounds() {
        let sweep = FaultSpace::gray_like(20, 2, 80, 20).sample(64, 11);
        let faults: Vec<&ChaosFault> = sweep.iter().flat_map(|s| &s.faults).collect();
        let mut saw_asym = false;
        let mut saw_flap = false;
        let mut saw_degraded = false;
        for f in &faults {
            match f {
                ChaosFault::PartitionLink { direction, flap, .. } => {
                    saw_asym |= *direction != LinkDirection::Both;
                    if let Some(flap) = flap {
                        saw_flap = true;
                        assert!((2..=4).contains(&flap.cycles));
                        assert!(flap.down_secs > 0.0 && flap.down_secs < flap.period_secs);
                    }
                }
                ChaosFault::DegradedLink { a, b, factor, loss, .. } => {
                    saw_degraded = true;
                    assert!(*a < 20 && *b < 20);
                    assert!((2.0..=6.0).contains(factor));
                    assert!((0.05..=0.3).contains(loss));
                }
                _ => {}
            }
        }
        assert!(saw_asym, "gray space must sample asymmetric partitions");
        assert!(saw_flap, "gray space must sample flap schedules");
        assert!(saw_degraded, "gray space must sample degraded links");
    }

    #[test]
    fn gray_knobs_default_off_preserves_legacy_sampling() {
        // The golden gate campaign pins (paper_like, seed 42, n 20); the
        // gray extensions must not perturb that draw sequence.
        let legacy = space().sample(20, 42);
        for s in &legacy {
            for f in &s.faults {
                if let ChaosFault::PartitionLink { direction, flap, .. } = f {
                    assert_eq!(*direction, LinkDirection::Both);
                    assert!(flap.is_none());
                }
                assert!(!matches!(f, ChaosFault::DegradedLink { .. }));
            }
        }
    }
}
