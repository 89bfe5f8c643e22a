//! Pagerank: the canonical iterative workload (M3R's motivating shape).
//!
//! One iteration is one MapReduce job: the map scatters each vertex's
//! current rank across its out-edges, the reduce gathers contributions and
//! applies the damping update. The chain layer (`alm-mem`) re-instantiates
//! the workload each iteration with the folded rank vector, so a single
//! instance stays a deterministic function of `(split, seed)` — the
//! property map re-execution relies on.
//!
//! All arithmetic is fixed-point (micro-units, `u64`) so iteration state is
//! byte-stable across runs, engines and resident-cache capacities.

use std::sync::Arc;

use crate::iterative::{be_u32, be_u64, mix64, IterativeWorkload, RANK_ONE_MICRO};
use crate::model::WorkloadModel;
use crate::record::Record;
use crate::Workload;

/// Out-degree of every vertex (targets drawn by a seeded mixer).
pub const PAGERANK_OUT_DEGREE: u32 = 8;
/// Damping factor in percent (the classic 0.85).
pub const PAGERANK_DAMPING_PCT: u64 = 85;

/// Pagerank over a synthetic graph of `num_splits * vertices_per_split`
/// vertices, carrying the current iteration's rank vector.
#[derive(Debug, Clone)]
pub struct Pagerank {
    pub vertices_per_split: u32,
    pub num_splits: u32,
    /// Edge-target derivation seed (fixed for the whole chain so the graph
    /// never changes between iterations).
    pub graph_seed: u64,
    /// Current ranks in micro-units, one per vertex.
    pub ranks: Arc<Vec<u64>>,
}

impl Pagerank {
    /// Iteration-0 instance: uniform ranks of 1.0 per vertex.
    pub fn initial(vertices_per_split: u32, num_splits: u32, graph_seed: u64) -> Pagerank {
        let n = (vertices_per_split as usize) * (num_splits as usize);
        Pagerank { vertices_per_split, num_splits, graph_seed, ranks: Arc::new(vec![RANK_ONE_MICRO; n]) }
    }

    /// A small instance for tests and kind-level plumbing.
    pub fn small() -> Pagerank {
        Pagerank::initial(200, 4, 7)
    }

    fn num_vertices(&self) -> u32 {
        self.vertices_per_split * self.num_splits
    }

    /// The `j`-th out-edge target of vertex `u` — a pure mixer so maps can
    /// re-derive the (static) graph without carrying an edge list.
    fn edge_target(&self, u: u32, j: u32) -> u32 {
        let n = self.num_vertices().max(1);
        (mix64(self.graph_seed ^ ((u as u64) << 32) ^ j as u64) % n as u64) as u32
    }
}

impl Workload for Pagerank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn gen_split(&self, split_index: u32, _seed: u64) -> Vec<Record> {
        // Input = the vertex's current rank. The rank vector is chain state
        // (constructor-injected), so the per-job seed plays no role here —
        // re-executed maps of the same job instance regenerate identically.
        let base = split_index * self.vertices_per_split;
        (0..self.vertices_per_split)
            .map(|i| {
                let u = base + i;
                let rank = self.ranks.get(u as usize).copied().unwrap_or(RANK_ONE_MICRO);
                Record::new(be_u32(u), be_u64(rank))
            })
            .collect()
    }

    fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record)) {
        let u = u32::from_be_bytes([rec.key[0], rec.key[1], rec.key[2], rec.key[3]]);
        let mut rank = [0u8; 8];
        rank.copy_from_slice(&rec.value[..8]);
        let rank = u64::from_be_bytes(rank);
        let share = rank / PAGERANK_OUT_DEGREE as u64;
        for j in 0..PAGERANK_OUT_DEGREE {
            emit(Record::new(be_u32(self.edge_target(u, j)), be_u64(share)));
        }
        // A zero self-contribution guarantees every vertex reaches its
        // reducer even with no in-edges, so the output covers all vertices.
        emit(Record::new(be_u32(u), be_u64(0)));
    }

    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record)) {
        let mut sum: u64 = 0;
        for v in values {
            let mut b = [0u8; 8];
            b.copy_from_slice(&v[..8]);
            sum = sum.saturating_add(u64::from_be_bytes(b));
        }
        let new_rank =
            (RANK_ONE_MICRO * (100 - PAGERANK_DAMPING_PCT) + sum.saturating_mul(PAGERANK_DAMPING_PCT)) / 100;
        emit(Record::new(key.to_vec(), be_u64(new_rank)));
    }

    /// Partition-stable by construction: vertex `u` always reduces in
    /// partition `u % R`, which is what lets the chain keep per-partition
    /// state resident on a fixed home node.
    fn partition(&self, key: &[u8], num_reduces: u32) -> u32 {
        if num_reduces <= 1 {
            return 0;
        }
        u32::from_be_bytes([key[0], key[1], key[2], key[3]]) % num_reduces
    }

    fn combine(&self, _key: &[u8], values: &[Vec<u8>]) -> Option<Vec<u8>> {
        // Contribution sums are associative, so partial map-side sums fold
        // safely before the damping update (applied once, at reduce).
        let mut sum: u64 = 0;
        for v in values {
            let mut b = [0u8; 8];
            b.copy_from_slice(v.get(..8)?);
            sum = sum.saturating_add(u64::from_be_bytes(b));
        }
        Some(be_u64(sum).to_vec())
    }

    fn model(&self) -> WorkloadModel {
        WorkloadModel {
            name: "pagerank",
            // Each 20-byte input record scatters OUT_DEGREE + 1 same-sized
            // records; the combiner collapses roughly half the duplicates.
            map_output_ratio: (PAGERANK_OUT_DEGREE + 1) as f64 * 0.5,
            reduce_output_ratio: 1.0 / ((PAGERANK_OUT_DEGREE + 1) as f64 * 0.5),
            record_size: 4 + 8 + 8,
            map_cpu_secs_per_gb: 6.0,
            reduce_cpu_secs_per_gb: 3.0,
            deser_secs_per_record: 1.0e-7,
            partition_imbalance: 1.03,
        }
    }
}

impl IterativeWorkload for Pagerank {
    fn iter_name(&self) -> &'static str {
        "pagerank"
    }

    fn state_len(&self) -> usize {
        self.num_vertices() as usize
    }

    fn initial_state(&self) -> Vec<u64> {
        vec![RANK_ONE_MICRO; self.state_len()]
    }

    fn instantiate(&self, state: &[u64]) -> Arc<dyn Workload> {
        Arc::new(Pagerank { ranks: Arc::new(state.to_vec()), ..self.clone() })
    }

    fn fold(&self, prev: &[u64], outputs: &[Record]) -> Vec<u64> {
        let mut next = prev.to_vec();
        for r in outputs {
            if r.key.len() >= 4 && r.value.len() >= 8 {
                let u = u32::from_be_bytes([r.key[0], r.key[1], r.key[2], r.key[3]]) as usize;
                let mut b = [0u8; 8];
                b.copy_from_slice(&r.value[..8]);
                if let Some(slot) = next.get_mut(u) {
                    *slot = u64::from_be_bytes(b);
                }
            }
        }
        next
    }

    fn num_maps(&self) -> u32 {
        self.num_splits
    }

    fn iter_model(&self) -> WorkloadModel {
        self.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_independent() {
        let w = Pagerank::small();
        assert_eq!(w.gen_split(1, 42), w.gen_split(1, 43), "state, not the seed, drives input");
        assert_ne!(w.gen_split(1, 42), w.gen_split(2, 42));
    }

    #[test]
    fn graph_is_static_across_instances() {
        let a = Pagerank::small();
        let b = a.instantiate(&a.initial_state());
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.map(&a.gen_split(0, 1)[0], &mut |r| out_a.push(r));
        b.map(&a.gen_split(0, 1)[0], &mut |r| out_b.push(r));
        assert_eq!(out_a, out_b, "edge targets must not depend on the rank vector");
    }

    #[test]
    fn one_iteration_preserves_total_rank_mass_roughly() {
        let w = Pagerank::initial(50, 2, 3);
        let state = w.initial_state();
        // Run map+reduce by hand over all splits.
        let mut by_key: std::collections::BTreeMap<Vec<u8>, Vec<Vec<u8>>> = Default::default();
        for s in 0..w.num_splits {
            for rec in w.gen_split(s, 9) {
                w.map(&rec, &mut |r| by_key.entry(r.key).or_default().push(r.value));
            }
        }
        let mut outputs = Vec::new();
        for (k, vals) in &by_key {
            w.reduce(k, vals, &mut |r| outputs.push(r));
        }
        let next = w.fold(&state, &outputs);
        assert_eq!(next.len(), state.len());
        let total: u64 = next.iter().sum();
        let expect = RANK_ONE_MICRO * state.len() as u64;
        // Damping keeps total mass near N (integer division loses slivers).
        assert!(total > expect * 9 / 10 && total < expect * 11 / 10, "total {total} vs {expect}");
        assert_ne!(next, state, "the update must move ranks off uniform");
    }

    #[test]
    fn partitioning_is_stable_mod_r() {
        let w = Pagerank::small();
        for u in [0u32, 1, 99, 799] {
            assert_eq!(w.partition(&be_u32(u), 4), u % 4);
        }
        assert_eq!(w.partition(&be_u32(7), 1), 0);
    }

    #[test]
    fn combiner_sums_shares() {
        let w = Pagerank::small();
        let out = w.combine(&be_u32(0), &[be_u64(10).to_vec(), be_u64(32).to_vec()]).unwrap();
        assert_eq!(out, be_u64(42).to_vec());
    }
}
