//! K-means: the second iterative workload shape (Lloyd's algorithm).
//!
//! One iteration is one job: the map assigns every point to its nearest
//! centroid, the reduce averages the assigned points into the next centroid
//! positions. Points are static and derived from a seeded mixer; the only
//! state carried between iterations is the flattened centroid matrix, in
//! fixed-point micro-units.

use std::sync::Arc;

use crate::iterative::{be_u32, mix64, IterativeWorkload, RANK_ONE_MICRO};
use crate::model::WorkloadModel;
use crate::record::Record;
use crate::Workload;

/// Dimensionality of points and centroids.
pub const KMEANS_DIMS: usize = 4;
/// Coordinate range: `[0, KMEANS_COORD_RANGE_MICRO)` per dimension.
pub const KMEANS_COORD_RANGE_MICRO: u64 = 1_000 * RANK_ONE_MICRO;

/// K-means over `num_splits * points_per_split` static points, carrying the
/// current centroid matrix (`k * KMEANS_DIMS` micro-unit slots, row-major).
#[derive(Debug, Clone)]
pub struct KMeans {
    pub k: u32,
    pub points_per_split: u32,
    pub num_splits: u32,
    /// Point-coordinate derivation seed (fixed for the whole chain).
    pub point_seed: u64,
    /// Current centroids, row-major `[k][KMEANS_DIMS]`.
    pub centroids: Arc<Vec<u64>>,
}

impl KMeans {
    /// Iteration-0 instance: centroids spread deterministically from the
    /// point seed (distinct from any data point's derivation stream).
    pub fn initial(k: u32, points_per_split: u32, num_splits: u32, point_seed: u64) -> KMeans {
        let centroids = (0..k as usize * KMEANS_DIMS)
            .map(|i| mix64(point_seed ^ centroid_salt(i)) % KMEANS_COORD_RANGE_MICRO)
            .collect();
        KMeans { k, points_per_split, num_splits, point_seed, centroids: Arc::new(centroids) }
    }

    /// A small instance for tests and kind-level plumbing.
    pub fn small() -> KMeans {
        KMeans::initial(4, 150, 4, 11)
    }

    /// Coordinate `d` of point `p` — pure function of the chain-fixed seed.
    fn point_coord(&self, p: u32, d: usize) -> u64 {
        mix64(self.point_seed ^ ((p as u64) << 16) ^ d as u64) % KMEANS_COORD_RANGE_MICRO
    }

    fn nearest_centroid(&self, point: &[u64; KMEANS_DIMS]) -> u32 {
        let mut best = 0u32;
        let mut best_dist = u64::MAX;
        for c in 0..self.k {
            let mut dist = 0u64;
            for (d, coord) in point.iter().enumerate() {
                let diff = coord.abs_diff(self.centroids[c as usize * KMEANS_DIMS + d]);
                dist = dist.saturating_add(diff.saturating_mul(diff));
            }
            // Strict `<` keeps ties on the lowest centroid id — a total,
            // deterministic assignment regardless of iteration order.
            if dist < best_dist {
                best_dist = dist;
                best = c;
            }
        }
        best
    }
}

// Offsets centroid derivation away from point derivation so initial
// centroids never coincide with the data stream.
fn centroid_salt(i: usize) -> u64 {
    0xc3 ^ ((i as u64) << 40)
}

fn decode_u64s(bytes: &[u8], n: usize) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .take(n)
        .map(|c| u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

fn encode_u64s(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out
}

impl Workload for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn gen_split(&self, split_index: u32, _seed: u64) -> Vec<Record> {
        // Like pagerank, the per-job seed is deliberately unused: inputs are
        // a pure function of the chain-fixed point seed, so re-executed maps
        // regenerate identical records.
        let base = split_index * self.points_per_split;
        (0..self.points_per_split)
            .map(|i| {
                let p = base + i;
                let coords: Vec<u64> = (0..KMEANS_DIMS).map(|d| self.point_coord(p, d)).collect();
                Record::new(be_u32(p), encode_u64s(&coords))
            })
            .collect()
    }

    fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record)) {
        let coords = decode_u64s(&rec.value, KMEANS_DIMS);
        let mut point = [0u64; KMEANS_DIMS];
        point.copy_from_slice(&coords);
        let cid = self.nearest_centroid(&point);
        // Value = per-dimension sums plus a count of 1, so combine/reduce
        // are a single element-wise vector sum.
        let mut partial = coords;
        partial.push(1);
        emit(Record::new(be_u32(cid), encode_u64s(&partial)));
    }

    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record)) {
        let mut sums = [0u64; KMEANS_DIMS + 1];
        for v in values {
            for (d, val) in decode_u64s(v, KMEANS_DIMS + 1).into_iter().enumerate() {
                sums[d] = sums[d].saturating_add(val);
            }
        }
        let count = sums[KMEANS_DIMS].max(1);
        let centroid: Vec<u64> = sums[..KMEANS_DIMS].iter().map(|s| s / count).collect();
        emit(Record::new(key.to_vec(), encode_u64s(&centroid)));
    }

    /// Centroid `c` always reduces in partition `c % R` — partition-stable.
    fn partition(&self, key: &[u8], num_reduces: u32) -> u32 {
        if num_reduces <= 1 {
            return 0;
        }
        u32::from_be_bytes([key[0], key[1], key[2], key[3]]) % num_reduces
    }

    fn combine(&self, _key: &[u8], values: &[Vec<u8>]) -> Option<Vec<u8>> {
        let mut sums = [0u64; KMEANS_DIMS + 1];
        for v in values {
            for (d, val) in decode_u64s(v, KMEANS_DIMS + 1).into_iter().enumerate() {
                sums[d] = sums[d].saturating_add(val);
            }
        }
        Some(encode_u64s(&sums))
    }

    fn model(&self) -> WorkloadModel {
        WorkloadModel {
            name: "kmeans",
            // Each point record maps to exactly one assignment record of
            // near-identical size; combiners collapse per-centroid.
            map_output_ratio: 1.05,
            reduce_output_ratio: 0.01,
            record_size: 4 + (KMEANS_DIMS as u64 + 1) * 8 + 8,
            map_cpu_secs_per_gb: 14.0,
            reduce_cpu_secs_per_gb: 2.0,
            deser_secs_per_record: 1.2e-7,
            partition_imbalance: 1.05,
        }
    }
}

impl IterativeWorkload for KMeans {
    fn iter_name(&self) -> &'static str {
        "kmeans"
    }

    fn state_len(&self) -> usize {
        self.k as usize * KMEANS_DIMS
    }

    fn initial_state(&self) -> Vec<u64> {
        self.centroids.as_ref().clone()
    }

    fn instantiate(&self, state: &[u64]) -> Arc<dyn Workload> {
        Arc::new(KMeans { centroids: Arc::new(state.to_vec()), ..self.clone() })
    }

    fn fold(&self, prev: &[u64], outputs: &[Record]) -> Vec<u64> {
        let mut next = prev.to_vec();
        for r in outputs {
            if r.key.len() >= 4 {
                let c = u32::from_be_bytes([r.key[0], r.key[1], r.key[2], r.key[3]]) as usize;
                for (d, val) in decode_u64s(&r.value, KMEANS_DIMS).into_iter().enumerate() {
                    if let Some(slot) = next.get_mut(c * KMEANS_DIMS + d) {
                        *slot = val;
                    }
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
    use crate::iterative::state_delta_micro;

    #[test]
    fn generation_is_deterministic_and_seed_independent() {
        let w = KMeans::small();
        assert_eq!(w.gen_split(0, 1), w.gen_split(0, 2));
        assert_ne!(w.gen_split(0, 1), w.gen_split(1, 1));
    }

    #[test]
    fn assignment_is_deterministic() {
        let w = KMeans::small();
        let rec = &w.gen_split(0, 1)[3];
        let mut a = Vec::new();
        let mut b = Vec::new();
        w.map(rec, &mut |r| a.push(r));
        w.map(rec, &mut |r| b.push(r));
        assert_eq!(a, b);
        assert_eq!(a.len(), 1, "one assignment record per point");
    }

    #[test]
    fn iterations_converge() {
        let mut w = KMeans::small();
        let mut state = w.initial_state();
        let mut last_delta = u64::MAX;
        for _ in 0..6 {
            let mut by_key: std::collections::BTreeMap<Vec<u8>, Vec<Vec<u8>>> = Default::default();
            for s in 0..w.num_splits {
                for rec in w.gen_split(s, 0) {
                    w.map(&rec, &mut |r| by_key.entry(r.key).or_default().push(r.value));
                }
            }
            let mut outputs = Vec::new();
            for (k, vals) in &by_key {
                w.reduce(k, vals, &mut |r| outputs.push(r));
            }
            let next = w.fold(&state, &outputs);
            let delta = state_delta_micro(&state, &next);
            assert!(delta <= last_delta.max(KMEANS_COORD_RANGE_MICRO), "delta must not explode");
            last_delta = delta;
            state = next.clone();
            w = KMeans { centroids: Arc::new(next), ..w };
        }
        assert!(last_delta < KMEANS_COORD_RANGE_MICRO / 10, "centroids should settle, got {last_delta}");
    }

    #[test]
    fn combine_matches_reduce_presum() {
        let w = KMeans::small();
        let vals: Vec<Vec<u8>> = (0..3).map(|i| encode_u64s(&[i, i * 2, i * 3, i * 4, 1])).collect();
        let combined = w.combine(b"\0\0\0\0".as_slice(), &vals).unwrap();
        let mut direct = Vec::new();
        w.reduce(b"\0\0\0\0", &vals, &mut |r| direct.push(r));
        let mut via_combined = Vec::new();
        w.reduce(b"\0\0\0\0", &[combined], &mut |r| via_combined.push(r));
        assert_eq!(direct, via_combined);
    }
}
