//! Analytic workload models for the simulator.
//!
//! The discrete-event simulator never materialises records for paper-scale
//! inputs; it needs only the *sizes* that flow through each pipeline stage
//! and the CPU time each stage burns. [`WorkloadModel`] captures those, and
//! the derivation helpers compute per-map / per-partition byte counts the
//! same way the real engine's partitioner would.

use serde::Serialize;

/// Size ratios and cost coefficients of one workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadModel {
    pub name: &'static str,
    /// Map output bytes per input byte, *after* combining. Terasort ≈ 1.0
    /// (identity), Wordcount ≪ 1 (combiner collapses repeated words),
    /// Secondarysort ≈ 1.0.
    pub map_output_ratio: f64,
    /// Reduce output bytes per shuffled byte. Terasort 1.0 (identity),
    /// Wordcount ≈ 1.0 of its (already tiny) shuffled data,
    /// Secondarysort ≈ 1.0.
    pub reduce_output_ratio: f64,
    /// Mean intermediate record wire size, bytes.
    pub record_size: u64,
    /// Map-function CPU seconds per GB of input (excludes I/O, which the
    /// simulator charges separately against disk/NIC resources).
    pub map_cpu_secs_per_gb: f64,
    /// Reduce-function CPU seconds per GB of shuffled data. Secondarysort
    /// is the most compute-heavy (per-group sorting of secondaries).
    pub reduce_cpu_secs_per_gb: f64,
    /// Per-record deserialization CPU cost, seconds — the cost ALG's log
    /// resume avoids re-paying (§V-E, Fig. 15 discussion).
    pub deser_secs_per_record: f64,
    /// Relative spread of partition sizes (max/mean). 1.0 = perfectly even
    /// (Terasort with a sampled total-order partitioner); Wordcount's
    /// zipf-hash partitions are mildly uneven.
    pub partition_imbalance: f64,
}

impl WorkloadModel {
    /// Intermediate bytes produced by mapping `input_bytes`.
    pub fn intermediate_bytes(&self, input_bytes: u64) -> u64 {
        (input_bytes as f64 * self.map_output_ratio).round() as u64
    }

    /// Bytes of one reduce partition given total intermediate bytes, for
    /// the mean partition; the `largest` flag applies the imbalance factor.
    pub fn partition_bytes(&self, intermediate_bytes: u64, num_reduces: u32, largest: bool) -> u64 {
        if num_reduces == 0 {
            return 0;
        }
        let mean = intermediate_bytes as f64 / num_reduces as f64;
        let v = if largest { mean * self.partition_imbalance } else { mean };
        v.round() as u64
    }

    /// Records in `bytes` of intermediate data.
    pub fn records_in(&self, bytes: u64) -> u64 {
        bytes.checked_div(self.record_size).unwrap_or(0)
    }

    /// Final output bytes of one reducer that shuffled `partition_bytes`.
    pub fn reduce_output_bytes(&self, partition_bytes: u64) -> u64 {
        (partition_bytes as f64 * self.reduce_output_ratio).round() as u64
    }
}

/// Constants shared between the executable and analytic forms.
pub mod constants {
    /// Terasort record layout (the classic 100-byte record).
    pub const TERASORT_KEY_LEN: usize = 10;
    pub const TERASORT_VALUE_LEN: usize = 90;
    pub const TERASORT_RECORD_WIRE: u64 = 10 + 90 + 8;

    /// Wordcount vocabulary and zipf skew used by the generator.
    pub const WORDCOUNT_VOCABULARY: usize = 50_000;
    pub const WORDCOUNT_ZIPF_S: f64 = 1.1;
    pub const WORDCOUNT_MEAN_WORD_LEN: usize = 8;

    /// Secondarysort composite key: primary u32 + secondary u32 (big-endian)
    /// and a payload.
    pub const SECONDARYSORT_PAYLOAD_LEN: usize = 56;
    pub const SECONDARYSORT_PRIMARIES: u32 = 1 << 16;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> WorkloadModel {
        WorkloadModel {
            name: "test",
            map_output_ratio: 1.0,
            reduce_output_ratio: 1.0,
            record_size: 108,
            map_cpu_secs_per_gb: 2.0,
            reduce_cpu_secs_per_gb: 2.0,
            deser_secs_per_record: 1e-7,
            partition_imbalance: 1.2,
        }
    }

    #[test]
    fn byte_flow() {
        let m = model();
        assert_eq!(m.intermediate_bytes(1000), 1000);
        assert_eq!(m.partition_bytes(1000, 10, false), 100);
        assert_eq!(m.partition_bytes(1000, 10, true), 120);
        assert_eq!(m.partition_bytes(1000, 0, false), 0);
        assert_eq!(m.records_in(1080), 10);
        assert_eq!(m.reduce_output_bytes(500), 500);
    }

    #[test]
    fn shrinking_workload() {
        let m = WorkloadModel { map_output_ratio: 0.05, ..model() };
        assert_eq!(m.intermediate_bytes(10_000), 500);
    }
}
