//! The paper's three evaluation workloads — Terasort, Wordcount and
//! Secondarysort (§V-A) — in two complementary forms:
//!
//! 1. **Executable** ([`Workload`]): deterministic input generation plus the
//!    map function, partitioner, grouping predicate and reduce
//!    function, consumed by the real threaded runtime (`alm-runtime`) which
//!    actually sorts/merges/reduces the bytes.
//! 2. **Analytic** ([`model::WorkloadModel`]): size ratios, record sizes and
//!    CPU cost coefficients, consumed by the discrete-event simulator
//!    (`alm-sim`) so that paper-scale inputs (10–320 GB) run in milliseconds.
//!
//! Both forms are derived from the same constants so that shapes observed in
//! the real engine carry over to the simulated one.

#![forbid(unsafe_code)]

pub mod iterative;
pub mod kmeans;
pub mod model;
pub mod pagerank;
pub mod record;
pub mod reference;
pub mod secondarysort;
pub mod spec;
pub mod terasort;
pub mod wordcount;

pub use iterative::{
    be_u32, be_u64, decode_state, encode_state, mix64, state_delta_micro, IterativeWorkload, RANK_ONE_MICRO,
};
pub use kmeans::KMeans;
pub use model::WorkloadModel;
pub use pagerank::Pagerank;
pub use record::Record;
pub use secondarysort::SecondarySort;
pub use spec::{JobSpec, WorkloadKind};
pub use terasort::Terasort;
pub use wordcount::Wordcount;

/// A MapReduce program: input generation + user functions.
///
/// Implementations must be deterministic functions of `(split, seed)` so
/// that a re-executed MapTask regenerates byte-identical output — the
/// property YARN's recovery (and ours) relies on.
///
/// Intermediate keys sort bytewise: the data plane has one key order, so a
/// workload that needs another encodes it into its key bytes (Secondarysort's
/// big-endian composite key). There is no comparator to override.
pub trait Workload: Send + Sync {
    fn name(&self) -> &'static str;

    /// Generate the records of one input split.
    fn gen_split(&self, split_index: u32, seed: u64) -> Vec<Record>;

    /// The map function: transform one input record into intermediate
    /// records, passed to `emit`.
    fn map(&self, rec: &Record, emit: &mut dyn FnMut(Record));

    /// The reduce function: one key group (values in sorted arrival order)
    /// to output records.
    fn reduce(&self, key: &[u8], values: &[Vec<u8>], emit: &mut dyn FnMut(Record));

    /// Route an intermediate key to a reduce partition.
    fn partition(&self, key: &[u8], num_reduces: u32) -> u32;

    /// Whether two adjacent sorted keys belong to the same reduce group
    /// (Secondarysort groups by the primary key only).
    fn same_group(&self, a: &[u8], b: &[u8]) -> bool {
        a == b
    }

    /// Optional combiner: fold the values of one key on the map side.
    /// Returns `None` when the workload has no combiner.
    fn combine(&self, _key: &[u8], _values: &[Vec<u8>]) -> Option<Vec<u8>> {
        None
    }

    /// The analytic twin of this workload for the simulator.
    fn model(&self) -> WorkloadModel;
}
