//! The MapReduce data plane, reimplemented from scratch (§II-A of the
//! paper): everything between a map function's `emit` and a reduce
//! function's `values` iterator.
//!
//! * [`localfs`] — node-local storage abstraction (in-memory filesystem)
//!   holding spills, MOFs and analytics logs; a node crash wipes it.
//! * [`codec`] — the length-prefixed record wire format.
//! * [`frame`] — the CRC32-checksummed frame wrapped around MOF partition
//!   streams and ALG log records, distinguishing detected corruption
//!   ([`ShuffleError::ChecksumMismatch`]) from truncation.
//! * [`segment`] — sorted runs: [`segment::SegmentReader`] decodes a run
//!   record-by-record and is *offset-resumable*, which is what makes the
//!   paper's reduce-stage analytics logs (file path + offset per MPQ entry,
//!   Fig. 6) sufficient to reconstruct a half-consumed merge.
//! * [`kvbuffer`] — the map-side sort buffer with spill-and-merge, producing
//!   a Map Output File.
//! * [`mof`] — the MOF: one data blob plus a per-partition index.
//! * [`mpq`] — the Minimum Priority Queue: a k-way merge heap in bytewise
//!   key order over segment readers, snapshottable for logging.
//! * [`merger`] — merge execution (with optional combiner) and merge
//!   planning down to `io.sort.factor` inputs.
//! * [`fetcher`] — the reduce-side shuffle buffers: in-memory vs on-disk
//!   segment management with the in-memory merge flush ALG piggybacks on.

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod fetcher;
pub mod frame;
pub mod kvbuffer;
pub mod localfs;
pub mod merger;
pub mod mof;
pub mod mpq;
pub mod segment;

pub use error::ShuffleError;
pub use fetcher::ReduceBuffers;
pub use kvbuffer::MapOutputBuffer;
pub use localfs::{LocalFs, MemFs};
pub use mof::MofData;
pub use mpq::{MergeQueue, MpqEntry, SortedRun};
pub use segment::{SegmentReader, SegmentSource};

use std::sync::Arc;

/// The pipeline's one key order: bytewise (lexicographic) comparison of the
/// intermediate keys. Every workload's keys sort bytewise — Secondarysort's
/// composite key is two big-endian `u32`s — so the order is a unit type, not
/// a value to call, and the sort buffer can compare 8-byte key prefixes
/// instead of slices. Only the constructors the frozen benchmark harness
/// names still take it.
#[derive(Debug, Clone, Copy)]
pub struct KeyCmp;

/// Map-side combiner: fold one key's values into a single value.
pub type Combiner = Arc<dyn Fn(&[u8], &[Vec<u8>]) -> Option<Vec<u8>> + Send + Sync>;

/// The bytewise key order.
pub fn bytewise_cmp() -> KeyCmp {
    KeyCmp
}
