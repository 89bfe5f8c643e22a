//! Single-threaded layer replays, run only by `--trace 1`: the benchmark
//! drives a layer's public functions itself, with inputs shaped like the
//! workload's, and times each call from outside.

pub mod dataplane;
pub mod des;
