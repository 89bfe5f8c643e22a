//! Configuration surface.
//!
//! [`YarnConfig`] carries the cluster/framework parameters of Table I of the
//! paper that an engine reads, plus the failure-detection knobs the amplification analysis depends
//! on (node liveness timeout, shuffle fetch retry limits). [`AlmConfig`]
//! carries the knobs of the paper's contribution: logging frequency and log
//! replication level for ALG (§III), and the scheduling limits of
//! Algorithm 1 for SFM (§IV).

use serde::Serialize;

use crate::units::{GB, KB, MB};

/// How the framework recovers from failures. The four evaluation modes of §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RecoveryMode {
    /// Stock YARN task re-execution: restart failed tasks from scratch,
    /// rely on running ReduceTasks to discover lost MOFs.
    Baseline,
    /// Analytics logging only: failed ReduceTasks resume from their logs.
    Alg,
    /// Speculative fast migration only: proactive MapTask regeneration,
    /// ReduceTask migration, fast collective merging; no log resume.
    Sfm,
    /// The full ALM framework: SFM leveraging ALG's logged analytics.
    SfmAlg,
}

impl RecoveryMode {
    /// Whether ReduceTasks write analytics logs in this mode.
    pub fn logs_enabled(&self) -> bool {
        matches!(self, RecoveryMode::Alg | RecoveryMode::SfmAlg)
    }

    /// Whether node failures are handled by speculative fast migration.
    pub fn sfm_enabled(&self) -> bool {
        matches!(self, RecoveryMode::Sfm | RecoveryMode::SfmAlg)
    }
}

/// Replication level for HDFS writes of reduce outputs and reduce-stage
/// analytics logs (§III-B, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum ReplicationLevel {
    /// Local replica only.
    Node,
    /// Local replica plus one replica elsewhere in the same rack
    /// (ALG's default: "local and rack replicas").
    Rack,
    /// Replicas spread across racks (standard HDFS behaviour).
    Cluster,
}

impl ReplicationLevel {
    /// Number of replicas written at this level given the configured
    /// `dfs.replication` factor.
    pub fn replica_count(&self, dfs_replication: u16) -> u16 {
        match self {
            ReplicationLevel::Node => 1,
            _ => dfs_replication.max(1),
        }
    }
}

/// Cluster and framework configuration: the Table I parameters an engine
/// reads, plus detection knobs. Table I's `io.file.buffer.size`,
/// vmem-pmem ratio and min/max container allocation are not modelled, and
/// the 3 s heartbeat is folded into `node_liveness_timeout_ms` (DESIGN.md
/// has the full mapping).
///
/// Time quantities are in milliseconds so the same struct drives both the
/// simulator (virtual ms) and the threaded runtime (real ms, usually scaled
/// down by the test harness).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct YarnConfig {
    // ---- Table I (the modelled subset) ----
    /// `mapreduce.map.java.opts`: MapTask heap, bytes.
    pub map_heap_bytes: u64,
    /// `mapreduce.reduce.java.opts`: ReduceTask heap, bytes.
    pub reduce_heap_bytes: u64,
    /// `mapreduce.task.io.sort.factor`: maximum number of streams merged at
    /// once; the reduce stage starts once segments are reduced below this.
    pub io_sort_factor: usize,
    /// `dfs.replication`.
    pub dfs_replication: u16,
    /// `dfs.block.size`, bytes.
    pub dfs_block_size: u64,
    /// Whether DFS reads verify each block replica's CRC32 frame and fail
    /// over to a healthy replica on a mismatch (HDFS-style end-to-end
    /// checksums). Off, reads trust the first live replica — the unsafe
    /// pre-checksum behaviour, kept as an experiment ablation.
    pub dfs_verify_on_read: bool,
    /// Maximum blocks the DFS re-replicates per repair pass — the
    /// background repair pipeline's concurrency (HDFS's replication work
    /// multiplier). Bounds how fast replication is restored after node
    /// death or detected rot, trading repair traffic against recovery
    /// latency.
    pub dfs_repair_concurrency: u32,

    // ---- failure detection / shuffle robustness ----
    /// Time from a node's crash to the AM declaring it lost — missed
    /// heartbeats and the expiry timer as one delay. The paper measures
    /// ~70 s between crash and detection (Fig. 3).
    pub node_liveness_timeout_ms: u64,
    /// Consecutive fetch failures against one MOF source before the fetch is
    /// reported to the AM.
    pub fetch_retries_per_source: u32,
    /// Base delay between fetch retries. Retries back off exponentially
    /// from this base (with deterministic seeded jitter) so a healed
    /// partition does not produce a synchronized retry storm.
    pub fetch_retry_delay_ms: u64,
    /// Hard wall on how long a recovering reducer's shuffle phase waits for
    /// missing or regenerating MOF sources before giving up. Must exceed
    /// the node liveness timeout, or a reducer could abandon a source
    /// before the cluster has even decided whether the source is dead.
    pub shuffle_wait_cap_ms: u64,
    /// Maximum attempts per task before the job is failed.
    pub max_task_attempts: u32,
    /// Share of reduce-side heap usable as shuffle buffer.
    pub shuffle_buffer_fraction: f64,
    /// In-memory segment merge threshold: when the shuffle buffer exceeds
    /// this fraction, the in-memory merger flushes to disk.
    pub merge_spill_fraction: f64,
}

impl Default for YarnConfig {
    /// Table I values.
    fn default() -> Self {
        YarnConfig {
            map_heap_bytes: 1536 * MB,
            reduce_heap_bytes: 4096 * MB,
            io_sort_factor: 100,
            dfs_replication: 2,
            dfs_block_size: 128 * MB,
            dfs_verify_on_read: true,
            dfs_repair_concurrency: 2,
            node_liveness_timeout_ms: 70_000,
            fetch_retries_per_source: 4,
            fetch_retry_delay_ms: 5_000,
            shuffle_wait_cap_ms: 1_400_000,
            max_task_attempts: 4,
            shuffle_buffer_fraction: 0.70,
            merge_spill_fraction: 0.66,
        }
    }
}

impl YarnConfig {
    /// Shuffle buffer capacity in bytes for a reduce task.
    pub fn shuffle_buffer_bytes(&self) -> u64 {
        (self.reduce_heap_bytes as f64 * self.shuffle_buffer_fraction) as u64
    }

    /// A configuration scaled for fast in-process tests: small buffers and
    /// millisecond-scale detection timeouts, preserving all ratios that the
    /// recovery logic depends on.
    ///
    /// Every field is pinned explicitly (no `..Default::default()`): the
    /// checked-in golden campaign reports were produced under these exact
    /// values, so a later change to a Table I default must not silently
    /// leak into the test-scale profile. A full struct literal makes the
    /// compiler enforce this (E0063 on a new field).
    pub fn scaled_for_tests() -> Self {
        YarnConfig {
            map_heap_bytes: 4 * MB,
            reduce_heap_bytes: 16 * MB,
            io_sort_factor: 10,
            dfs_replication: 2,
            dfs_block_size: 256 * KB,
            dfs_verify_on_read: true,
            dfs_repair_concurrency: 2,
            node_liveness_timeout_ms: 250,
            fetch_retries_per_source: 3,
            fetch_retry_delay_ms: 20,
            shuffle_wait_cap_ms: 5_000,
            max_task_attempts: 8,
            shuffle_buffer_fraction: 0.70,
            merge_spill_fraction: 0.66,
        }
    }

    /// Basic sanity checks; returns a description of the first violation.
    ///
    /// The destructuring carries no `..`: a new field fails the build here
    /// until `validate()` decides what to check about it.
    pub fn validate(&self) -> Result<(), String> {
        let Self {
            map_heap_bytes,
            reduce_heap_bytes,
            io_sort_factor,
            dfs_replication,
            dfs_block_size,
            dfs_verify_on_read,
            dfs_repair_concurrency,
            node_liveness_timeout_ms,
            fetch_retries_per_source,
            fetch_retry_delay_ms,
            shuffle_wait_cap_ms,
            max_task_attempts,
            shuffle_buffer_fraction,
            merge_spill_fraction,
        } = *self;
        if map_heap_bytes == 0 || reduce_heap_bytes == 0 {
            return Err("task heaps must be nonzero".into());
        }
        if io_sort_factor < 2 {
            return Err("io.sort.factor must be >= 2".into());
        }
        if dfs_replication == 0 {
            return Err("dfs.replication must be >= 1".into());
        }
        if dfs_block_size == 0 {
            return Err("dfs.block.size must be nonzero".into());
        }
        if dfs_verify_on_read && dfs_repair_concurrency == 0 {
            return Err(
                "verify-on-read detects rot but a zero dfs repair concurrency can never heal it".into()
            );
        }
        if fetch_retries_per_source == 0 {
            return Err("fetch retries per source must be >= 1".into());
        }
        if fetch_retry_delay_ms == 0 {
            return Err("a zero fetch retry delay is a hot retry loop".into());
        }
        if max_task_attempts == 0 {
            return Err("max task attempts must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&shuffle_buffer_fraction) {
            return Err("shuffle_buffer_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&merge_spill_fraction) {
            return Err("merge_spill_fraction must be in [0,1]".into());
        }
        if shuffle_wait_cap_ms <= node_liveness_timeout_ms {
            return Err("shuffle wait cap must exceed the node liveness timeout".into());
        }
        Ok(())
    }
}

/// Configuration of the ALM framework itself (§III, §IV).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AlmConfig {
    pub mode: RecoveryMode,
    /// Interval between analytics-log snapshots of a running ReduceTask.
    /// §III-A observes that *higher* frequency lowers per-log cost; Fig. 12
    /// sweeps this.
    pub logging_interval_ms: u64,
    /// Replication level used for reduce-stage log records and flushed
    /// reduce output on HDFS (ALG default: rack).
    pub log_replication: ReplicationLevel,
    /// Algorithm 1, line 10: maximum re-launches of a failed ReduceTask on
    /// its original (still-alive) node before giving up on local resume.
    pub limit_local: u32,
    /// Algorithm 1, line 16: cap on concurrently running FCM-mode recovery
    /// tasks per job (default 10 in the paper).
    pub fcm_cap: usize,
    /// §IV-B: proactively re-execute MapTasks from a failed node so MOFs are
    /// regenerated before reducers stall. Disabling this re-introduces
    /// temporal amplification (ablation for Fig. 10).
    pub proactive_map_regen: bool,
}

impl Default for AlmConfig {
    fn default() -> Self {
        AlmConfig {
            mode: RecoveryMode::SfmAlg,
            logging_interval_ms: 5_000,
            log_replication: ReplicationLevel::Rack,
            limit_local: 1,
            fcm_cap: 10,
            proactive_map_regen: true,
        }
    }
}

impl AlmConfig {
    /// The stock-YARN configuration: no logging, no migration.
    pub fn baseline() -> Self {
        AlmConfig { mode: RecoveryMode::Baseline, ..AlmConfig::default() }
    }

    pub fn with_mode(mode: RecoveryMode) -> Self {
        AlmConfig { mode, ..AlmConfig::default() }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.fcm_cap == 0 && self.mode.sfm_enabled() {
            return Err("fcm_cap must be >= 1 when SFM is enabled".into());
        }
        if self.logging_interval_ms == 0 && self.mode.logs_enabled() {
            return Err("logging interval must be nonzero when ALG is enabled".into());
        }
        Ok(())
    }
}

/// How a job chain recovers memory-resident state lost to a node crash
/// (the `alm-mem` in-memory iterative engine mode).
///
/// M3R-style in-memory chains keep MOFs and reduce state in RAM for
/// memory-speed iteration, but a node crash then destroys state for
/// *every* iteration whose partitions lived there — the paper's failure
/// amplification, sharpened. The two modes are the two answers:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MemMode {
    /// Pure in-memory chains (M3R): nothing durable survives a crash, so
    /// lost partitions are recomputed by replaying the whole upstream
    /// lineage — every completed iteration back to the chain's seed input.
    /// The amplification-heavy baseline.
    LineageReplay,
    /// The paper's answer carried into the in-memory era: each iteration's
    /// reduce state is also ALG-logged durably (DFS-replicated), and a
    /// crash restores from the logs + FCM migration — only the in-flight
    /// iteration re-runs, under `RecoveryMode::SfmAlg`.
    AlgFcm,
}

impl MemMode {
    pub fn as_str(&self) -> &'static str {
        match self {
            MemMode::LineageReplay => "lineage-replay",
            MemMode::AlgFcm => "alg-fcm",
        }
    }

    /// The per-iteration recovery mode jobs of a chain run under.
    pub fn recovery_mode(&self) -> RecoveryMode {
        match self {
            MemMode::LineageReplay => RecoveryMode::Baseline,
            MemMode::AlgFcm => RecoveryMode::SfmAlg,
        }
    }
}

impl std::fmt::Display for MemMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Knobs of the in-memory iterative engine mode (`alm-mem`): the resident
/// store budget and the chain's failure/termination semantics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MemConfig {
    /// Per-node capacity of the resident store, bytes. Entries beyond the
    /// budget are evicted deterministically (LRU over unpinned entries);
    /// eviction is semantically invisible — an evicted partition is
    /// recomputed or restored, never silently dropped.
    pub mem_resident_capacity_bytes: u64,
    /// How resident state lost to a node crash is recovered.
    pub mem_mode: MemMode,
    /// Hard iteration cap for a chain (convergence may stop it earlier).
    pub mem_max_chain_iterations: u32,
    /// Convergence threshold in fixed-point micro-units: the chain stops
    /// once the largest per-partition state delta falls below this.
    pub mem_convergence_epsilon_micro: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            mem_resident_capacity_bytes: 8 * GB,
            mem_mode: MemMode::AlgFcm,
            mem_max_chain_iterations: 50,
            mem_convergence_epsilon_micro: 1_000,
        }
    }
}

impl MemConfig {
    /// Test-scaled profile: a small resident budget so eviction paths are
    /// actually exercised, and short chains.
    pub fn scaled_for_tests() -> Self {
        MemConfig {
            mem_resident_capacity_bytes: 256 * KB,
            mem_mode: MemMode::AlgFcm,
            mem_max_chain_iterations: 8,
            mem_convergence_epsilon_micro: 1_000,
        }
    }

    /// Exhaustive destructuring, as in [`YarnConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        let Self {
            mem_resident_capacity_bytes,
            mem_mode,
            mem_max_chain_iterations,
            mem_convergence_epsilon_micro,
        } = *self;
        if mem_max_chain_iterations == 0 {
            return Err("mem_max_chain_iterations must be >= 1".into());
        }
        if mem_convergence_epsilon_micro == 0 && mem_max_chain_iterations > 1 {
            return Err(
                "mem_convergence_epsilon_micro must be nonzero (a zero threshold never converges)".into()
            );
        }
        // Pinning promises the next iteration its inputs stay resident;
        // an over-tight budget would turn that promise into put failures
        // on every partition, so require headroom for at least one frame.
        if mem_resident_capacity_bytes < KB {
            return Err("pinned state needs mem_resident_capacity_bytes >= 1 KB".into());
        }
        match mem_mode {
            MemMode::LineageReplay | MemMode::AlgFcm => Ok(()),
        }
    }
}

/// Hardware profile of the evaluation testbed (§V-A): 21 nodes, 10 GbE,
/// hex-core Xeons, one SATA SSD each. Used by the simulator's cost models.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterSpec {
    pub nodes: u32,
    pub racks: u32,
    /// Per-node NIC bandwidth, bytes/second (10 GbE).
    pub nic_bandwidth: u64,
    /// Per-node aggregate disk read bandwidth, bytes/second (SATA SSD).
    pub disk_read_bandwidth: u64,
    /// Per-node aggregate disk write bandwidth, bytes/second.
    pub disk_write_bandwidth: u64,
    /// Map/reduce container slots per node (24 GB RAM, per-task heaps of
    /// Table I give roughly this many concurrent tasks).
    pub map_slots_per_node: u32,
    pub reduce_slots_per_node: u32,
    /// Container/JVM launch latency, ms.
    pub container_launch_ms: u64,
    /// Aggregate cross-rack uplink bandwidth per rack, bytes/second.
    /// Oversubscribed relative to the sum of node NICs, which is what makes
    /// cluster-level replication expensive (Fig. 13).
    pub rack_uplink_bandwidth: u64,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 21,
            racks: 2,
            nic_bandwidth: (10 * GB) / 8,  // 10 Gb/s => 1.25 GB/s
            disk_read_bandwidth: 480 * MB, // SATA SSD
            disk_write_bandwidth: 400 * MB,
            map_slots_per_node: 8,
            reduce_slots_per_node: 4,
            container_launch_ms: 2_500,
            rack_uplink_bandwidth: (3 * GB) / 4,
        }
    }
}

impl ClusterSpec {
    /// Worker nodes available for task containers (one node of the testbed
    /// is dedicated to RM/NameNode in §V-A).
    pub fn worker_nodes(&self) -> u32 {
        self.nodes.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_defaults() {
        let c = YarnConfig::default();
        assert_eq!(c.map_heap_bytes, 1536 * MB);
        assert_eq!(c.reduce_heap_bytes, 4096 * MB);
        assert_eq!(c.io_sort_factor, 100);
        assert_eq!(c.dfs_replication, 2);
        assert_eq!(c.dfs_block_size, 128 * MB);
        c.validate().expect("Table I config must validate");
    }

    #[test]
    fn scaled_config_validates_and_preserves_structure() {
        let c = YarnConfig::scaled_for_tests();
        c.validate().unwrap();
        assert!(c.io_sort_factor >= 2);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = YarnConfig { io_sort_factor: 1, ..YarnConfig::default() };
        assert!(c.validate().is_err());

        let mut c = YarnConfig::default();
        c.shuffle_wait_cap_ms = c.node_liveness_timeout_ms;
        assert!(c.validate().is_err(), "wait cap must strictly exceed the liveness timeout");
    }

    #[test]
    fn validation_covers_every_field() {
        // One degenerate value per newly covered field; each must be caught.
        for breakage in [
            |c: &mut YarnConfig| c.map_heap_bytes = 0,
            |c: &mut YarnConfig| c.reduce_heap_bytes = 0,
            |c: &mut YarnConfig| c.dfs_replication = 0,
            |c: &mut YarnConfig| c.dfs_repair_concurrency = 0,
            |c: &mut YarnConfig| c.fetch_retries_per_source = 0,
            |c: &mut YarnConfig| c.fetch_retry_delay_ms = 0,
            |c: &mut YarnConfig| c.max_task_attempts = 0,
        ] {
            let mut c = YarnConfig::default();
            breakage(&mut c);
            assert!(c.validate().is_err(), "degenerate config accepted");
        }
    }

    #[test]
    fn scaled_profile_pins_every_field_to_its_golden_value() {
        // The golden campaign reports were produced under this profile; the
        // fields that happen to coincide with Table I must stay pinned even
        // if the Table I defaults later change.
        let c = YarnConfig::scaled_for_tests();
        assert!((c.shuffle_buffer_fraction - 0.70).abs() < 1e-9);
        assert!((c.merge_spill_fraction - 0.66).abs() < 1e-9);
        assert!(c.dfs_verify_on_read, "golden reports assume verified DFS reads");
        assert_eq!(c.dfs_repair_concurrency, 2);
    }

    #[test]
    fn shuffle_wait_cap_exceeds_liveness_timeout_in_both_profiles() {
        for c in [YarnConfig::default(), YarnConfig::scaled_for_tests()] {
            assert!(c.shuffle_wait_cap_ms > c.node_liveness_timeout_ms);
            c.validate().unwrap();
        }
    }

    #[test]
    fn recovery_mode_feature_flags() {
        assert!(!RecoveryMode::Baseline.logs_enabled());
        assert!(!RecoveryMode::Baseline.sfm_enabled());
        assert!(RecoveryMode::Alg.logs_enabled());
        assert!(!RecoveryMode::Alg.sfm_enabled());
        assert!(!RecoveryMode::Sfm.logs_enabled());
        assert!(RecoveryMode::Sfm.sfm_enabled());
        assert!(RecoveryMode::SfmAlg.logs_enabled());
        assert!(RecoveryMode::SfmAlg.sfm_enabled());
    }

    #[test]
    fn replication_levels() {
        assert_eq!(ReplicationLevel::Node.replica_count(3), 1);
        assert_eq!(ReplicationLevel::Rack.replica_count(2), 2);
        assert_eq!(ReplicationLevel::Cluster.replica_count(2), 2);
        // A zero dfs.replication still yields at least one replica.
        assert_eq!(ReplicationLevel::Cluster.replica_count(0), 1);
    }

    #[test]
    fn alm_defaults_match_paper() {
        let a = AlmConfig::default();
        assert_eq!(a.fcm_cap, 10, "paper: FCM cap defaults to 10");
        assert_eq!(a.log_replication, ReplicationLevel::Rack);
        assert!(a.proactive_map_regen);
        a.validate().unwrap();
    }

    #[test]
    fn alm_validation() {
        let mut a = AlmConfig { fcm_cap: 0, ..AlmConfig::default() };
        assert!(a.validate().is_err());
        a.mode = RecoveryMode::Baseline;
        assert!(a.validate().is_ok(), "fcm_cap irrelevant without SFM");

        let a = AlmConfig { logging_interval_ms: 0, ..AlmConfig::default() };
        assert!(a.validate().is_err());
    }

    #[test]
    fn cluster_spec_testbed() {
        let s = ClusterSpec::default();
        assert_eq!(s.nodes, 21);
        assert_eq!(s.worker_nodes(), 20);
        assert_eq!(s.nic_bandwidth, (10 * GB) / 8); // 1.25 GB/s
    }

    #[test]
    fn mem_mode_semantics() {
        assert_eq!(MemMode::LineageReplay.recovery_mode(), RecoveryMode::Baseline);
        assert_eq!(MemMode::AlgFcm.recovery_mode(), RecoveryMode::SfmAlg);
        assert_eq!(MemMode::LineageReplay.to_string(), "lineage-replay");
        assert_eq!(MemMode::AlgFcm.to_string(), "alg-fcm");
    }

    #[test]
    fn mem_config_profiles_validate() {
        MemConfig::default().validate().expect("default MemConfig must validate");
        let t = MemConfig::scaled_for_tests();
        t.validate().expect("scaled MemConfig must validate");
        // The test profile keeps the budget deliberately tight so eviction
        // is exercised, but big enough to hold at least one pinned frame.
        assert_eq!(t.mem_resident_capacity_bytes, 256 * KB);
        assert_eq!(t.mem_mode, MemMode::AlgFcm);
        assert_eq!(t.mem_max_chain_iterations, 8);
        assert_eq!(t.mem_convergence_epsilon_micro, 1_000);
    }

    #[test]
    fn mem_config_rules_fire() {
        for breakage in [
            |c: &mut MemConfig| c.mem_resident_capacity_bytes = 0,
            |c: &mut MemConfig| c.mem_max_chain_iterations = 0,
            |c: &mut MemConfig| c.mem_convergence_epsilon_micro = 0,
            |c: &mut MemConfig| c.mem_resident_capacity_bytes = 100,
        ] {
            let mut c = MemConfig::default();
            breakage(&mut c);
            assert!(c.validate().is_err(), "degenerate mem config accepted: {c:?}");
        }
        // A single-iteration chain never needs a convergence threshold.
        let c = MemConfig {
            mem_max_chain_iterations: 1,
            mem_convergence_epsilon_micro: 0,
            ..MemConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
