//! Failure descriptions and the engine-neutral fault-injection vocabulary.
//!
//! [`FailureReport`] is the input of the recovery policy
//! (`alm_core::schedule_recovery`), whose SFM branch is the paper's
//! Algorithm 1 ("Enhanced Failure Recovery Scheduling Policy"): the failed
//! ReduceTasks, the failed MapTasks, the MapTasks whose output files (MOFs)
//! were lost, and the source node of the report with its liveness. Every
//! recovery mode consumes the same report.
//!
//! [`Fault`] and [`FaultPlan`] are the *input* side of the same story: one
//! declarative description of the faults to inject into a run, shared by
//! the threaded runtime (real-time millisecond clock) and the
//! discrete-event simulator (virtual seconds). [`FaultPlan::arm`] is the
//! one place a fault becomes a trigger: it turns the plan into a
//! [`FaultTimeline`], which decides when each trigger falls due on an
//! engine's millisecond clock and yields it as a [`Trigger`] for the
//! engine to carry out. Link changes act on a [`LinkState`], the one
//! model of which directed links are cut or degraded. Scenario tooling
//! such as `alm-chaos` speaks only this vocabulary and stays
//! engine-agnostic.

use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::id::{AttemptId, NodeId, TaskId};

/// Root cause of a task or node failure, mirroring the fault classes the
/// paper injects (§II-B, §V-A) and the cascades it analyses (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FailureKind {
    /// Injected out-of-memory exception: a transient single-task fault.
    TaskOom,
    /// The task's host stopped responding (network services stopped /
    /// machine crash). Detected only after the liveness timeout.
    NodeCrash,
    /// A reducer exceeded its fetch-failure budget against lost MOFs and
    /// was preempted by the scheduler — the amplification mechanism.
    FetchFailureLimit,
    /// No progress within the task timeout.
    TaskTimeout,
    /// Node responsive but pathologically slow ("faulty node", §IV-B).
    SlowNode,
    /// Node alive and heartbeating but unreachable over the data plane —
    /// a severed shuffle/DFS link that will heal. The ambiguous half of
    /// §II-C's amplification story: presuming this dead is the mistake.
    NetworkPartition,
    /// Stored bytes (MOF partition or ALG log record) failed their
    /// checksum on read. The host keeps heartbeating; the data, not the
    /// node, is faulty.
    DataCorruption,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FailureKind {
    /// Every variant, for exhaustiveness tests over report labeling.
    pub const ALL: [FailureKind; 7] = [
        FailureKind::TaskOom,
        FailureKind::NodeCrash,
        FailureKind::FetchFailureLimit,
        FailureKind::TaskTimeout,
        FailureKind::SlowNode,
        FailureKind::NetworkPartition,
        FailureKind::DataCorruption,
    ];

    /// Stable kebab-case label used in reports and rendered tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::TaskOom => "task-oom",
            FailureKind::NodeCrash => "node-crash",
            FailureKind::FetchFailureLimit => "fetch-failure-limit",
            FailureKind::TaskTimeout => "task-timeout",
            FailureKind::SlowNode => "slow-node",
            FailureKind::NetworkPartition => "network-partition",
            FailureKind::DataCorruption => "data-corruption",
        }
    }

    /// Transient kinds are absorbed upstream — slow nodes keep
    /// heartbeating, partitioned fetches park, corrupt chunks re-fetch
    /// against their checksum — and must never be *recorded* as an attempt
    /// failure: one in a report would skew every amplification count the
    /// campaigns compare. The single split both engines' failure recorders
    /// and the chaos analyzer assert against; wildcard-free, so a new kind
    /// fails the build here until it is classified.
    pub fn is_transient(&self) -> bool {
        match self {
            FailureKind::NodeCrash
            | FailureKind::TaskOom
            | FailureKind::FetchFailureLimit
            | FailureKind::TaskTimeout => false,
            FailureKind::SlowNode | FailureKind::NetworkPartition | FailureKind::DataCorruption => true,
        }
    }
}

/// A failure report `R` as consumed by the recovery policy: what failed
/// and what was lost, never what to do about it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureReport {
    /// The node the report concerns (Algorithm 1's `N`).
    pub source_node: NodeId,
    /// Whether `N` is still alive (heartbeating) at report time, as the
    /// engine observed it.
    pub node_alive: bool,
    /// Failed ReduceTasks in `R` (`T_reduces`).
    pub failed_reduces: Vec<TaskId>,
    /// MapTasks that were running on `N` when they failed.
    pub failed_maps: Vec<TaskId>,
    /// Completed MapTasks whose output files (MOFs) `N` held. Algorithm 1
    /// adds them to `T_maps` when regeneration is proactive; stock YARN
    /// leaves them to be discovered through fetch failures.
    pub lost_mofs: Vec<TaskId>,
}

impl FailureReport {
    /// A report for a single task failure on `node`, whose liveness the
    /// engine observed.
    pub fn task_failure(node: NodeId, node_alive: bool, task: TaskId) -> Self {
        FailureReport { node_alive, ..FailureReport::node_crash(node, [task], []) }
    }

    /// A report for a crashed node: every task running on it fails, and
    /// every MOF it hosted is lost.
    pub fn node_crash(
        node: NodeId,
        running_tasks: impl IntoIterator<Item = TaskId>,
        lost_mofs: impl IntoIterator<Item = TaskId>,
    ) -> Self {
        let (failed_reduces, failed_maps) = running_tasks.into_iter().partition(|t| t.is_reduce());
        FailureReport {
            source_node: node,
            node_alive: false,
            failed_reduces,
            failed_maps,
            lost_mofs: lost_mofs.into_iter().collect(),
        }
    }

    /// Internal consistency: reduces are reduces, maps are maps, and no
    /// task fails twice. A lost MOF may belong to a map that also failed.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(t) = self.failed_reduces.iter().find(|t| !t.is_reduce()) {
            return Err(format!("{t} listed in failed_reduces but is not a reduce"));
        }
        if let Some(t) = self.failed_maps.iter().chain(&self.lost_mofs).find(|t| !t.is_map()) {
            return Err(format!("{t} listed as a failed map or lost MOF but is not a map"));
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in self.failed_reduces.iter().chain(self.failed_maps.iter()) {
            if !seen.insert(*t) {
                return Err(format!("duplicate task {t} in failure report"));
            }
        }
        Ok(())
    }
}

/// Which way a link fault cuts. Real partitions are frequently
/// *asymmetric* — a broken switch ACL or a one-way routing loop lets
/// traffic flow `b → a` while `a → b` blackholes — so link faults carry a
/// direction instead of assuming symmetry. `AToB` means traffic *from*
/// `a` *to* `b` is affected (a cannot open a fetch connection to b) while
/// the reverse path, and with it heartbeats and failure reports, stays
/// healthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum LinkDirection {
    /// Both directions cut — the classic symmetric partition.
    #[default]
    Both,
    /// Only `a → b` traffic is affected; `b → a` stays healthy.
    AToB,
    /// Only `b → a` traffic is affected; `a → b` stays healthy.
    BToA,
}

impl LinkDirection {
    /// Every variant, for exhaustiveness tests.
    pub const ALL: [LinkDirection; 3] = [LinkDirection::Both, LinkDirection::AToB, LinkDirection::BToA];

    /// Stable kebab-case label for reports and rendered tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            LinkDirection::Both => "both",
            LinkDirection::AToB => "a-to-b",
            LinkDirection::BToA => "b-to-a",
        }
    }

    /// The concrete directed `(from, to)` keys this direction cuts on the
    /// endpoint pair `(a, b)`.
    pub fn directed_keys<N: Copy>(&self, a: N, b: N) -> Vec<(N, N)> {
        match self {
            LinkDirection::Both => vec![(a, b), (b, a)],
            LinkDirection::AToB => vec![(a, b)],
            LinkDirection::BToA => vec![(b, a)],
        }
    }
}

impl fmt::Display for LinkDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Deterministic arithmetic mixer (splitmix64 finalizer) used to jitter
/// flap windows. Pure function of its inputs — no RNG state, no entropy
/// source — so both engines expand byte-identical windows from the plan
/// alone.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A bounded, seeded sever/heal flapping schedule layered on one
/// [`Fault::PartitionLink`]. Cycle `i` severs at `from_ms + i *
/// period_ms` and heals after a down-span jittered deterministically from
/// `seed` into `[down_ms/2, down_ms]` (clamped to end strictly before the
/// next cycle's sever, so windows from one schedule can never overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FlapSchedule {
    /// Jitter seed; two schedules with the same seed expand identically.
    pub seed: u64,
    /// Number of sever/heal cycles (bounded; clamped to 64).
    pub cycles: u32,
    /// Milliseconds from one sever to the next (clamped to >= 2).
    pub period_ms: u64,
    /// Nominal down-span per cycle; the realised span is jittered into
    /// `[down_ms/2, down_ms]` and clamped to `period_ms - 1`.
    pub down_ms: u64,
}

impl FlapSchedule {
    /// Expand to concrete `(sever_ms, heal_ms)` windows starting at
    /// `from_ms`. Windows are strictly increasing and non-overlapping:
    /// every heal lands before the next sever.
    pub fn windows(&self, from_ms: u64) -> Vec<(u64, u64)> {
        let period = self.period_ms.max(2);
        let hi = self.down_ms.clamp(1, period - 1);
        let lo = (hi / 2).max(1);
        (0..self.cycles.min(64))
            .map(|i| {
                let sever = from_ms + u64::from(i) * period;
                let down = lo + mix64(self.seed ^ u64::from(i)) % (hi - lo + 1);
                (sever, sever + down)
            })
            .collect()
    }

    /// The final heal time of the expanded schedule (equals `from_ms`
    /// when the schedule has zero cycles).
    pub fn end_ms(&self, from_ms: u64) -> u64 {
        self.windows(from_ms).last().map_or(from_ms, |w| w.1)
    }
}

/// One concrete sever→heal window of a (possibly flapping, possibly
/// asymmetric) link partition, as [`FaultPlan::arm`] expands it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    pub a: NodeId,
    pub b: NodeId,
    pub direction: LinkDirection,
    pub from_ms: u64,
    pub heal_ms: u64,
}

/// What a due [`LinkChange`] does to its link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkOp {
    Sever,
    /// Healing an already-healed (or never-severed) link is a no-op.
    Heal,
    /// Transfers run `factor`× slower (>= 1) and each is dropped with
    /// probability `loss` (in `[0, 1]`), transparently re-fetched.
    Degrade {
        factor: f64,
        loss: f64,
    },
    ClearDegrade,
}

/// One armed link change: `op` applied to the directed keys
/// `direction.directed_keys(a, b)`, in that order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkChange {
    pub a: NodeId,
    pub b: NodeId,
    pub direction: LinkDirection,
    pub op: LinkOp,
}

/// Which directed links are cut and which run degraded: the state every
/// [`LinkChange`] acts on, in either engine. A cut or degraded link is
/// still up on the control plane; only data-plane traffic across the
/// affected direction is blocked or slowed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkState {
    /// `(from, to)`: `from` cannot open a fetch to `to`.
    severed: BTreeSet<(NodeId, NodeId)>,
    /// `(from, to)` → `(factor, loss)`.
    degraded: BTreeMap<(NodeId, NodeId), (f64, f64)>,
}

impl LinkState {
    /// Apply `change` to each of its `direction.directed_keys(a, b)`.
    /// Severing a cut link or healing a healthy one changes nothing.
    pub fn apply(&mut self, change: &LinkChange) {
        let LinkChange { a, b, direction, op } = *change;
        for key in direction.directed_keys(a, b) {
            match op {
                LinkOp::Sever => _ = self.severed.insert(key),
                LinkOp::Heal => _ = self.severed.remove(&key),
                LinkOp::Degrade { factor, loss } => _ = self.degraded.insert(key, (factor, loss)),
                LinkOp::ClearDegrade => _ = self.degraded.remove(&key),
            }
        }
    }

    /// Is data-plane traffic from `from` to `to` blocked? A node always
    /// reaches itself.
    pub fn is_severed(&self, from: NodeId, to: NodeId) -> bool {
        from != to && self.severed.contains(&(from, to))
    }

    /// The `(factor, loss)` degradation of `from → to` traffic, if any. A
    /// node's path to itself is never degraded.
    pub fn degradation(&self, from: NodeId, to: NodeId) -> Option<(f64, f64)> {
        if from == to {
            return None;
        }
        self.degraded.get(&(from, to)).copied()
    }
}

/// One armed fault falling due, for an engine to carry out. Each engine
/// carries triggers out in one wildcard-free `match`, so a new variant
/// fails to compile in both until each one handles it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// The node crashes.
    Crash(NodeId),
    /// The node's compute runs `factor`× slower (>= 1); a node slowed
    /// twice keeps the larger factor.
    Slow { node: NodeId, factor: f64 },
    /// The change applies to the engine's [`LinkState`].
    Link(LinkChange),
    /// Bytes of `target` rot; `node` names the intended victim. An engine
    /// whose target does not exist yet hands the trigger back with
    /// [`FaultTimeline::pend`].
    Corrupt { node: NodeId, target: CorruptTarget },
}

/// A [`FaultPlan`] armed as triggers, all times in the plan's
/// milliseconds: the one place a trigger falls due. An engine asks it
/// what is due on its own millisecond clock ([`FaultTimeline::fire`]) and
/// as its reduces progress ([`FaultTimeline::progress`]), and carries out
/// what it yields in the order it yields it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    /// Self-kill progress point per attempt; the last `KillTask` in plan
    /// order wins. Each engine looks its attempts up here.
    pub kills: BTreeMap<AttemptId, f64>,
    /// `(at_ms, node)` in plan order.
    crashes: Vec<(u64, NodeId)>,
    /// `(node, reduce_index, at_progress)` in plan order.
    progress_crashes: Vec<(NodeId, u32, f64)>,
    /// `(at_ms, node, factor >= 1)` in plan order.
    slowdowns: Vec<(u64, NodeId, f64)>,
    /// `(at_ms, change)`, stable-sorted by time: equal times keep plan
    /// order, so a window's sever comes before its heal.
    links: Vec<(u64, LinkChange)>,
    /// `(at_ms, node, target)` in plan order; a handed-back corruption
    /// follows, due from then on.
    corruptions: Vec<(u64, NodeId, CorruptTarget)>,
}

impl FaultTimeline {
    /// The progress crashes now due, as crash triggers in plan order: each
    /// whose reduce has completed, or whose progress (`None` when unknown)
    /// has reached the crash's point. Each fires once; a later one for a
    /// node already down finds it down.
    pub fn progress(
        &mut self,
        progress: impl Fn(u32) -> Option<f64>,
        complete: impl Fn(u32) -> bool,
    ) -> Vec<Trigger> {
        self.progress_crashes
            .extract_if(.., |&mut (_, r, at)| progress(r).is_some_and(|p| p >= at) || complete(r))
            .map(|(node, ..)| Trigger::Crash(node))
            .collect()
    }

    /// Everything due at `now_ms`, in the order a tick carries it out: link
    /// changes in time order, so a heal never erases the sever of a later
    /// window due in the same tick; then corruptions, crashes and
    /// slowdowns, each in plan order. Each trigger is yielded once, except
    /// a corruption handed back with [`FaultTimeline::pend`].
    pub fn fire(&mut self, now_ms: u64) -> Vec<Trigger> {
        let due = |at: u64| at <= now_ms;
        let links = self.links.extract_if(.., |l| due(l.0)).map(|(_, change)| Trigger::Link(change));
        let corruptions = self
            .corruptions
            .extract_if(.., |c| due(c.0))
            .map(|(_, node, target)| Trigger::Corrupt { node, target });
        let crashes = self.crashes.extract_if(.., |c| due(c.0)).map(|(_, node)| Trigger::Crash(node));
        let slowdowns = self
            .slowdowns
            .extract_if(.., |s| due(s.0))
            .map(|(_, node, factor)| Trigger::Slow { node, factor });
        links.chain(corruptions).chain(crashes).chain(slowdowns).collect()
    }

    /// Hand back a corruption whose target does not exist yet (a MOF not
    /// committed, a log record not written): it stays pending and is
    /// yielded again by every later [`FaultTimeline::fire`].
    pub fn pend(&mut self, node: NodeId, target: CorruptTarget) {
        self.corruptions.push((0, node, target));
    }

    /// The partitions of map `map_index`'s MOF whose rot is due at
    /// `now_ms`, taken out of the timeline: for an engine that rots a
    /// MOF's bytes as it commits, before any reducer can read them.
    pub fn fire_mof_rot(&mut self, now_ms: u64, map_index: u32) -> Vec<u32> {
        let mut partitions = Vec::new();
        self.corruptions.retain(|&(at, _, target)| match target {
            CorruptTarget::MofPartition { map_index: m, partition } if m == map_index && at <= now_ms => {
                partitions.push(partition);
                false
            }
            _ => true,
        });
        partitions
    }

    /// Every pending rot of committed output, due or not, taken out of the
    /// timeline: what a run carries out as it ends, since it stops the
    /// moment its last reduce commits. Leftover crashes and link faults
    /// stay unfired: they would change outcomes the job already decided.
    pub fn fire_output_rot(&mut self) -> Vec<Trigger> {
        self.corruptions
            .extract_if(.., |(.., target)| matches!(target, CorruptTarget::DfsBlock { .. }))
            .map(|(_, node, target)| Trigger::Corrupt { node, target })
            .collect()
    }
}

/// What a [`Fault::CorruptData`] injection flips bytes in: the durable
/// artifacts the recovery paths read back — shuffle MOF partitions, ALG
/// analytics-log records, and committed DFS output blocks. All three are
/// CRC32-checked so corruption is *detected* (distinct checksum-mismatch
/// error) and then *tolerated* (re-fetch / truncate-and-resume / replica
/// failover + re-replication) instead of escalating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum CorruptTarget {
    /// One partition of map `map_index`'s MOF on the target node.
    MofPartition { map_index: u32, partition: u32 },
    /// The ALG log record with sequence `seq` of reduce `reduce_index`.
    AlgRecord { reduce_index: u32, seq: u64 },
    /// One replica of block `block` of reduce `reduce_index`'s committed
    /// output file on the DFS (the replica hosted on the fault's `node`
    /// when one lives there, the first replica otherwise). A verified read
    /// must fail over to a healthy replica and queue re-replication; only
    /// rotting every replica may surface as a (checksum-failure) error.
    DfsBlock { reduce_index: u32, block: u32 },
}

/// One planned fault, in engine-neutral terms (§V-A's injection
/// methodology: "We inject out-of-memory exceptions to crash a task to
/// emulate the transient task failures and stop the network services on a
/// node for node failures").
///
/// Progress triggers (`at_progress`) are fractions in `[0, 1]` and mean the
/// same thing in both engines. Absolute-time triggers (`at_ms`) are in the
/// consuming engine's native milliseconds: the threaded runtime reads them
/// against its real-time clock, the simulator divides by 1000 into virtual
/// seconds. Cross-engine tooling that needs one wall-clock meaning for both
/// engines must rescale times before lowering (see `alm-chaos`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Fault {
    /// Inject an OOM into a specific attempt of `task` once it reaches
    /// `at_progress` of its own work.
    KillTask { task: TaskId, attempt_number: u32, at_progress: f64 },
    /// Crash a node at an absolute time since job start.
    CrashNodeAtMs { node: NodeId, at_ms: u64 },
    /// Crash a node once reduce `reduce_index` reaches `at_progress` of its
    /// reduce-phase work (how Figs. 9/10 and Table II place node failures
    /// "at X% of the reduce phase").
    CrashNodeAtReduceProgress { node: NodeId, reduce_index: u32, at_progress: f64 },
    /// Degrade a node's compute speed by `factor` (>= 1; 2.0 = half speed)
    /// from `at_ms` on. The node keeps heartbeating — the paper's
    /// faulty-but-alive "slow node" (§IV-B), which produces stragglers
    /// rather than failure reports.
    SlowNode { node: NodeId, at_ms: u64, factor: f64 },
    /// Sever the data-plane link between nodes `a` and `b` from `from_ms`
    /// until `heal_ms`, in the given [`LinkDirection`]. The affected
    /// node(s) stay alive and heartbeating but cannot fetch shuffle or DFS
    /// traffic across the cut direction until the partition heals — the
    /// ambiguous transient fault §II-C's amplification cascade starts
    /// from. With a [`FlapSchedule`], the link instead severs and heals
    /// repeatedly: `flap.windows(from_ms)` replaces the single
    /// `(from_ms, heal_ms)` window and `heal_ms` is advisory (the
    /// schedule's final heal).
    PartitionLink {
        a: NodeId,
        b: NodeId,
        direction: LinkDirection,
        from_ms: u64,
        heal_ms: u64,
        flap: Option<FlapSchedule>,
    },
    /// The canonical *gray* failure: the link between `a` and `b` stays
    /// up, but from `from_ms` until `heal_ms` transfers across the cut
    /// direction run `factor`× slower and each transfer is dropped with
    /// probability `loss` (deterministic seeded draws). Nothing is
    /// unreachable, nothing fails — the stack must absorb the degradation
    /// without charging the fetch retry budget or declaring anything dead.
    DegradedLink {
        a: NodeId,
        b: NodeId,
        direction: LinkDirection,
        from_ms: u64,
        heal_ms: u64,
        factor: f64,
        loss: f64,
    },
    /// Flip bytes in a durable artifact on `node` at `at_ms`. The host
    /// stays healthy; readers must detect the damage via checksums and
    /// recover (re-fetch the partition / truncate the log) without
    /// re-executing healthy work.
    CorruptData { node: NodeId, target: CorruptTarget, at_ms: u64 },
}

impl Fault {
    /// Whether this fault directly produces task-failure events (used for
    /// the paper's "additional failures" amplification accounting). A slow
    /// node only degrades, it does not fail anything by itself; transient
    /// faults (link partitions, data corruption) are *tolerated* — a
    /// correct stack turns them into zero task failures, so counting them
    /// as injected failures would hide amplification behind a bigger
    /// denominator.
    pub fn produces_failures(&self) -> bool {
        !matches!(
            self,
            Fault::SlowNode { .. }
                | Fault::PartitionLink { .. }
                | Fault::DegradedLink { .. }
                | Fault::CorruptData { .. }
        )
    }

    /// A link partition expanded to concrete sever→heal windows: one
    /// window for a plain partition, one per flap cycle for a flapping one,
    /// none for any other fault. [`FaultPlan::arm`] arms partitions from
    /// exactly this expansion.
    pub fn partition_windows(&self) -> Vec<PartitionWindow> {
        let Fault::PartitionLink { a, b, direction, from_ms, heal_ms, flap } = *self else {
            return Vec::new();
        };
        let window = |(from_ms, heal_ms)| PartitionWindow { a, b, direction, from_ms, heal_ms };
        match flap {
            Some(schedule) => schedule.windows(from_ms).into_iter().map(window).collect(),
            None => vec![window((from_ms, heal_ms))],
        }
    }
}

/// The set of faults to inject into one job run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn kill_task(task: TaskId, at_progress: f64) -> FaultPlan {
        FaultPlan { faults: vec![Fault::KillTask { task, attempt_number: 0, at_progress }] }
    }

    pub fn crash_node_at_ms(node: NodeId, at_ms: u64) -> FaultPlan {
        FaultPlan { faults: vec![Fault::CrashNodeAtMs { node, at_ms }] }
    }

    pub fn crash_node_at_reduce_progress(node: NodeId, reduce_index: u32, at_progress: f64) -> FaultPlan {
        FaultPlan { faults: vec![Fault::CrashNodeAtReduceProgress { node, reduce_index, at_progress }] }
    }

    pub fn slow_node(node: NodeId, at_ms: u64, factor: f64) -> FaultPlan {
        FaultPlan { faults: vec![Fault::SlowNode { node, at_ms, factor }] }
    }

    /// Symmetric single-window partition (the classic case).
    pub fn partition_link(a: NodeId, b: NodeId, from_ms: u64, heal_ms: u64) -> FaultPlan {
        FaultPlan::partition_link_directed(a, b, LinkDirection::Both, from_ms, heal_ms)
    }

    /// Partition cutting only the given direction.
    pub fn partition_link_directed(
        a: NodeId,
        b: NodeId,
        direction: LinkDirection,
        from_ms: u64,
        heal_ms: u64,
    ) -> FaultPlan {
        FaultPlan { faults: vec![Fault::PartitionLink { a, b, direction, from_ms, heal_ms, flap: None }] }
    }

    /// Flapping partition: `flap.windows(from_ms)` sever/heal cycles on
    /// the link, cutting `direction`.
    pub fn flapping_link(
        a: NodeId,
        b: NodeId,
        direction: LinkDirection,
        from_ms: u64,
        flap: FlapSchedule,
    ) -> FaultPlan {
        let heal_ms = flap.end_ms(from_ms);
        FaultPlan {
            faults: vec![Fault::PartitionLink { a, b, direction, from_ms, heal_ms, flap: Some(flap) }],
        }
    }

    /// Degraded (slow/lossy but alive) link across `direction`.
    pub fn degraded_link(
        a: NodeId,
        b: NodeId,
        direction: LinkDirection,
        from_ms: u64,
        heal_ms: u64,
        factor: f64,
        loss: f64,
    ) -> FaultPlan {
        FaultPlan { faults: vec![Fault::DegradedLink { a, b, direction, from_ms, heal_ms, factor, loss }] }
    }

    pub fn corrupt_data(node: NodeId, target: CorruptTarget, at_ms: u64) -> FaultPlan {
        FaultPlan { faults: vec![Fault::CorruptData { node, target, at_ms }] }
    }

    pub fn and(mut self, other: FaultPlan) -> FaultPlan {
        self.faults.extend(other.faults);
        self
    }

    /// Planned link partitions expanded to concrete sever→heal windows, in
    /// plan order (see [`Fault::partition_windows`]).
    pub fn partition_windows(&self) -> Vec<PartitionWindow> {
        self.faults.iter().flat_map(Fault::partition_windows).collect()
    }

    /// Arm the plan: the one place a [`Fault`] becomes a trigger, and the
    /// workspace's one wildcard-free `match` over it, so a new variant
    /// fails to compile here until it is armed. Every clamp lives here:
    /// heals land no earlier than their sever, slow and degrade factors
    /// are at least 1, and loss is a probability.
    pub fn arm(&self) -> FaultTimeline {
        let mut t = FaultTimeline::default();
        for fault in &self.faults {
            match *fault {
                Fault::KillTask { task, attempt_number, at_progress } => {
                    t.kills.insert(task.attempt(attempt_number), at_progress);
                }
                Fault::CrashNodeAtMs { node, at_ms } => t.crashes.push((at_ms, node)),
                Fault::CrashNodeAtReduceProgress { node, reduce_index, at_progress } => {
                    t.progress_crashes.push((node, reduce_index, at_progress))
                }
                Fault::SlowNode { node, at_ms, factor } => t.slowdowns.push((at_ms, node, factor.max(1.0))),
                Fault::PartitionLink { .. } => {
                    for w in fault.partition_windows() {
                        let change = |op| LinkChange { a: w.a, b: w.b, direction: w.direction, op };
                        t.links.push((w.from_ms, change(LinkOp::Sever)));
                        t.links.push((w.heal_ms.max(w.from_ms), change(LinkOp::Heal)));
                    }
                }
                Fault::DegradedLink { a, b, direction, from_ms, heal_ms, factor, loss } => {
                    let change = |op| LinkChange { a, b, direction, op };
                    let op = LinkOp::Degrade { factor: factor.max(1.0), loss: loss.clamp(0.0, 1.0) };
                    t.links.push((from_ms, change(op)));
                    t.links.push((heal_ms.max(from_ms), change(LinkOp::ClearDegrade)));
                }
                Fault::CorruptData { node, target, at_ms } => t.corruptions.push((at_ms, node, target)),
            }
        }
        t.links.sort_by_key(|&(at_ms, _)| at_ms); // stable: ties keep plan order
        t
    }

    /// Number of directly injected failure-producing faults (the divisor in
    /// the paper's "additional failures" amplification accounting). Slow
    /// nodes are perturbations, not failures, and are excluded.
    pub fn injected_count(&self) -> usize {
        self.faults.iter().filter(|f| f.produces_failures()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::JobId;
    use proptest::prelude::*;

    fn job() -> JobId {
        JobId(1)
    }

    /// Satellite: every variant must appear in `ALL`, label uniquely via
    /// `as_str`, and survive a serde round trip — so adding a variant
    /// cannot silently miss report labeling.
    #[test]
    fn failure_kind_exhaustive_as_str_and_serde_round_trip() {
        let mut labels = std::collections::BTreeSet::new();
        for kind in FailureKind::ALL {
            // Exhaustiveness: if a new variant is added without extending
            // ALL, this match stops compiling.
            match kind {
                FailureKind::TaskOom
                | FailureKind::NodeCrash
                | FailureKind::FetchFailureLimit
                | FailureKind::TaskTimeout
                | FailureKind::SlowNode
                | FailureKind::NetworkPartition
                | FailureKind::DataCorruption => {}
            }
            let s = kind.as_str();
            assert!(!s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{s:?}");
            assert!(labels.insert(s), "duplicate label {s}");
            assert_eq!(kind.to_string(), s, "Display must agree with as_str");
        }
        assert_eq!(labels.len(), FailureKind::ALL.len());
    }

    #[test]
    fn is_transient_splits_recordable_from_absorbed_kinds() {
        use FailureKind::*;
        for kind in [NodeCrash, TaskOom, FetchFailureLimit, TaskTimeout] {
            assert!(!kind.is_transient(), "{kind} is recordable");
        }
        for kind in [SlowNode, NetworkPartition, DataCorruption] {
            assert!(kind.is_transient(), "{kind} is absorbed upstream");
        }
    }

    #[test]
    fn task_failure_sorts_into_right_bucket_with_observed_liveness() {
        let r = FailureReport::task_failure(NodeId(3), true, TaskId::reduce(job(), 0));
        assert_eq!(r.failed_reduces.len(), 1);
        assert!(r.failed_maps.is_empty() && r.lost_mofs.is_empty());
        assert!(r.node_alive);
        r.validate().unwrap();

        let r = FailureReport::task_failure(NodeId(3), false, TaskId::map(job(), 7));
        assert_eq!(r.failed_maps, vec![TaskId::map(job(), 7)]);
        assert!(r.failed_reduces.is_empty());
        assert!(!r.node_alive, "the engine's observation, whatever the failure's kind");
    }

    #[test]
    fn node_crash_keeps_running_maps_and_lost_mofs_apart() {
        let running = vec![TaskId::map(job(), 1), TaskId::reduce(job(), 2)];
        // Map 1 both runs there and has a (previous attempt) MOF there.
        let lost = vec![TaskId::map(job(), 1), TaskId::map(job(), 5)];
        let r = FailureReport::node_crash(NodeId(9), running, lost.clone());
        assert!(!r.node_alive);
        assert_eq!(r.failed_reduces, vec![TaskId::reduce(job(), 2)]);
        assert_eq!(r.failed_maps, vec![TaskId::map(job(), 1)]);
        assert_eq!(r.lost_mofs, lost, "the policy, not the report, decides what a lost MOF costs");
        r.validate().unwrap();
    }

    #[test]
    fn validation_catches_misfiled_tasks() {
        let mut r = FailureReport::task_failure(NodeId(0), true, TaskId::map(job(), 0));
        r.failed_reduces.push(TaskId::map(job(), 1));
        assert!(r.validate().is_err());

        let mut r = FailureReport::task_failure(NodeId(0), true, TaskId::map(job(), 0));
        r.lost_mofs.push(TaskId::reduce(job(), 1));
        assert!(r.validate().is_err());
    }

    #[test]
    fn validation_catches_duplicates() {
        let t = TaskId::reduce(job(), 4);
        let r = FailureReport {
            source_node: NodeId(0),
            node_alive: true,
            failed_reduces: vec![t, t],
            failed_maps: vec![],
            lost_mofs: vec![],
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn arm_clamps_orders_and_expands_in_one_place() {
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        let t = TaskId::reduce(JobId(0), 1);
        let kill = |attempt_number, at_progress| FaultPlan {
            faults: vec![Fault::KillTask { task: t, attempt_number, at_progress }],
        };
        let rot = |reduce_index| CorruptTarget::DfsBlock { reduce_index, block: 0 };
        let flap = FlapSchedule { seed: 5, cycles: 2, period_ms: 40, down_ms: 20 };
        let plan = kill(0, 0.3)
            .and(kill(0, 0.7))
            .and(kill(1, 0.2))
            .and(FaultPlan::crash_node_at_ms(n2, 200))
            .and(FaultPlan::crash_node_at_ms(n1, 100))
            .and(FaultPlan::crash_node_at_reduce_progress(n0, 3, 0.5))
            .and(FaultPlan::slow_node(n1, 90, 0.5))
            .and(FaultPlan::slow_node(n0, 10, 4.0))
            .and(FaultPlan::corrupt_data(n2, rot(1), 80))
            .and(FaultPlan::corrupt_data(n1, rot(0), 20))
            .and(FaultPlan::partition_link(n0, n1, 50, 30))
            .and(FaultPlan::degraded_link(n1, n2, LinkDirection::AToB, 60, 10, 0.5, 2.0))
            .and(FaultPlan::degraded_link(n0, n2, LinkDirection::BToA, 0, 50, 3.0, -1.0))
            .and(FaultPlan::flapping_link(n0, n2, LinkDirection::Both, 200, flap));
        let armed = plan.arm();

        // The last kill per attempt wins; recovery attempts are keyed
        // apart, and unplanned tasks arm nothing.
        assert_eq!(armed.kills.len(), 2);
        assert_eq!(armed.kills[&t.attempt(0)], 0.7);
        assert_eq!(armed.kills[&t.attempt(1)], 0.2);
        assert!(!armed.kills.contains_key(&TaskId::reduce(JobId(0), 2).attempt(0)));

        // Crashes, slowdowns and corruptions keep plan order, not time order.
        assert_eq!(armed.crashes, vec![(200, n2), (100, n1)]);
        assert_eq!(armed.progress_crashes, vec![(n0, 3, 0.5)]);
        assert_eq!(armed.slowdowns, vec![(90, n1, 1.0), (10, n0, 4.0)], "factor clamps to >= 1");
        assert_eq!(armed.corruptions, vec![(80, n2, rot(1)), (20, n1, rot(0))]);

        // Links sort by time, ties in plan order; every heal lands no
        // earlier than its sever, so an inverted window is zero-length.
        let change = |a, b, direction, op| LinkChange { a, b, direction, op };
        let both = LinkDirection::Both;
        let mut want = vec![
            (0, change(n0, n2, LinkDirection::BToA, LinkOp::Degrade { factor: 3.0, loss: 0.0 })),
            (50, change(n0, n1, both, LinkOp::Sever)),
            (50, change(n0, n1, both, LinkOp::Heal)),
            (50, change(n0, n2, LinkDirection::BToA, LinkOp::ClearDegrade)),
            (60, change(n1, n2, LinkDirection::AToB, LinkOp::Degrade { factor: 1.0, loss: 1.0 })),
            (60, change(n1, n2, LinkDirection::AToB, LinkOp::ClearDegrade)),
        ];
        // Flap cycles expand through `partition_windows`, one sever/heal
        // pair per cycle.
        let windows = flap.windows(200);
        assert_eq!(windows.len(), 2);
        for (sever, heal) in windows {
            want.push((sever, change(n0, n2, both, LinkOp::Sever)));
            want.push((heal, change(n0, n2, both, LinkOp::Heal)));
        }
        assert_eq!(armed.links, want);
        assert_eq!(FaultPlan::none().arm(), FaultTimeline::default());
    }

    #[test]
    fn plans_compose() {
        let t = TaskId::map(JobId(0), 0);
        let plan = FaultPlan::kill_task(t, 0.1).and(FaultPlan::crash_node_at_ms(NodeId(2), 100));
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.injected_count(), 2);
    }

    #[test]
    fn slow_nodes_perturb_but_do_not_count_as_failures() {
        let plan = FaultPlan::slow_node(NodeId(1), 50, 3.0).and(FaultPlan::crash_node_at_ms(NodeId(2), 100));
        assert_eq!(plan.injected_count(), 1, "only the crash produces failures");
    }

    #[test]
    fn direction_expands_to_the_shared_directed_keys() {
        assert_eq!(LinkDirection::Both.directed_keys(1u32, 2u32), vec![(1, 2), (2, 1)]);
        assert_eq!(LinkDirection::AToB.directed_keys(1u32, 2u32), vec![(1, 2)]);
        assert_eq!(LinkDirection::BToA.directed_keys(1u32, 2u32), vec![(2, 1)]);
        // Exhaustiveness + label sanity, mirroring the FailureKind test.
        let mut labels = std::collections::BTreeSet::new();
        for d in LinkDirection::ALL {
            match d {
                LinkDirection::Both | LinkDirection::AToB | LinkDirection::BToA => {}
            }
            assert!(labels.insert(d.as_str()), "duplicate label {d}");
        }
        assert_eq!(LinkDirection::default(), LinkDirection::Both);
    }

    #[test]
    fn flap_windows_are_bounded_ordered_and_non_overlapping() {
        for seed in 0..50u64 {
            let flap = FlapSchedule { seed, cycles: 5, period_ms: 30, down_ms: 20 };
            let windows = flap.windows(100);
            assert_eq!(windows.len(), 5);
            for (i, &(sever, heal)) in windows.iter().enumerate() {
                assert_eq!(sever, 100 + i as u64 * 30);
                assert!(heal > sever, "zero-length window at seed {seed}");
                assert!(heal - sever <= 20, "down span beyond nominal at seed {seed}");
                assert!(heal - sever >= 10, "down span under half nominal at seed {seed}");
            }
            for pair in windows.windows(2) {
                assert!(pair[0].1 < pair[1].0, "windows overlap at seed {seed}: {windows:?}");
            }
            assert_eq!(flap.end_ms(100), windows.last().unwrap().1);
            assert_eq!(flap.windows(100), windows, "expansion must be deterministic");
        }
        // Degenerate inputs clamp instead of panicking or overlapping.
        let tight = FlapSchedule { seed: 3, cycles: 2, period_ms: 0, down_ms: 0 };
        let w = tight.windows(0);
        assert_eq!(w.len(), 2);
        assert!(w[0].1 < w[1].0, "{w:?}");
        assert_eq!(FlapSchedule { seed: 0, cycles: 0, period_ms: 10, down_ms: 5 }.end_ms(42), 42);
    }

    #[test]
    fn transient_faults_do_not_count_as_injected_failures() {
        let plan = FaultPlan::partition_link(NodeId(0), NodeId(1), 10, 90)
            .and(FaultPlan::corrupt_data(NodeId(2), CorruptTarget::AlgRecord { reduce_index: 0, seq: 3 }, 50))
            .and(FaultPlan::degraded_link(NodeId(0), NodeId(2), LinkDirection::Both, 0, 100, 2.0, 0.1))
            .and(FaultPlan::crash_node_at_ms(NodeId(3), 200));
        assert_eq!(plan.injected_count(), 1, "only the crash produces failures");
        let parts = plan.partition_windows();
        assert_eq!(
            parts,
            vec![PartitionWindow {
                a: NodeId(0),
                b: NodeId(1),
                direction: LinkDirection::Both,
                from_ms: 10,
                heal_ms: 90
            }]
        );
    }

    #[test]
    fn flapping_plan_expands_one_window_per_cycle() {
        let flap = FlapSchedule { seed: 11, cycles: 4, period_ms: 60, down_ms: 30 };
        let plan = FaultPlan::flapping_link(NodeId(1), NodeId(2), LinkDirection::AToB, 20, flap);
        let windows = plan.partition_windows();
        assert_eq!(windows.len(), 4);
        assert!(windows.iter().all(|w| w.direction == LinkDirection::AToB));
        assert_eq!(windows.last().unwrap().heal_ms, flap.end_ms(20));
        match &plan.faults[0] {
            Fault::PartitionLink { heal_ms, .. } => assert_eq!(*heal_ms, flap.end_ms(20)),
            other => panic!("unexpected fault {other:?}"),
        }
        assert_eq!(plan.injected_count(), 0, "a flapping partition is still transient");
    }

    fn change(a: u32, b: u32, direction: LinkDirection, op: LinkOp) -> LinkChange {
        LinkChange { a: NodeId(a), b: NodeId(b), direction, op }
    }

    /// The severed directed pairs among nodes 0..3.
    fn severed(links: &LinkState) -> Vec<(u32, u32)> {
        let pairs = (0..3).flat_map(|a| (0..3).map(move |b| (a, b)));
        pairs.filter(|&(a, b)| links.is_severed(NodeId(a), NodeId(b))).collect()
    }

    #[test]
    fn symmetric_sever_blocks_both_directions_and_is_idempotent() {
        let mut links = LinkState::default();
        assert!(!links.is_severed(NodeId(0), NodeId(1)));
        links.apply(&change(1, 0, LinkDirection::Both, LinkOp::Sever));
        let once = links.clone();
        links.apply(&change(0, 1, LinkDirection::Both, LinkOp::Sever)); // same link, either order
        assert_eq!(links, once, "severing a cut link changes nothing");
        assert_eq!(severed(&links), vec![(0, 1), (1, 0)], "one directed entry per direction");
        // A node always reaches itself.
        links.apply(&change(0, 0, LinkDirection::Both, LinkOp::Sever));
        assert!(!links.is_severed(NodeId(0), NodeId(0)));
        links.apply(&change(0, 1, LinkDirection::Both, LinkOp::Heal));
        assert_eq!(severed(&links), vec![]);
    }

    #[test]
    fn asymmetric_sever_leaves_the_reverse_direction_healthy() {
        let mut links = LinkState::default();
        links.apply(&change(0, 2, LinkDirection::AToB, LinkOp::Sever));
        assert!(links.is_severed(NodeId(0), NodeId(2)), "cut direction blocked");
        assert!(!links.is_severed(NodeId(2), NodeId(0)), "reverse path must stay healthy");
        assert_eq!(severed(&links), vec![(0, 2)]);
        // Healing only the reverse direction is a no-op on the cut one.
        let cut = links.clone();
        links.apply(&change(0, 2, LinkDirection::BToA, LinkOp::Heal));
        assert_eq!(links, cut);
        links.apply(&change(0, 2, LinkDirection::AToB, LinkOp::Heal));
        assert_eq!(links, LinkState::default(), "the heal removes what the sever cut");
        // BToA on (a, b) is the same directed entry as AToB on (b, a).
        links.apply(&change(2, 0, LinkDirection::BToA, LinkOp::Sever));
        assert_eq!(severed(&links), vec![(0, 2)]);
    }

    #[test]
    fn healing_a_healed_link_is_an_explicit_no_op() {
        let mut links = LinkState::default();
        // Never severed: the heal changes nothing.
        links.apply(&change(0, 1, LinkDirection::Both, LinkOp::Heal));
        assert_eq!(links, LinkState::default());
        links.apply(&change(0, 1, LinkDirection::Both, LinkOp::Sever));
        links.apply(&change(0, 1, LinkDirection::Both, LinkOp::Heal));
        assert_eq!(links, LinkState::default(), "the heal removes both directions");
        // Already healed: the second heal is a no-op, not an error or a
        // re-sever — repeated heal events from flap windows are harmless.
        links.apply(&change(0, 1, LinkDirection::Both, LinkOp::Heal));
        assert_eq!(links, LinkState::default());
        assert!(!links.is_severed(NodeId(0), NodeId(1)));
    }

    #[test]
    fn degraded_links_are_directed_and_clear_cleanly() {
        let mut links = LinkState::default();
        let degrade = |factor, loss| LinkOp::Degrade { factor, loss };
        assert_eq!(links.degradation(NodeId(0), NodeId(1)), None);
        links.apply(&change(0, 1, LinkDirection::AToB, degrade(3.0, 0.25)));
        assert_eq!(links.degradation(NodeId(0), NodeId(1)), Some((3.0, 0.25)));
        assert_eq!(links.degradation(NodeId(1), NodeId(0)), None, "reverse direction healthy");
        links.apply(&change(0, 0, LinkDirection::Both, degrade(3.0, 0.25)));
        assert_eq!(links.degradation(NodeId(0), NodeId(0)), None, "self-fetch never degraded");
        links.apply(&change(1, 2, LinkDirection::Both, degrade(2.0, 1.0)));
        assert_eq!(links.degradation(NodeId(1), NodeId(2)), Some((2.0, 1.0)));
        assert_eq!(links.degradation(NodeId(2), NodeId(1)), Some((2.0, 1.0)));
        links.apply(&change(0, 1, LinkDirection::AToB, LinkOp::ClearDegrade));
        links.apply(&change(1, 2, LinkDirection::Both, LinkOp::ClearDegrade));
        assert_eq!(links.degradation(NodeId(0), NodeId(1)), None);
        assert_eq!(links.degradation(NodeId(1), NodeId(2)), None);
        // Clearing a healthy link is a no-op; a degraded link is not cut.
        let before = links.clone();
        links.apply(&change(0, 2, LinkDirection::Both, LinkOp::ClearDegrade));
        assert_eq!(links, before);
        assert_eq!(severed(&links), vec![]);
    }

    #[test]
    fn progress_crashes_fire_on_progress_or_completion() {
        let plan = FaultPlan::crash_node_at_reduce_progress(NodeId(1), 0, 0.5)
            .and(FaultPlan::crash_node_at_reduce_progress(NodeId(2), 1, 2.0))
            .and(FaultPlan::crash_node_at_reduce_progress(NodeId(3), 0, 0.25));
        let mut timeline = plan.arm();
        assert_eq!(timeline.progress(|_| Some(0.2), |_| false), vec![]);
        assert_eq!(timeline.fire(u64::MAX), vec![], "progress crashes are not on the clock");
        // Plan order, not threshold order; an unknown progress fires nothing.
        let reduce_0 = |r: u32| (r == 0).then_some(0.6);
        assert_eq!(
            timeline.progress(reduce_0, |_| false),
            vec![Trigger::Crash(NodeId(1)), Trigger::Crash(NodeId(3))]
        );
        assert_eq!(timeline.progress(reduce_0, |_| false), vec![], "each fires once");
        // A completed reduce fires its crash whatever the threshold.
        assert_eq!(timeline.progress(|_| None, |r| r == 1), vec![Trigger::Crash(NodeId(2))]);
    }

    #[test]
    fn rot_fires_when_its_target_exists() {
        let mof = |map_index, partition| CorruptTarget::MofPartition { map_index, partition };
        let block = CorruptTarget::DfsBlock { reduce_index: 0, block: 1 };
        let plan = FaultPlan::corrupt_data(NodeId(0), mof(3, 1), 10)
            .and(FaultPlan::corrupt_data(NodeId(0), mof(4, 0), 10))
            .and(FaultPlan::corrupt_data(NodeId(1), block, 500))
            .and(FaultPlan::corrupt_data(NodeId(0), mof(3, 2), 50));
        let mut timeline = plan.arm();
        // A committing map takes only its own due rot.
        assert_eq!(timeline.fire_mof_rot(5, 3), Vec::<u32>::new());
        assert_eq!(timeline.fire_mof_rot(20, 3), vec![1]);
        assert_eq!(timeline.fire(20), vec![Trigger::Corrupt { node: NodeId(0), target: mof(4, 0) }]);
        // Handed back, it is offered again at every later firing.
        timeline.pend(NodeId(0), mof(4, 0));
        assert_eq!(timeline.fire(21), vec![Trigger::Corrupt { node: NodeId(0), target: mof(4, 0) }]);
        // The end of a run takes committed-output rot whether due or not,
        // and leaves the rest.
        assert_eq!(timeline.fire_output_rot(), vec![Trigger::Corrupt { node: NodeId(1), target: block }]);
        assert_eq!(timeline.fire(u64::MAX), vec![Trigger::Corrupt { node: NodeId(0), target: mof(3, 2) }]);
    }

    fn node() -> impl Strategy<Value = NodeId> {
        (0u32..4).prop_map(NodeId)
    }

    fn direction() -> impl Strategy<Value = LinkDirection> {
        (0usize..3).prop_map(|i| LinkDirection::ALL[i])
    }

    /// Any fault but a corruption; the property below plants its own.
    fn fault() -> impl Strategy<Value = Fault> {
        let link = || (node(), node(), direction(), 0u64..200, 0u64..200);
        prop_oneof![
            (node(), 0u64..200).prop_map(|(node, at_ms)| Fault::CrashNodeAtMs { node, at_ms }),
            (node(), 0u64..200, 0.0f64..4.0).prop_map(|(node, at_ms, factor)| Fault::SlowNode {
                node,
                at_ms,
                factor
            }),
            (node(), 0u32..3, 0.0f64..1.0).prop_map(|(node, reduce_index, at_progress)| {
                Fault::CrashNodeAtReduceProgress { node, reduce_index, at_progress }
            }),
            (link(), 0u32..4, 0u64..100).prop_map(|((a, b, direction, from_ms, heal_ms), cycles, seed)| {
                let flap = (cycles > 0).then_some(FlapSchedule { seed, cycles, period_ms: 30, down_ms: 20 });
                Fault::PartitionLink { a, b, direction, from_ms, heal_ms, flap }
            }),
            (link(), 1.0f64..3.0, 0.0f64..1.0).prop_map(
                |((a, b, direction, from_ms, heal_ms), factor, loss)| {
                    Fault::DegradedLink { a, b, direction, from_ms, heal_ms, factor, loss }
                }
            ),
        ]
    }

    /// Where each kind of trigger comes in a tick.
    fn rank(trigger: &Trigger) -> u8 {
        match trigger {
            Trigger::Link(_) => 0,
            Trigger::Corrupt { .. } => 1,
            Trigger::Crash(_) => 2,
            Trigger::Slow { .. } => 3,
        }
    }

    proptest! {
        /// Over arbitrary armed plans fired at arbitrary increasing ticks:
        /// each tick yields exactly the armed entries due since the last
        /// one, never earlier; the link state after each tick is the state
        /// one firing at that time reaches, so a heal never erases a later
        /// window's sever, and once everything is due every window has
        /// healed; and a pending corruption fires exactly once, on the
        /// first tick its applier accepts it.
        #[test]
        fn firing_in_steps_matches_firing_once(
            faults in proptest::collection::vec(fault(), 0..8),
            rots in proptest::collection::vec((node(), 0u64..200, 0usize..10), 0..4),
            ticks in proptest::collection::vec(0u64..260, 1..10),
        ) {
            let mut ticks = ticks;
            ticks.sort_unstable();
            ticks.push(u64::MAX);
            let rot = |j: usize| CorruptTarget::MofPartition { map_index: j as u32, partition: 0 };
            let mut plan = FaultPlan { faults };
            for (j, &(node, at_ms, _)) in rots.iter().enumerate() {
                plan.faults.push(Fault::CorruptData { node, target: rot(j), at_ms });
            }
            let armed = plan.arm();
            let mut timeline = armed.clone();
            let mut links = LinkState::default();
            let mut accepted = vec![None; rots.len()];
            let mut since = None;
            for (i, &now) in ticks.iter().enumerate() {
                let fired = timeline.fire(now);
                prop_assert!(fired.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])), "out of tick order: {fired:?}");
                let due = |at: u64| since.is_none_or(|s| s < at) && at <= now;
                let mut want: Vec<Trigger> =
                    armed.links.iter().filter(|l| due(l.0)).map(|&(_, c)| Trigger::Link(c)).collect();
                want.extend(armed.crashes.iter().filter(|c| due(c.0)).map(|&(_, n)| Trigger::Crash(n)));
                want.extend(
                    armed.slowdowns.iter().filter(|s| due(s.0)).map(|&(_, node, factor)| Trigger::Slow { node, factor }),
                );
                let got: Vec<Trigger> = fired.iter().filter(|t| rank(t) != 1).copied().collect();
                prop_assert_eq!(got, want, "tick {} at {} ms", i, now);

                let mut once = LinkState::default();
                for trigger in armed.clone().fire(now) {
                    if let Trigger::Link(c) = trigger {
                        once.apply(&c);
                    }
                }
                for trigger in fired {
                    match trigger {
                        Trigger::Link(c) => links.apply(&c),
                        Trigger::Corrupt { node, target } => {
                            let CorruptTarget::MofPartition { map_index: j, .. } = target else {
                                return Err(format!("unplanned rot {target:?}"));
                            };
                            let (j, (_, at_ms, ready)) = (j as usize, rots[j as usize]);
                            prop_assert!(at_ms <= now, "rot {} due at {} fired at {}", j, at_ms, now);
                            prop_assert!(accepted[j].is_none(), "rot {} fired again after it took", j);
                            if i >= ready {
                                accepted[j] = Some(i);
                            } else {
                                timeline.pend(node, target);
                            }
                        }
                        Trigger::Crash(_) | Trigger::Slow { .. } => {}
                    }
                }
                prop_assert_eq!(&links, &once, "tick {} at {} ms", i, now);
                since = Some(now);
            }
            prop_assert_eq!(links, LinkState::default(), "every window heals");
            for (j, &(_, at_ms, ready)) in rots.iter().enumerate() {
                let first = ticks.iter().enumerate().position(|(i, &now)| now >= at_ms && i >= ready);
                prop_assert_eq!(accepted[j], first, "rot {}", j);
            }
        }
    }
}
