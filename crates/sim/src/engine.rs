//! The simulation engine.
//!
//! One [`Simulation`] runs one job on the modelled cluster. Nodes expose
//! four equal-share resources (disk, NIC-in, NIC-out, CPU) plus one shared
//! uplink per rack; tasks are state machines whose phase transitions are
//! driven by flow completions and timers from the `alm-des` kernel. The
//! ApplicationMaster — attempt books, run queues, placement and recovery
//! policy — is the *same code* the threaded runtime uses (`alm_core::Am`),
//! so the amplification dynamics emerge from mechanism, not curve fitting:
//!
//! * baseline reducers hammer fetch retries against lost MOFs, fail with
//!   `FetchFailureLimit`, and only once a reducer is preempted does the AM
//!   re-execute the maps it was stuck on — temporal + spatial amplification;
//! * ALM marks lost MOFs as regenerating (reducers wait), relaunches maps
//!   at high priority, resumes reducers from logged progress, and migrates
//!   with in-memory fast collective merging.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use alm_core::fetch::{Outcome, Step};
use alm_core::{Am, Command, ExecMode, FetchCore, MapSet, Slots};
use alm_des::{EventQueue, EventToken, FlowId, FlowPool, SimDuration, SimTime};
use alm_types::{
    rack_of, AttemptId, CorruptTarget, FailureKind, FaultPlan, FaultTimeline, JobId, LinkChange, LinkOp,
    LinkState, NodeId, ReducePhase, ReplicationLevel, TaskId, TaskKind, Trigger,
};

use crate::quantities::Quantities;
use crate::spec::{ExperimentEnv, SimJobSpec};
use crate::trace::SimReport;

/// Hadoop's `mapreduce.reduce.shuffle.parallelcopies`.
const MAX_PARALLEL_FETCHES: usize = 5;
/// Spill granularity during shuffle.
const SPILL_FLOW_BYTES: u64 = 256 << 20;
/// Progress-sampling / trigger-checking cadence.
const SAMPLE_EVERY_NS: u64 = 1_000_000_000;
/// FCM synchronisation overhead before the pipeline starts (§V-B notes the
/// extra coordination cost of FCM).
const FCM_SYNC_SECS: f64 = 1.5;
/// §IV-A.1: an FCM attempt stops waiting for MOFs, and its participants
/// dismantle their Local-MPQs, after this long without progress.
const FCM_TEARDOWN_MS: u64 = 60_000;
/// Hard cap on simulated events (runaway guard).
const MAX_EVENTS: u64 = 50_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolRef {
    Disk(u32),
    NicIn(u32),
    NicOut(u32),
    Uplink(u32),
}

#[derive(Debug, Clone)]
enum Ev {
    PoolWake(PoolRef),
    LaunchDone(AttemptId),
    FetchRetry { attempt: AttemptId, map: u32 },
    CpuDone { attempt: AttemptId, gen: u32 },
    FcmWaitTimeout { attempt: AttemptId, gen: u32 },
    DetectNode(u32),
    FcmStart(AttemptId),
    Sample,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Purpose {
    MapRead,
    MapWrite,
    /// Stage 1 of a fetch: the source node's disk serves the chunk.
    FetchRead {
        map: u32,
        source: u32,
    },
    /// Stage 2 of a fetch: the chunk crosses the network.
    Fetch {
        map: u32,
        source: u32,
    },
    Spill,
    MergePass,
    ReduceRead,
    Output,
    FcmLocal {
        source: u32,
    },
    FcmNet {
        source: u32,
    },
}

struct FlowInfo {
    attempt: AttemptId,
    purpose: Purpose,
    pool: PoolRef,
}

struct SimNode {
    alive: bool,
    rack: u32,
    /// Compute-slowdown factor (1.0 = healthy). Raised by an activated
    /// timeline slowdown; scales CPU phases started afterwards.
    slow: f64,
}

struct MapTask {
    /// Whether the task has EVER completed (regeneration reopens it in the
    /// AM but does not reset this) — drives first-wave accounting.
    ever_completed: bool,
}

#[derive(Debug)]
struct MapAtt {
    node: u32,
    phase: MapPhase,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MapPhase {
    Launching,
    Reading,
    Cpu,
    Writing,
}

impl MapPhase {
    /// The progress a map kill trigger compares against.
    fn progress(self) -> f64 {
        match self {
            MapPhase::Launching => 0.0,
            MapPhase::Reading => 0.15,
            MapPhase::Cpu => 0.5,
            MapPhase::Writing => 0.85,
        }
    }
}

struct RedTask {
    /// Last ALG-logged snapshot (None until first log).
    logged: Option<LoggedState>,
    /// The snapshot before `logged` — what recovery falls back to when the
    /// newest record rots on disk (checksummed truncation loses at most
    /// one logging interval).
    logged_prev: Option<LoggedState>,
}

#[derive(Debug, Clone)]
struct LoggedState {
    node: u32,
    fetched: MapSet,
    merge_done: bool,
    /// Fraction of reduce-stage work whose results are durable on the DFS.
    reduce_frac: f64,
}

#[derive(Debug)]
struct RedAtt {
    node: u32,
    mode: ExecMode,
    phase: RedPhase,
    /// What is left to fetch, and every decision about it.
    fetch: FetchCore,
    fetched: MapSet,
    /// The attempt's own flows, in FlowId order (ids are pushed as
    /// allocated): in the shuffle its fetches in flight, at most
    /// `MAX_PARALLEL_FETCHES`; later its merge, reduce or FCM flows.
    flows: Vec<FlowId>,
    spill_debt: u64,
    spill_emitted: u64,
    spill_outstanding: usize,
    merge_rounds_left: u32,
    /// Fraction of reduce-stage work skipped thanks to ALG logs.
    resume_reduce_frac: f64,
    /// Total CPU seconds of the reduce stage (reduce fn + deserialization).
    reduce_cpu_secs: f64,
    /// CPU timer of the current reduce/FCM phase.
    cpu_done: bool,
    cpu_start: f64,
    cpu_dur: f64,
    /// Phase generation: stale CPU timers from an interrupted phase are
    /// ignored by comparing this.
    gen: u32,
    last_log_secs: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RedPhase {
    Launching,
    Shuffle,
    Merge,
    Reduce,
    FcmWait,
    Fcm,
}

/// Live attempts of one job's tasks of one kind, indexed by task index,
/// then attempt number. That is `AttemptId` order, so iteration is in key
/// order, which the engine's event order depends on; a lookup is two
/// indexings.
struct AttemptTable<T> {
    job: JobId,
    kind: TaskKind,
    tasks: Vec<Vec<Option<T>>>,
}

impl<T> AttemptTable<T> {
    fn new(job: JobId, kind: TaskKind) -> AttemptTable<T> {
        AttemptTable { job, kind, tasks: Vec::new() }
    }

    /// `(task index, attempt number)` of `id`, which must belong here.
    fn slot(&self, id: &AttemptId) -> (usize, usize) {
        debug_assert!(id.task.job == self.job && id.task.kind == self.kind, "{id} belongs to another table");
        (id.task.index as usize, id.number as usize)
    }

    fn get(&self, id: &AttemptId) -> Option<&T> {
        let (task, number) = self.slot(id);
        self.tasks.get(task)?.get(number)?.as_ref()
    }

    fn get_mut(&mut self, id: &AttemptId) -> Option<&mut T> {
        let (task, number) = self.slot(id);
        self.tasks.get_mut(task)?.get_mut(number)?.as_mut()
    }

    fn insert(&mut self, id: AttemptId, attempt: T) {
        let (task, number) = self.slot(&id);
        if self.tasks.len() <= task {
            self.tasks.resize_with(task + 1, Vec::new);
        }
        let attempts = &mut self.tasks[task];
        if attempts.len() <= number {
            attempts.resize_with(number + 1, || None);
        }
        attempts[number] = Some(attempt);
    }

    fn remove(&mut self, id: &AttemptId) -> Option<T> {
        let (task, number) = self.slot(id);
        self.tasks.get_mut(task)?.get_mut(number)?.take()
    }

    /// Live attempts in `AttemptId` order.
    fn iter(&self) -> impl Iterator<Item = (AttemptId, &T)> + '_ {
        self.tasks.iter().zip(0..).flat_map(move |(attempts, index)| {
            let task = TaskId { job: self.job, kind: self.kind, index };
            attempts.iter().zip(0..).filter_map(move |(a, number)| Some((task.attempt(number), a.as_ref()?)))
        })
    }
}

/// Live flows by `FlowId`. The window allocates the ids, monotonically,
/// and keeps one slot per id from the oldest live flow on: `push` appends,
/// `remove` empties a slot and trims empty slots off the front, so it never
/// holds a slot per id ever allocated (a paper-scale job allocates tens of
/// thousands). Iteration is in `FlowId` order, which crash handling's
/// event order depends on.
#[derive(Default)]
struct FlowWindow {
    /// The id of `slots[0]`.
    front: u64,
    slots: VecDeque<Option<FlowInfo>>,
}

impl FlowWindow {
    /// Register a flow under the next id.
    fn push(&mut self, info: FlowInfo) -> FlowId {
        self.slots.push_back(Some(info));
        FlowId(self.front + self.slots.len() as u64 - 1)
    }

    fn remove(&mut self, id: FlowId) -> Option<FlowInfo> {
        let slot = usize::try_from(id.0.checked_sub(self.front)?).ok()?;
        let info = self.slots.get_mut(slot)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.front += 1;
        }
        Some(info)
    }

    /// Live flows in `FlowId` order.
    fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowInfo)> + '_ {
        self.slots.iter().zip(self.front..).filter_map(|(info, id)| Some((FlowId(id), info.as_ref()?)))
    }
}

/// One simulated job run.
pub struct Simulation {
    q: EventQueue<Ev>,
    /// Every pool with its pending wake-up, at `pool_slot(PoolRef)`.
    pools: Vec<(FlowPool, Option<EventToken>)>,
    flows: FlowWindow,
    nodes: Vec<SimNode>,
    env: ExperimentEnv,
    qty: Quantities,
    maps: Vec<MapTask>,
    reduces: Vec<RedTask>,
    am: Am,
    /// `dispatch`'s command buffer, kept to reuse.
    commands: Vec<Command>,
    map_atts: AttemptTable<MapAtt>,
    red_atts: AttemptTable<RedAtt>,
    /// Per map index: the node holding its registered MOF, if any.
    mof_loc: Vec<Option<u32>>,
    reduces_dispatched: bool,
    maps_done_once: u32,
    /// The armed plan, fired by `sample`. Its kills are those of attempt
    /// 0 of in-range tasks; an entry stays after it fires, but its attempt
    /// has left the tables by then, so it fires once.
    faults: FaultTimeline,
    /// Which links are cut or degraded.
    links: LinkState,
    /// Armed MOF rot: `(map_index, reduce partition)` whose next arriving
    /// chunk fails checksum validation. Consumed on observation (the
    /// high-priority regeneration rewrites clean bytes).
    corrupt_mofs: BTreeSet<(u32, u32)>,
    /// Armed committed-output rot: `(reduce_index, block)` whose verified
    /// read will detect a rotten replica, fail over, and re-replicate —
    /// settled into the DFS counters at end of run, mirroring the chaos
    /// harness's post-job verification read + `repair()` on the runtime.
    corrupt_dfs_blocks: BTreeSet<(u32, u32)>,
    /// Chain-layer memory mode: completed maps keep their MOF resident in
    /// RAM on the producing node, so fetches skip the Stage-1 disk read.
    mem_resident: bool,
    /// Map indices whose MOF is currently resident (on `mof_loc[m]`).
    resident_mofs: MapSet,
    seed: u64,
    report: SimReport,
    failed: bool,
    job: JobId,
}

impl Simulation {
    /// Arm `faults` through [`FaultPlan::arm`] on a fresh run of `spec`.
    /// The timeline's milliseconds are virtual milliseconds. A kill of an
    /// attempt other than 0 has no simulator equivalent (the kill triggers
    /// fire once, on the first attempt) and arms nothing.
    pub fn new(spec: SimJobSpec, env: ExperimentEnv, faults: FaultPlan) -> Simulation {
        let model = spec.workload.model();
        let seed = spec.seed;
        let qty = Quantities::derive(&spec, &model, &env.yarn);
        let workers = env.cluster.worker_nodes();
        let racks = env.cluster.racks.max(1);
        let nodes: Vec<SimNode> =
            (0..workers).map(|n| SimNode { alive: true, rack: rack_of(n, racks), slow: 1.0 }).collect();
        // Layout must match `pool_slot`.
        let mut pools = Vec::new();
        for _ in 0..workers {
            pools.push((FlowPool::new(env.cluster.disk_read_bandwidth), None));
            pools.push((FlowPool::new(env.cluster.nic_bandwidth), None));
            pools.push((FlowPool::new(env.cluster.nic_bandwidth), None));
        }
        for _ in 0..racks {
            pools.push((FlowPool::new(env.cluster.rack_uplink_bandwidth), None));
        }

        let maps: Vec<MapTask> = (0..qty.num_maps).map(|_| MapTask { ever_completed: false }).collect();
        let reduces: Vec<RedTask> =
            (0..qty.num_reduces).map(|_| RedTask { logged: None, logged_prev: None }).collect();
        let slots = Slots { map: env.cluster.map_slots_per_node, reduce: env.cluster.reduce_slots_per_node };
        let am = Am::new(&env.alm, &env.yarn, qty.num_maps, qty.num_reduces, workers, slots);

        let mut faults = faults.arm();
        faults.kills.retain(|attempt, _| {
            let tasks = if attempt.task.is_reduce() { qty.num_reduces } else { qty.num_maps };
            attempt.number == 0 && attempt.task.index < tasks
        });

        let num_maps = qty.num_maps as usize;
        let resident_mofs = MapSet::empty(qty.num_maps);
        let job = JobId(0);
        Simulation {
            q: EventQueue::new(),
            pools,
            flows: FlowWindow::default(),
            nodes,
            env,
            qty,
            maps,
            reduces,
            am,
            commands: Vec::new(),
            map_atts: AttemptTable::new(job, TaskKind::Map),
            red_atts: AttemptTable::new(job, TaskKind::Reduce),
            mof_loc: vec![None; num_maps],
            reduces_dispatched: false,
            maps_done_once: 0,
            faults,
            links: LinkState::default(),
            corrupt_mofs: BTreeSet::new(),
            corrupt_dfs_blocks: BTreeSet::new(),
            mem_resident: false,
            resident_mofs,
            seed,
            report: SimReport::default(),
            failed: false,
            job,
        }
    }

    /// Chain-layer memory mode: keep every completed map's MOF resident in
    /// RAM on its producing node. Fetches from a live source then skip the
    /// Stage-1 disk read (memory-speed shuffle); a node crash wipes the
    /// node's resident copies, after which fetches fall back to the normal
    /// disk / regeneration paths.
    pub fn with_resident_mofs(mut self) -> Simulation {
        self.mem_resident = true;
        self
    }

    fn now_secs(&self) -> f64 {
        self.q.now().as_secs_f64()
    }

    /// The AM's clock.
    fn now_ns(&self) -> u64 {
        self.q.now().as_nanos()
    }

    fn reduce_done(&self, r: u32) -> bool {
        self.am.is_complete(TaskId::reduce(self.job, r))
    }

    /// The reduce attempts and, borrowed apart so that a fetch core can ask
    /// it while its attempt is borrowed, what a reducer on `node` meets when
    /// it asks for map `m`'s partition (`loss` counts only where a transfer
    /// ends, in `fetch_flow_done`). A link is cut in one direction, and a
    /// node always reaches itself.
    fn fetch_view(&mut self) -> (&mut AttemptTable<RedAtt>, impl Fn(u32, u32) -> Outcome + Copy + '_) {
        let (mof_loc, nodes, links, am, job) = (&self.mof_loc, &self.nodes, &self.links, &self.am, self.job);
        let outcome = move |node: u32, m: u32| {
            let Some(src) = mof_loc[m as usize] else { return Outcome::NotReady };
            let source = NodeId(src);
            if !nodes[src as usize].alive {
                let regenerating = am.is_regenerating(TaskId::map(job, m));
                return if regenerating {
                    Outcome::NotReady
                } else {
                    Outcome::Refused { source, source_dead: true }
                };
            }
            // A source behind a cut link still heartbeats: the fetch parks
            // at no charge, and the heal event re-pumps us.
            if links.is_severed(NodeId(node), source) {
                Outcome::Refused { source, source_dead: false }
            } else {
                Outcome::Data { source, loss: 0.0 }
            }
        };
        (&mut self.red_atts, outcome)
    }

    // ---------------- pools and flows ----------------

    /// Index of `p` in `pools`: three pools per worker, then one uplink per
    /// rack.
    fn pool_slot(&self, p: PoolRef) -> usize {
        match p {
            PoolRef::Disk(n) => 3 * n as usize,
            PoolRef::NicIn(n) => 3 * n as usize + 1,
            PoolRef::NicOut(n) => 3 * n as usize + 2,
            PoolRef::Uplink(r) => 3 * self.nodes.len() + r as usize,
        }
    }

    fn reschedule_pool(&mut self, p: PoolRef) {
        let slot = self.pool_slot(p);
        let (pool, wake) = &mut self.pools[slot];
        let Some((_, when)) = pool.next_completion() else {
            if let Some(tok) = wake.take() {
                self.q.cancel(tok);
            }
            return;
        };
        match *wake {
            Some(tok) if self.q.reschedule(tok, when) => {}
            _ => *wake = Some(self.q.schedule_at(when, Ev::PoolWake(p))),
        }
    }

    fn start_flow(&mut self, p: PoolRef, bytes: u64, attempt: AttemptId, purpose: Purpose) -> FlowId {
        let id = self.flows.push(FlowInfo { attempt, purpose, pool: p });
        let now = self.q.now();
        let slot = self.pool_slot(p);
        let (pool, _) = &mut self.pools[slot];
        pool.advance_to(now);
        pool.add(id, bytes);
        self.reschedule_pool(p);
        if matches!(p, PoolRef::Uplink(_)) {
            self.report.uplink_bytes += bytes;
        }
        id
    }

    /// Abort a flow, returning its remaining bytes (None if unknown).
    fn abort_flow(&mut self, id: FlowId) -> Option<u64> {
        let info = self.flows.remove(id)?;
        let now = self.q.now();
        let slot = self.pool_slot(info.pool);
        let (pool, _) = &mut self.pools[slot];
        pool.advance_to(now);
        let remaining = pool.remove(id);
        self.reschedule_pool(info.pool);
        remaining
    }

    fn pool_wake(&mut self, p: PoolRef) {
        let now = self.q.now();
        let slot = self.pool_slot(p);
        let (pool, wake) = &mut self.pools[slot];
        *wake = None;
        pool.advance_to(now);
        let done = pool.drain_completed();
        for id in done {
            if let Some(info) = self.flows.remove(id) {
                self.flow_done(id, info);
            }
        }
        self.reschedule_pool(p);
    }

    // ---------------- scheduling ----------------

    /// Ask the AM what to do, and do it: cancel, fail the job, or start
    /// an attempt where the AM placed it.
    fn dispatch(&mut self) {
        let mut commands = std::mem::take(&mut self.commands);
        self.am.dispatch(self.now_ns(), &mut commands);
        for command in commands.drain(..) {
            match command {
                Command::Launch { attempt, node, mode } => {
                    if attempt.task.is_map() {
                        self.launch_map(attempt, node.0);
                    } else {
                        self.launch_reduce(attempt, node.0, mode);
                    }
                }
                Command::Cancel(attempt) => {
                    self.kill_attempt_silently(attempt);
                }
                Command::JobFailed => self.failed = true,
            }
        }
        self.commands = commands;
    }

    fn launch_map(&mut self, attempt: AttemptId, node: u32) {
        self.map_atts.insert(attempt, MapAtt { node, phase: MapPhase::Launching });
        let d = SimDuration::from_ms(self.env.cluster.container_launch_ms);
        self.q.schedule_after(d, Ev::LaunchDone(attempt));
    }

    fn launch_reduce(&mut self, attempt: AttemptId, node: u32, mode: ExecMode) {
        let task = attempt.task;
        // Recovery state from logs, if any and usable from `node`.
        let logs = self.env.alm.mode.logs_enabled();
        let logged = self.reduces[task.index as usize].logged.clone();
        let n = self.qty.num_maps;
        let (fetched, merge_done, resume_frac) = match (logs, logged) {
            // Local resume: shuffle/merge state on the local store plus
            // DFS reduce-stage progress.
            (true, Some(l)) if l.node == node => (l.fetched, l.merge_done, l.reduce_frac),
            // Migrated: only the DFS-held reduce-stage progress.
            (true, Some(l)) => (MapSet::empty(n), false, l.reduce_frac),
            _ => (MapSet::empty(n), false, 0.0),
        };
        let mut pending = MapSet::full(n);
        fetched.iter().for_each(|m| _ = pending.remove(m));
        let per_ms = SimDuration::from_ms(1).as_nanos();
        let fetch = FetchCore::new(attempt, self.seed, alm_des::rng::below, &self.env.yarn, per_ms, pending);

        let reduce_cpu_secs = self.qty.reduce_cpu_secs + self.qty.reduce_deser_secs;
        self.red_atts.insert(
            attempt,
            RedAtt {
                node,
                mode,
                phase: RedPhase::Launching,
                fetch,
                fetched,
                flows: Vec::new(),
                spill_debt: 0,
                spill_emitted: 0,
                spill_outstanding: 0,
                merge_rounds_left: if merge_done { 0 } else { self.qty.merge_rounds },
                resume_reduce_frac: resume_frac,
                reduce_cpu_secs,
                cpu_done: false,
                cpu_start: 0.0,
                cpu_dur: 0.0,
                gen: 0,
                last_log_secs: self.now_secs(),
            },
        );
        let d = SimDuration::from_ms(self.env.cluster.container_launch_ms);
        self.q.schedule_after(d, Ev::LaunchDone(attempt));
    }

    // ---------------- map lifecycle ----------------

    fn map_launch_done(&mut self, attempt: AttemptId) {
        let Some(att) = self.map_atts.get_mut(&attempt) else { return };
        att.phase = MapPhase::Reading;
        let node = att.node;
        let bytes = self.qty.split_bytes;
        self.start_flow(PoolRef::Disk(node), bytes, attempt, Purpose::MapRead);
    }

    fn map_flow_done(&mut self, attempt: AttemptId, purpose: Purpose) {
        let Some(att) = self.map_atts.get_mut(&attempt) else { return };
        match purpose {
            Purpose::MapRead => {
                att.phase = MapPhase::Cpu;
                let slow = self.nodes[att.node as usize].slow;
                let d = SimDuration::from_secs_f64((self.qty.map_cpu_secs * slow).max(1e-6));
                self.q.schedule_after(d, Ev::CpuDone { attempt, gen: 0 });
            }
            Purpose::MapWrite => self.map_completed(attempt),
            _ => unreachable!("map flows only"),
        }
    }

    fn map_cpu_done(&mut self, attempt: AttemptId) {
        let Some(att) = self.map_atts.get_mut(&attempt) else { return };
        if att.phase != MapPhase::Cpu {
            return;
        }
        att.phase = MapPhase::Writing;
        let node = att.node;
        let bytes = self.qty.map_out_bytes;
        self.start_flow(PoolRef::Disk(node), bytes, attempt, Purpose::MapWrite);
    }

    fn red_cpu_done(&mut self, attempt: AttemptId, gen: u32) {
        let finished = {
            let Some(att) = self.red_atts.get_mut(&attempt) else { return };
            if att.gen != gen || !matches!(att.phase, RedPhase::Reduce | RedPhase::Fcm) {
                return;
            }
            att.cpu_done = true;
            att.flows.is_empty()
        };
        if finished {
            self.reduce_completed(attempt);
        }
    }

    /// Start the reduce-stage CPU timer for the un-resumed fraction.
    fn start_reduce_cpu(&mut self, attempt: AttemptId, frac: f64) {
        let (gen, dur) = {
            let slow = {
                let node = self.red_atts.get(&attempt).expect("attempt exists").node;
                self.nodes[node as usize].slow
            };
            let att = self.red_atts.get_mut(&attempt).expect("attempt exists");
            att.cpu_done = false;
            att.cpu_start = self.q.now().as_secs_f64();
            att.cpu_dur = (att.reduce_cpu_secs * frac * slow).max(1e-6);
            (att.gen, att.cpu_dur)
        };
        self.q.schedule_after(SimDuration::from_secs_f64(dur), Ev::CpuDone { attempt, gen });
    }

    fn map_completed(&mut self, attempt: AttemptId) {
        let att = self.map_atts.remove(&attempt).expect("attempt exists");
        // A map's siblings run on: each copy registers its MOF as it ends.
        self.am.complete(self.now_ns(), attempt);
        let task = &mut self.maps[attempt.task.index as usize];
        let first = !task.ever_completed;
        task.ever_completed = true;
        self.mof_loc[attempt.task.index as usize] = Some(att.node);
        if self.mem_resident {
            self.resident_mofs.insert(attempt.task.index);
        }
        if first {
            self.maps_done_once += 1;
            if self.maps_done_once == self.qty.num_maps {
                self.report.map_phase_secs = self.now_secs();
            }
        }
        // Wake reducers waiting on this MOF.
        let m = attempt.task.index;
        let waiting: Vec<AttemptId> = self
            .red_atts
            .iter()
            .filter(|(_, a)| {
                (a.phase == RedPhase::Shuffle && a.fetch.is_pending(m)) || a.phase == RedPhase::FcmWait
            })
            .map(|(id, _)| id)
            .collect();
        for r in waiting {
            match self.red_atts.get(&r).expect("waiting attempt exists").phase {
                RedPhase::Shuffle => self.pump_fetches(r),
                RedPhase::FcmWait => self.try_start_fcm(r),
                _ => {}
            }
        }
        self.launch_reduces_if_due();
        self.dispatch();
    }

    fn launch_reduces_if_due(&mut self) {
        if self.reduces_dispatched {
            return;
        }
        let wave = (self.nodes.len() as u32 * self.env.cluster.map_slots_per_node).min(self.qty.num_maps);
        if self.maps_done_once >= wave {
            self.reduces_dispatched = true;
            for r in 0..self.qty.num_reduces {
                self.am.submit(TaskId::reduce(self.job, r));
            }
            self.dispatch();
        }
    }

    // ---------------- reduce lifecycle ----------------

    fn red_launch_done(&mut self, attempt: AttemptId) {
        let Some(att) = self.red_atts.get_mut(&attempt) else { return };
        match att.mode {
            ExecMode::Regular => {
                att.phase = RedPhase::Shuffle;
                if att.fetch.is_done() {
                    self.maybe_finish_shuffle(attempt);
                } else {
                    self.pump_fetches(attempt);
                }
            }
            ExecMode::Fcm => {
                att.phase = RedPhase::FcmWait;
                let gen = att.gen;
                // Give up waiting for MOFs after the FCM teardown window:
                // the AM then re-executes the missing maps and retries.
                let d = SimDuration::from_ms(FCM_TEARDOWN_MS);
                self.q.schedule_after(d, Ev::FcmWaitTimeout { attempt, gen });
                self.try_start_fcm(attempt);
            }
        }
    }

    /// Ask the sources of ready maps in map order, starting transfers up to
    /// the parallelism limit.
    fn pump_fetches(&mut self, attempt: AttemptId) {
        let mut after = None;
        loop {
            let now = self.now_ns();
            let (red_atts, outcome) = self.fetch_view();
            let Some(att) = red_atts.get_mut(&attempt) else { return };
            if att.phase != RedPhase::Shuffle || att.flows.len() >= MAX_PARALLEL_FETCHES {
                return;
            }
            let node = att.node;
            let Some(step) = att.fetch.pump(now, &mut after, |m| outcome(node, m)) else {
                self.maybe_finish_shuffle(attempt);
                return;
            };
            self.fetch_step(attempt, step);
        }
    }

    /// Tell `attempt`'s fetch core what its reducer saw of map `m`, and do
    /// what it decides.
    fn observe(&mut self, attempt: AttemptId, m: u32, outcome: Outcome) {
        let now = self.now_ns();
        let step =
            self.red_atts.get_mut(&attempt).expect("observing attempt exists").fetch.observe(now, m, outcome);
        self.fetch_step(attempt, step);
    }

    /// Do what `attempt`'s fetch core decided.
    fn fetch_step(&mut self, attempt: AttemptId, step: Step) {
        match step {
            Step::Fetch { map, source } => {
                // A MOF resident in the source's RAM skips the Stage-1 disk
                // read, which makes shuffles lag map completions (leaving
                // un-fetched MOFs for a crash to strand — §II-C); this is
                // what the chain layer buys.
                let flow = if self.resident_mofs.contains(map) {
                    self.report.run.counters.resident_fetch_hits += 1;
                    let node = self.red_atts.get(&attempt).expect("fetching attempt exists").node;
                    self.start_transfer(attempt, node, map, source.0)
                } else {
                    let read = Purpose::FetchRead { map, source: source.0 };
                    self.start_flow(PoolRef::Disk(source.0), self.qty.chunk_bytes, attempt, read)
                };
                self.red_atts.get_mut(&attempt).expect("attempt exists").flows.push(flow);
            }
            Step::Keep { map } => {
                let att = self.red_atts.get_mut(&attempt).expect("attempt exists");
                att.fetched.insert(map);
                // Spill accounting: beyond the resident budget, fetched
                // bytes belong on disk.
                let total_fetched = att.fetched.len() as u64 * self.qty.chunk_bytes;
                let resident = (self.qty.mem_budget as f64 * self.env.yarn.merge_spill_fraction) as u64;
                att.spill_debt = total_fetched.saturating_sub(resident).min(self.qty.spilled_bytes);
                self.start_due_spills(attempt);
                self.pump_fetches(attempt);
            }
            Step::Dropped { .. } => {
                self.report.run.counters.degraded_drops += 1;
                self.pump_fetches(attempt);
            }
            Step::Wait => {}
            Step::BackOff { map, source, until } => {
                if self.report_fetch_failure(attempt, map, source) {
                    self.q.schedule_at(SimTime::from_nanos(until), Ev::FetchRetry { attempt, map });
                }
            }
            Step::ReportCorruption { map, .. } => {
                // The AM regenerates the map at high priority; its
                // completion re-pumps the parked fetch against clean bytes.
                self.corrupt_mofs.remove(&(map, attempt.task.index));
                self.report.run.counters.corruption_refetches += 1;
                if self.am.regenerate(TaskId::map(self.job, map), true) {
                    self.mof_loc[map as usize] = None; // unregistered until regenerated
                    self.dispatch();
                }
            }
            Step::FetchFailureLimit { map, source } => {
                if !self.report_fetch_failure(attempt, map, source) {
                    return;
                }
                // The reducer is preempted as faulty. Only now does
                // baseline YARN learn which MOFs are gone ("YARN relies on
                // running ReduceTasks to detect the lost MOFs", §II-C): the
                // maps this attempt was stuck on are finally re-executed.
                if !self.env.alm.mode.sfm_enabled() {
                    let att = self.red_atts.get(&attempt).expect("attempt exists");
                    let stuck: Vec<u32> = att
                        .fetch
                        .backing_off()
                        .filter(|&m| self.mof_loc[m as usize].is_some_and(|s| !self.nodes[s as usize].alive))
                        .collect();
                    for m in stuck {
                        self.am.regenerate(TaskId::map(self.job, m), false);
                    }
                }
                self.fail_attempt(attempt, FailureKind::FetchFailureLimit);
                self.dispatch();
            }
            Step::TaskTimeout => self.fail_attempt(attempt, FailureKind::TaskTimeout),
        }
    }

    /// Report a failed fetch of `map` from `source` to the AM. SFM knows
    /// the cause and regenerates at high priority, and the reducer waits
    /// (no retry treadmill, no preemption). Whether `attempt` still runs.
    fn report_fetch_failure(&mut self, attempt: AttemptId, map: u32, source: NodeId) -> bool {
        if self.am.fetch_failed(TaskId::map(self.job, map), source) {
            self.dispatch();
        }
        self.red_atts.get(&attempt).is_some()
    }

    /// Stage 2 of a fetch: the chunk of `map` crosses the network from
    /// `src` to `node`.
    fn start_transfer(&mut self, attempt: AttemptId, node: u32, map: u32, src: u32) -> FlowId {
        let dst_rack = self.nodes[node as usize].rack;
        let src_rack = self.nodes[src as usize].rack;
        let pool = if src_rack != dst_rack { PoolRef::Uplink(dst_rack) } else { PoolRef::NicIn(node) };
        // A gray-degraded fetcher → source direction stretches the transfer
        // by its factor (flow bytes scale; spill accounting keys off
        // `fetched.len()`, so the stretch never inflates spills).
        let bytes = match self.links.degradation(NodeId(node), NodeId(src)) {
            Some((factor, _)) if factor > 1.0 => (self.qty.chunk_bytes as f64 * factor) as u64,
            _ => self.qty.chunk_bytes,
        };
        self.start_flow(pool, bytes, attempt, Purpose::Fetch { map, source: src })
    }

    /// A fetch flow of `attempt` ended: its node, while it runs.
    fn fetch_flow_ended(&mut self, attempt: AttemptId, flow: FlowId) -> Option<u32> {
        let att = self.red_atts.get_mut(&attempt)?;
        att.flows.retain(|&f| f != flow);
        Some(att.node)
    }

    /// Stage 1 done: move the chunk onto the network.
    fn fetch_read_done(&mut self, attempt: AttemptId, flow: FlowId, m: u32, src: u32) {
        let Some(node) = self.fetch_flow_ended(attempt, flow) else { return };
        let net = self.start_transfer(attempt, node, m, src);
        self.red_atts.get_mut(&attempt).expect("attempt exists").flows.push(net);
    }

    /// A back-off ended: ask `m`'s source again. A live source re-pumps.
    fn fetch_retry(&mut self, attempt: AttemptId, m: u32) {
        let Some(att) = self.red_atts.get(&attempt) else { return };
        if att.phase != RedPhase::Shuffle || !att.fetch.is_pending(m) {
            return;
        }
        let node = att.node;
        let outcome = self.fetch_view().1(node, m);
        self.observe(attempt, m, outcome);
        if matches!(outcome, Outcome::Data { .. } | Outcome::Refused { source_dead: false, .. }) {
            self.pump_fetches(attempt);
        }
    }

    /// Stage 2 done: the chunk arrived. An armed corruption of this MOF
    /// partition fails the frame check, unless the copy is resident: it
    /// was CRC-framed into RAM before the rot landed on disk (as the
    /// runtime fetcher consults the resident cache before the disk).
    fn fetch_flow_done(&mut self, attempt: AttemptId, flow: FlowId, m: u32, src: u32) {
        let Some(node) = self.fetch_flow_ended(attempt, flow) else { return };
        let source = NodeId(src);
        let loss = self.links.degradation(NodeId(node), source).map_or(0.0, |(_, loss)| loss);
        let outcome =
            if self.corrupt_mofs.contains(&(m, attempt.task.index)) && !self.resident_mofs.contains(m) {
                Outcome::Corrupt { source, generation: 0, loss }
            } else {
                Outcome::Data { source, loss }
            };
        self.observe(attempt, m, outcome);
    }

    /// Emit disk flows for any spill debt not yet covered, in
    /// `SPILL_FLOW_BYTES` chunks (the background in-memory merger's flushes).
    fn start_due_spills(&mut self, attempt: AttemptId) {
        loop {
            let (node, chunk) = {
                let Some(att) = self.red_atts.get_mut(&attempt) else { return };
                if att.spill_debt <= att.spill_emitted {
                    return;
                }
                let chunk = (att.spill_debt - att.spill_emitted).min(SPILL_FLOW_BYTES);
                // Flush only full chunks mid-shuffle; the remainder flushes
                // when the shuffle finishes.
                if chunk < SPILL_FLOW_BYTES && !att.fetch.is_done() {
                    return;
                }
                att.spill_emitted += chunk;
                att.spill_outstanding += 1;
                (att.node, chunk)
            };
            self.start_flow(PoolRef::Disk(node), chunk, attempt, Purpose::Spill);
        }
    }

    fn maybe_finish_shuffle(&mut self, attempt: AttemptId) {
        self.start_due_spills(attempt);
        let ready = {
            let Some(att) = self.red_atts.get(&attempt) else { return };
            att.phase == RedPhase::Shuffle && att.fetch.is_done() && att.flows.is_empty()
        };
        if ready {
            self.enter_merge(attempt);
        }
    }

    fn enter_merge(&mut self, attempt: AttemptId) {
        let (node, rounds) = {
            let att = self.red_atts.get_mut(&attempt).expect("attempt exists");
            att.phase = RedPhase::Merge;
            (att.node, att.merge_rounds_left)
        };
        if rounds == 0 {
            self.enter_reduce(attempt);
            return;
        }
        // One merge pass = read + write the spilled data.
        let bytes = self.qty.spilled_bytes.saturating_mul(2).max(1);
        let flow = self.start_flow(PoolRef::Disk(node), bytes, attempt, Purpose::MergePass);
        self.red_atts.get_mut(&attempt).expect("merge pass for dead attempt").flows.push(flow);
    }

    fn merge_pass_done(&mut self, attempt: AttemptId, flow: FlowId) {
        let rounds = {
            let Some(att) = self.red_atts.get_mut(&attempt) else { return };
            att.flows.retain(|&f| f != flow);
            att.merge_rounds_left = att.merge_rounds_left.saturating_sub(1);
            att.merge_rounds_left
        };
        if rounds == 0 {
            self.enter_reduce(attempt);
        } else {
            self.enter_merge(attempt);
        }
    }

    fn enter_reduce(&mut self, attempt: AttemptId) {
        let (node, resume) = {
            let att = self.red_atts.get_mut(&attempt).expect("attempt exists");
            att.phase = RedPhase::Reduce;
            (att.node, att.resume_reduce_frac)
        };
        let frac = (1.0 - resume).clamp(0.0, 1.0);
        // Concurrent flows of the reduce stage: disk re-read of spilled
        // runs, CPU (reduce fn + deserialization), output replication.
        let mut flows = Vec::new();
        let disk_read = (self.qty.spilled_bytes as f64 * frac) as u64;
        if disk_read > 0 {
            flows.push(self.start_flow(PoolRef::Disk(node), disk_read, attempt, Purpose::ReduceRead));
        }
        self.start_reduce_cpu(attempt, frac);
        flows.extend(self.output_flows(attempt, node, (self.qty.reduce_out_bytes as f64 * frac) as u64));
        let att = self.red_atts.get_mut(&attempt).expect("attempt exists");
        att.flows.extend(flows);
        // Degenerate case: nothing to read/write and CPU may already be due.
        self.maybe_finish_reduce(attempt);
    }

    fn maybe_finish_reduce(&mut self, attempt: AttemptId) {
        let finished = {
            let Some(att) = self.red_atts.get(&attempt) else { return };
            matches!(att.phase, RedPhase::Reduce | RedPhase::Fcm) && att.flows.is_empty() && att.cpu_done
        };
        if finished {
            self.reduce_completed(attempt);
        }
    }

    /// The level reduce output replicates at: ALG's log level, stock HDFS
    /// placement without logs.
    fn output_level(&self) -> ReplicationLevel {
        if self.env.alm.mode.logs_enabled() {
            self.env.alm.log_replication
        } else {
            ReplicationLevel::Cluster
        }
    }

    /// DFS output-replication flows for `bytes` at the configured level.
    fn output_flows(&mut self, attempt: AttemptId, node: u32, bytes: u64) -> Vec<FlowId> {
        if bytes == 0 {
            return Vec::new();
        }
        let level = self.output_level();
        let replicas = level.replica_count(self.env.yarn.dfs_replication) as u64;
        let mut flows = Vec::new();
        // Local replica: disk write.
        flows.push(self.start_flow(PoolRef::Disk(node), bytes, attempt, Purpose::Output));
        if replicas > 1 {
            let remote_bytes = bytes * (replicas - 1);
            let workers = self.nodes.len() as u32;
            let racks = self.env.cluster.racks.max(1);
            // Remote replica traffic leaves via our NIC...
            flows.push(self.start_flow(PoolRef::NicOut(node), remote_bytes, attempt, Purpose::Output));
            // ...lands on the replica node's disk...
            let replica_node = if level == ReplicationLevel::Cluster && racks > 1 {
                (node + 1) % workers // adjacent index = other rack (round-robin racks)
            } else {
                (node + racks) % workers // same-rack peer
            };
            flows.push(self.start_flow(PoolRef::Disk(replica_node), remote_bytes, attempt, Purpose::Output));
            if level == ReplicationLevel::Cluster && racks > 1 {
                // ...and crosses the rack uplink at cluster level.
                let rack = self.nodes[node as usize].rack;
                flows.push(self.start_flow(PoolRef::Uplink(rack), remote_bytes, attempt, Purpose::Output));
            }
        }
        flows
    }

    fn reduce_flow_done(&mut self, attempt: AttemptId, flow: FlowId) {
        let finished = {
            let Some(att) = self.red_atts.get_mut(&attempt) else { return };
            att.flows.retain(|&f| f != flow);
            att.flows.is_empty() && att.cpu_done && matches!(att.phase, RedPhase::Reduce | RedPhase::Fcm)
        };
        if finished {
            self.reduce_completed(attempt);
        }
    }

    fn spill_flow_done(&mut self, attempt: AttemptId) {
        if let Some(att) = self.red_atts.get_mut(&attempt) {
            att.spill_outstanding = att.spill_outstanding.saturating_sub(1);
        }
        self.maybe_finish_shuffle(attempt);
    }

    fn reduce_completed(&mut self, attempt: AttemptId) {
        self.red_atts.remove(&attempt).expect("attempt exists");
        // The AM cancels sibling attempts (speculative duplicates), which
        // the dispatch below stops.
        if !self.am.complete(self.now_ns(), attempt) {
            return;
        }
        if self.am.reduces_complete() {
            self.report.run.succeeded = true;
            self.report.run.job_ns = self.now_ns();
        }
        self.dispatch();
    }

    // ---------------- FCM ----------------

    fn try_start_fcm(&mut self, attempt: AttemptId) {
        let ready = self.mof_loc.iter().all(|loc| loc.is_some_and(|n| self.nodes[n as usize].alive));
        if !ready {
            return;
        }
        {
            let Some(att) = self.red_atts.get_mut(&attempt) else { return };
            if att.phase != RedPhase::FcmWait {
                return;
            }
            att.phase = RedPhase::Fcm; // claimed; flows start after sync delay
        }
        let d = SimDuration::from_secs_f64(FCM_SYNC_SECS);
        self.q.schedule_after(d, Ev::FcmStart(attempt));
    }

    /// The FCM attempt waited too long for MOF availability (only possible
    /// when proactive regeneration is disabled or regeneration keeps
    /// failing): the AM finally re-executes the missing maps and fails the
    /// attempt so recovery retries.
    fn fcm_wait_timeout(&mut self, attempt: AttemptId, gen: u32) {
        {
            let Some(att) = self.red_atts.get(&attempt) else { return };
            if att.gen != gen || att.phase != RedPhase::FcmWait {
                return;
            }
        }
        let missing: Vec<u32> = (0..self.qty.num_maps)
            .filter(|&m| !self.mof_loc[m as usize].is_some_and(|n| self.nodes[n as usize].alive))
            .collect();
        for m in missing {
            self.am.regenerate(TaskId::map(self.job, m), false);
        }
        self.fail_attempt(attempt, FailureKind::TaskTimeout);
        self.dispatch();
    }

    fn fcm_start(&mut self, attempt: AttemptId) {
        let (node, resume) = {
            let Some(att) = self.red_atts.get(&attempt) else { return };
            if att.phase != RedPhase::Fcm {
                return;
            }
            (att.node, att.resume_reduce_frac)
        };
        // Bytes per source node for this partition.
        let mut per_node: BTreeMap<u32, u64> = BTreeMap::new();
        for src in self.mof_loc.iter().flatten() {
            *per_node.entry(*src).or_insert(0) += self.qty.chunk_bytes;
        }
        let frac = (1.0 - resume).clamp(0.0, 1.0);
        let mut flows = Vec::new();
        let dst_rack = self.nodes[node as usize].rack;
        for (src, bytes) in per_node {
            // Participant-side pre-merge read...
            flows.push(self.start_flow(
                PoolRef::Disk(src),
                bytes,
                attempt,
                Purpose::FcmLocal { source: src },
            ));
            // ...streamed to the recovering reducer (all in memory, no
            // reducer-side disk at all — FCM's defining property).
            let src_rack = self.nodes[src as usize].rack;
            let pool = if src_rack != dst_rack { PoolRef::Uplink(dst_rack) } else { PoolRef::NicIn(node) };
            flows.push(self.start_flow(pool, bytes, attempt, Purpose::FcmNet { source: src }));
        }
        // Reduce CPU for the un-resumed fraction; with ALG the deser cost
        // of the resumed fraction is skipped too.
        self.start_reduce_cpu(attempt, frac);
        flows.extend(self.output_flows(attempt, node, (self.qty.reduce_out_bytes as f64 * frac) as u64));
        let att = self.red_atts.get_mut(&attempt).expect("attempt exists");
        att.flows.extend(flows);
        self.maybe_finish_reduce(attempt);
    }

    // ---------------- failures & recovery ----------------

    /// Flows owned by `attempt`, in FlowId order.
    fn flows_of(&self, attempt: AttemptId) -> Vec<FlowId> {
        self.flows.iter().filter(|(_, i)| i.attempt == attempt).map(|(f, _)| f).collect()
    }

    /// Stop `attempt` and abort its flows; whether it was running. (A
    /// crash already removed the attempts on a dead node.)
    fn kill_attempt_silently(&mut self, attempt: AttemptId) -> bool {
        if attempt.task.is_reduce() {
            let Some(att) = self.red_atts.remove(&attempt) else { return false };
            for &f in &att.flows {
                self.abort_flow(f);
            }
        } else {
            if self.map_atts.remove(&attempt).is_none() {
                return false;
            }
            // Any flows of this attempt are aborted by scan.
            for f in self.flows_of(attempt) {
                self.abort_flow(f);
            }
        }
        true
    }

    fn fail_attempt(&mut self, attempt: AttemptId, kind: FailureKind) {
        if !self.kill_attempt_silently(attempt) {
            return;
        }
        // ALG resumes a reduce where its newest logged snapshot lives.
        let logged = if attempt.task.is_reduce() {
            self.reduces[attempt.task.index as usize].logged.as_ref()
        } else {
            None
        };
        let resume = logged.map(|l| NodeId(l.node));
        self.am.fail(self.now_ns(), attempt, kind, resume);
        self.dispatch();
    }

    fn crash_node(&mut self, node: u32) {
        if !self.nodes[node as usize].alive {
            return;
        }
        self.nodes[node as usize].alive = false;
        self.am.node_down(NodeId(node));
        if !self.nodes.iter().any(|n| n.alive) {
            // No worker is left to place anything on: fail the job here
            // rather than tick `Ev::Sample` up to `MAX_EVENTS`. The
            // zero-delay event makes `run` see the failure at this instant
            // instead of at whichever stale timer happens to fire next.
            self.failed = true;
            self.q.schedule_after(SimDuration::ZERO, Ev::Sample);
            return;
        }

        // RAM does not survive a crash: wipe the node's resident MOF
        // copies so later fetches fall back to disk / regeneration.
        let lost: Vec<u32> =
            self.resident_mofs.iter().filter(|&m| self.mof_loc[m as usize] == Some(node)).collect();
        for m in lost {
            self.resident_mofs.remove(m);
            self.report.resident_invalidations += 1;
        }

        // All flows touching this node die: flows on its pools, and fetch /
        // FCM flows sourced from it (pooled elsewhere). They are processed
        // in FlowId order: re-pipelined replica writes allocate fresh
        // FlowIds and interrupted fetches queue retries as they go.
        let doomed: Vec<(FlowId, AttemptId, Purpose)> = self
            .flows
            .iter()
            .filter(|(_, i)| {
                matches!(
                    i.pool,
                    PoolRef::Disk(n) | PoolRef::NicIn(n) | PoolRef::NicOut(n) if n == node
                ) || matches!(i.purpose, Purpose::Fetch { source, .. } | Purpose::FetchRead { source, .. } | Purpose::FcmLocal { source } | Purpose::FcmNet { source } if source == node)
            })
            .map(|(f, i)| (f, i.attempt, i.purpose))
            .collect();

        let mut interrupted_fetches: Vec<(AttemptId, u32, u32)> = Vec::new();
        let mut interrupted_fcm: BTreeSet<AttemptId> = BTreeSet::new();
        for (f, attempt, purpose) in doomed {
            let remaining = self.abort_flow(f);
            // Flows owned by attempts on OTHER nodes need follow-up.
            let owner_node = if attempt.task.is_reduce() {
                self.red_atts.get(&attempt).map(|a| a.node)
            } else {
                self.map_atts.get(&attempt).map(|a| a.node)
            };
            if owner_node == Some(node) {
                continue; // the attempt itself dies below
            }
            match purpose {
                Purpose::Fetch { map, source } | Purpose::FetchRead { map, source } if source == node => {
                    if let Some(att) = self.red_atts.get_mut(&attempt) {
                        att.flows.retain(|&af| af != f);
                    }
                    interrupted_fetches.push((attempt, map, source));
                }
                Purpose::FcmLocal { .. } | Purpose::FcmNet { .. } => {
                    interrupted_fcm.insert(attempt);
                }
                Purpose::Output => {
                    // A replica write targeting the dead node's disk: the
                    // DFS re-pipelines it to another live node.
                    let owner = owner_node.expect("owner is alive");
                    let replacement = (0..self.nodes.len() as u32)
                        .map(|i| (node + 1 + i) % self.nodes.len() as u32)
                        .find(|&n| self.nodes[n as usize].alive && n != owner);
                    if let (Some(repl), Some(bytes)) = (replacement, remaining) {
                        let nf = self.start_flow(PoolRef::Disk(repl), bytes, attempt, Purpose::Output);
                        if let Some(att) = self.red_atts.get_mut(&attempt) {
                            att.flows.retain(|&af| af != f);
                            att.flows.push(nf);
                        }
                    } else if let Some(att) = self.red_atts.get_mut(&attempt) {
                        // No live replacement: drop to a single replica.
                        att.flows.retain(|&af| af != f);
                    }
                }
                _ => {}
            }
        }

        // Attempts hosted on the node die silently; the AM keeps
        // them running until the node expires.
        let dead_reds: Vec<AttemptId> =
            self.red_atts.iter().filter(|(_, a)| a.node == node).map(|(id, _)| id).collect();
        let dead_maps: Vec<AttemptId> =
            self.map_atts.iter().filter(|(_, a)| a.node == node).map(|(id, _)| id).collect();
        for a in dead_reds {
            let att = self.red_atts.remove(&a).expect("attempt vanished mid-crash");
            for &f in &att.flows {
                self.abort_flow(f);
            }
        }
        for a in dead_maps {
            self.map_atts.remove(&a);
            for f in self.flows_of(a) {
                self.abort_flow(f);
            }
        }

        // Reducers that were fetching from the crashed node begin the retry
        // treadmill immediately (their connections broke).
        for (attempt, map, source) in interrupted_fetches {
            if self.red_atts.get(&attempt).is_some() {
                self.observe(attempt, map, Outcome::Refused { source: NodeId(source), source_dead: true });
            }
        }
        // FCM recoveries fed by the node restart their wait.
        for a in interrupted_fcm {
            if let Some(att) = self.red_atts.get_mut(&a) {
                let drained = std::mem::take(&mut att.flows);
                att.phase = RedPhase::FcmWait;
                att.gen += 1; // invalidate the in-flight CPU timer
                att.cpu_done = false;
                for f in drained {
                    self.abort_flow(f);
                }
                self.try_start_fcm(a);
            }
        }

        // Detection after the liveness timeout.
        let d = SimDuration::from_ms(self.env.yarn.node_liveness_timeout_ms);
        self.q.schedule_after(d, Ev::DetectNode(node));
    }

    /// The AM expires a crashed node: the attempts it ran there fail,
    /// unless their task is complete.
    fn detect_node(&mut self, node: u32) {
        let lost_mofs: Vec<TaskId> = (0..self.qty.num_maps)
            .filter(|&m| self.mof_loc[m as usize] == Some(node))
            .map(|m| TaskId::map(self.job, m))
            .collect();
        self.am.expire(self.now_ns(), NodeId(node), lost_mofs);
        self.dispatch();
    }

    // ---------------- progress / sampling / logging ----------------

    fn red_progress(&self, att: &RedAtt) -> f64 {
        match att.phase {
            RedPhase::Launching => 0.0,
            RedPhase::Shuffle => {
                ReducePhase::Shuffle.overall(att.fetched.len() as f64 / self.qty.num_maps.max(1) as f64)
            }
            RedPhase::Merge => {
                let total = self.qty.merge_rounds.max(1) as f64;
                let done = (self.qty.merge_rounds - att.merge_rounds_left) as f64;
                ReducePhase::Merge.overall(done / total)
            }
            RedPhase::Reduce | RedPhase::Fcm => {
                // The CPU timer drives reduce-stage progress.
                let frac_of_rest = if att.cpu_done {
                    1.0
                } else if att.cpu_dur <= 0.0 {
                    0.0
                } else {
                    ((self.q.now().as_secs_f64() - att.cpu_start) / att.cpu_dur).clamp(0.0, 1.0)
                };
                ReducePhase::Reduce
                    .overall(att.resume_reduce_frac + (1.0 - att.resume_reduce_frac) * frac_of_rest)
            }
            RedPhase::FcmWait => 0.0, // waiting for MOF regeneration
        }
    }

    fn sample(&mut self) {
        let (now, now_ns) = (self.now_secs(), self.now_ns());
        // Progress per reduce task = best running attempt (0 if none).
        let mut progress = vec![0.0_f64; self.qty.num_reduces as usize];
        for (id, a) in self.red_atts.iter() {
            let p = &mut progress[id.task.index as usize];
            *p = p.max(self.red_progress(a));
        }
        for (r, &p) in (0..).zip(&progress) {
            let p = if self.reduce_done(r) { 1.0 } else { p };
            self.report.run.progress.entry(r).or_default().push((now_ns, p));
        }
        // A reduce's kill trigger reads its progress before this tick's
        // crashes, a map's reads its phase after them.
        let reduce_kills_due: Vec<bool> = self
            .faults
            .kills
            .iter()
            .map(|(id, &k)| {
                id.task.is_reduce() && self.red_atts.get(id).is_some_and(|a| self.red_progress(a) >= k)
            })
            .collect();

        // Progress-triggered node crashes. A later one for the same node
        // finds it down, and `crash_node` on a dead node returns at once (no
        // node revives). A reduce out of range never completes.
        let (am, job, reduces) = (&self.am, self.job, self.qty.num_reduces);
        let progress_of = |r: u32| Some(progress.get(r as usize).copied().unwrap_or(0.0));
        let complete = |r: u32| r < reduces && am.is_complete(TaskId::reduce(job, r));
        for trigger in self.faults.progress(progress_of, complete) {
            self.carry_out(trigger);
        }

        // Kill triggers (injected OOMs), fired in `AttemptId` order.
        let to_kill: Vec<AttemptId> = self
            .faults
            .kills
            .iter()
            .zip(reduce_kills_due)
            .filter(|&((id, &k), reduce_due)| {
                if id.task.is_reduce() {
                    return reduce_due;
                }
                self.map_atts.get(id).is_some_and(|att| att.phase.progress() >= k)
            })
            .map(|((&id, _), _)| id)
            .collect();
        for id in to_kill {
            self.fail_attempt(id, FailureKind::TaskOom);
        }

        // ALG logging ticks: snapshot running reducers' progress.
        if self.env.alm.mode.logs_enabled() {
            let interval = self.env.alm.logging_interval_ms as f64 / 1000.0;
            let snapshots: Vec<(AttemptId, LoggedState)> = self
                .red_atts
                .iter()
                .filter(|(_, a)| now - a.last_log_secs >= interval)
                .map(|(id, a)| {
                    let overall = self.red_progress(a);
                    let reduce_frac = ((overall - 2.0 / 3.0) * 3.0).clamp(0.0, 1.0);
                    (
                        id,
                        LoggedState {
                            node: a.node,
                            fetched: a.fetched.clone(),
                            merge_done: matches!(a.phase, RedPhase::Reduce | RedPhase::Fcm),
                            reduce_frac,
                        },
                    )
                })
                .collect();
            for (id, snap) in snapshots {
                self.red_atts.get_mut(&id).expect("snapshot for dead attempt").last_log_secs = now;
                let task = &mut self.reduces[id.task.index as usize];
                // Never regress durable progress.
                let keep = task.logged.as_ref().is_some_and(|old| {
                    old.reduce_frac > snap.reduce_frac && old.fetched.len() >= snap.fetched.len()
                });
                if !keep {
                    task.logged_prev = task.logged.take();
                    task.logged = Some(snap);
                }
                self.report.alg_snapshots += 1;
            }
        }

        // What falls due on the clock comes in tick order: link changes,
        // then corruptions, then crashes and slowdowns. Samples fall on
        // whole virtual seconds, which the millisecond clock reads exactly.
        let mut due = self.faults.fire(now_ns / 1_000_000).into_iter().peekable();

        // Transient partitions and gray links: apply the due link changes,
        // then re-pump the shuffles a heal may have unparked. Degraded
        // links never park a fetch (bytes still flow), so they need no
        // re-pump.
        let mut healed = false;
        while let Some(trigger) = due.next_if(|t| matches!(t, Trigger::Link(_))) {
            healed |= matches!(trigger, Trigger::Link(LinkChange { op: LinkOp::Heal, .. }));
            self.carry_out(trigger);
        }
        if healed {
            let stuck: Vec<AttemptId> = self
                .red_atts
                .iter()
                .filter(|(_, a)| a.phase == RedPhase::Shuffle)
                .map(|(id, _)| id)
                .collect();
            for id in stuck {
                self.pump_fetches(id);
            }
        }

        while let Some(trigger) = due.next_if(|t| matches!(t, Trigger::Corrupt { .. })) {
            self.carry_out(trigger);
        }

        // Shuffles parked behind severed links time out at the shuffle
        // wait cap — the bound on never-healing partitions.
        let shuffling: Vec<AttemptId> =
            self.red_atts.iter().filter(|(_, a)| a.phase == RedPhase::Shuffle).map(|(id, _)| id).collect();
        let (red_atts, outcome) = self.fetch_view();
        let steps: Vec<(AttemptId, Step)> = shuffling
            .into_iter()
            .map(|id| {
                let att = red_atts.get_mut(&id).expect("shuffling attempt exists");
                (id, att.fetch.tick(now_ns, |m| outcome(att.node, m)))
            })
            .collect();
        for (id, step) in steps {
            self.fetch_step(id, step);
        }

        // Crashes and slowdowns, after the park tick.
        for trigger in due {
            self.carry_out(trigger);
        }
    }

    /// Carry out a fault trigger the timeline fired.
    fn carry_out(&mut self, trigger: Trigger) {
        match trigger {
            Trigger::Crash(node) => self.crash_node(node.0),
            // CPU phases scheduled from now on are stretched by the factor.
            Trigger::Slow { node, factor } => {
                if let Some(node) = self.nodes.get_mut(node.0 as usize) {
                    node.slow = node.slow.max(factor);
                }
            }
            Trigger::Link(change) => self.links.apply(&change),
            Trigger::Corrupt { node, target } => {
                if !self.corrupt(target) {
                    self.faults.pend(node, target);
                }
            }
        }
    }

    /// Rot `target`, or say that it does not exist yet. MOF rot arms an
    /// arrival-time checksum failure (the MOF's host is implied by
    /// `mof_loc`); ALG-record rot truncates the newest snapshot, so
    /// recovery falls back one logging interval.
    fn corrupt(&mut self, target: CorruptTarget) -> bool {
        match target {
            CorruptTarget::MofPartition { map_index, partition } => {
                self.corrupt_mofs.insert((map_index, partition));
                true
            }
            CorruptTarget::AlgRecord { reduce_index, .. } => {
                match self.reduces.get_mut(reduce_index as usize) {
                    Some(r) if r.logged.is_some() => {
                        r.logged = r.logged_prev.take();
                        self.report.log_truncations += 1;
                        true
                    }
                    Some(_) => false,
                    None => true,
                }
            }
            CorruptTarget::DfsBlock { reduce_index, block } => {
                if reduce_index >= self.qty.num_reduces {
                    true
                } else if self.reduce_done(reduce_index) {
                    // The output exists only once the reduce committed.
                    self.corrupt_dfs_blocks.insert((reduce_index, block));
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Diagnostic dump of live state, printed when the `MAX_EVENTS` guard
    /// trips.
    fn dump_state(&self, why: &str) {
        eprintln!("--- sim stall dump ({why}) at t={:.1}s ---", self.now_secs());
        let queued: Vec<String> = self.am.queued().map(|t| t.to_string()).collect();
        eprintln!("queued: {queued:?}");
        let regenerating: Vec<u32> =
            (0..self.qty.num_maps).filter(|&m| self.am.is_regenerating(TaskId::map(self.job, m))).collect();
        eprintln!("regenerating: {regenerating:?}");
        for (id, a) in self.red_atts.iter() {
            eprintln!("  red {id}: {a:?}");
        }
        for (id, a) in self.map_atts.iter() {
            eprintln!("  map {id}: {a:?}");
        }
        let incomplete_m =
            (0..self.qty.num_maps).filter(|&m| !self.am.is_complete(TaskId::map(self.job, m))).count();
        let incomplete_r: Vec<u32> = (0..self.qty.num_reduces).filter(|&r| !self.reduce_done(r)).collect();
        eprintln!("incomplete maps: {incomplete_m}, incomplete reduces: {incomplete_r:?}");
    }

    // ---------------- event dispatch ----------------

    fn flow_done(&mut self, id: FlowId, info: FlowInfo) {
        match info.purpose {
            Purpose::MapRead | Purpose::MapWrite => self.map_flow_done(info.attempt, info.purpose),
            Purpose::FetchRead { map, source } => self.fetch_read_done(info.attempt, id, map, source),
            Purpose::Fetch { map, source } => self.fetch_flow_done(info.attempt, id, map, source),
            Purpose::Spill => self.spill_flow_done(info.attempt),
            Purpose::MergePass => self.merge_pass_done(info.attempt, id),
            Purpose::ReduceRead | Purpose::Output => self.reduce_flow_done(info.attempt, id),
            Purpose::FcmLocal { .. } | Purpose::FcmNet { .. } => self.reduce_flow_done(info.attempt, id),
        }
    }

    /// Settle committed-output rot as the run ends.
    ///
    /// The event loop breaks the instant the last reduce commits, so a
    /// `DfsBlock` corruption may still be pending — carry out what the
    /// timeline still holds of it, then charge what the verified read +
    /// repair pipeline does per rotten replica: one read failover, one
    /// block re-replicated (its payload bytes copied). A single-replica output has nowhere to fail over
    /// to, so its rotten copy stays corrupt and unrepaired. Background
    /// work after job end: the job time is never touched.
    fn settle_dfs_corruption(&mut self) {
        for trigger in self.faults.fire_output_rot() {
            self.carry_out(trigger);
        }
        if self.corrupt_dfs_blocks.is_empty() {
            return;
        }
        let replicas = self.output_level().replica_count(self.env.yarn.dfs_replication);
        let block_size = self.env.yarn.dfs_block_size.max(1);
        let out_bytes = self.qty.reduce_out_bytes;
        let nblocks = out_bytes.div_ceil(block_size).max(1);
        for (_, block) in std::mem::take(&mut self.corrupt_dfs_blocks) {
            // An out-of-range sampled block clamps to the last, like the
            // runtime's `corrupt_replica`.
            let idx = (block as u64).min(nblocks - 1);
            let bytes = if idx == nblocks - 1 { out_bytes - idx * block_size } else { block_size };
            if replicas >= 2 {
                self.report.run.counters.dfs_read_failovers += 1;
                self.report.run.counters.dfs_repair_bytes += bytes;
            } else {
                self.report.run.counters.dfs_corrupt_replicas += 1;
            }
        }
    }

    /// Run the simulation to completion.
    pub fn run(mut self) -> SimReport {
        // Initial dispatch: all maps queued; reduces wait for the first wave.
        for m in 0..self.qty.num_maps {
            self.am.submit(TaskId::map(self.job, m));
        }
        self.dispatch();
        self.q.schedule_after(SimDuration::from_nanos(SAMPLE_EVERY_NS), Ev::Sample);

        while let Some((_, ev)) = self.q.pop() {
            self.report.events += 1;
            if self.report.events > MAX_EVENTS {
                self.dump_state("MAX_EVENTS reached");
                break;
            }
            if self.report.run.succeeded || self.failed {
                break;
            }
            match ev {
                Ev::PoolWake(p) => self.pool_wake(p),
                Ev::LaunchDone(a) => {
                    if a.task.is_reduce() {
                        self.red_launch_done(a)
                    } else {
                        self.map_launch_done(a)
                    }
                }
                Ev::FetchRetry { attempt, map } => self.fetch_retry(attempt, map),
                Ev::CpuDone { attempt, gen } => {
                    if attempt.task.is_reduce() {
                        self.red_cpu_done(attempt, gen)
                    } else {
                        self.map_cpu_done(attempt)
                    }
                }
                Ev::FcmWaitTimeout { attempt, gen } => self.fcm_wait_timeout(attempt, gen),
                Ev::DetectNode(n) => self.detect_node(n),
                Ev::FcmStart(a) => self.fcm_start(a),
                Ev::Sample => {
                    self.sample();
                    if !(self.report.run.succeeded || self.failed) {
                        self.q.schedule_after(SimDuration::from_nanos(SAMPLE_EVERY_NS), Ev::Sample);
                    }
                }
            }
        }
        if !self.report.run.succeeded {
            self.report.run.job_ns = self.now_ns();
        }
        self.settle_dfs_corruption();
        // Close out the timelines with the final state.
        let end = self.report.run.job_ns;
        for r in 0..self.qty.num_reduces {
            let done = if self.reduce_done(r) { 1.0 } else { 0.0 };
            self.report.run.progress.entry(r).or_default().push((end, done));
        }
        self.report.run.trace = self.am.into_trace();
        debug_assert_eq!(self.report.run.trace.check(), Ok(()));
        self.report.job_secs = self.report.run.job_secs();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alm_types::units::GB;
    use alm_types::{Failure, Fault, FlapSchedule, LinkDirection, RecoveryMode};
    use alm_workloads::WorkloadKind;
    use proptest::prelude::*;

    fn flow_info(k: u32) -> FlowInfo {
        FlowInfo {
            attempt: TaskId::map(JobId(0), k).attempt(0),
            purpose: Purpose::Spill,
            pool: PoolRef::Disk(0),
        }
    }

    proptest! {
        /// `AttemptTable` answers as the `BTreeMap<AttemptId, _>` it
        /// replaced: inserts (overwrites included), removes, lookups,
        /// in-place updates and iteration in key order.
        #[test]
        fn attempt_table_matches_btree_map(
            ops in proptest::collection::vec((0u8..4, 0u32..12, 0u32..6), 0..300),
        ) {
            let mut table = AttemptTable::new(JobId(0), TaskKind::Reduce);
            let mut oracle = BTreeMap::new();
            for (step, (op, index, number)) in ops.into_iter().enumerate() {
                let id = TaskId::reduce(JobId(0), index).attempt(number);
                match op {
                    0 | 1 => {
                        table.insert(id, step);
                        oracle.insert(id, step);
                    }
                    2 => prop_assert_eq!(table.remove(&id), oracle.remove(&id)),
                    _ => match (table.get_mut(&id), oracle.get_mut(&id)) {
                        (Some(a), Some(b)) => {
                            *a += 1000;
                            *b += 1000;
                        }
                        (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
                    },
                }
                prop_assert_eq!(table.get(&id), oracle.get(&id));
                prop_assert_eq!(
                    table.iter().map(|(id, &v)| (id, v)).collect::<Vec<_>>(),
                    oracle.iter().map(|(&id, &v)| (id, v)).collect::<Vec<_>>()
                );
                prop_assert_eq!(table.iter().count(), oracle.len());
            }
        }

        /// `FlowWindow` answers as the `BTreeMap<FlowId, FlowInfo>` it
        /// replaced, whatever order flows retire in: fresh ids, removals
        /// and iteration in id order.
        #[test]
        fn flow_window_matches_btree_map(ops in proptest::collection::vec((0u8..3, 0u32..64), 0..400)) {
            let mut window = FlowWindow::default();
            let mut oracle = BTreeMap::new();
            for (op, k) in ops {
                if op == 0 || oracle.is_empty() {
                    let id = window.push(flow_info(k));
                    prop_assert!(oracle.insert(id, flow_info(k).attempt).is_none(), "{id:?} reused");
                } else {
                    let id = *oracle.keys().nth(k as usize % oracle.len()).unwrap();
                    prop_assert_eq!(window.remove(id).map(|i| i.attempt), oracle.remove(&id));
                    prop_assert!(window.remove(id).is_none(), "{id:?} removed twice");
                }
                prop_assert_eq!(
                    window.iter().map(|(id, i)| (id, i.attempt)).collect::<Vec<_>>(),
                    oracle.iter().map(|(&id, &a)| (id, a)).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn flow_window_keeps_a_flow_that_outlives_ten_thousand_later_ones() {
        let mut window = FlowWindow::default();
        let old = window.push(flow_info(0));
        for k in 1..=10_000 {
            let id = window.push(flow_info(k));
            assert_eq!(window.remove(id).map(|i| i.attempt), Some(flow_info(k).attempt));
        }
        let later = window.push(flow_info(1));
        assert_eq!(later, FlowId(old.0 + 10_001));
        let live: Vec<_> = window.iter().map(|(id, i)| (id, i.attempt)).collect();
        assert_eq!(live, vec![(old, flow_info(0).attempt), (later, flow_info(1).attempt)]);
        assert!(window.remove(old).is_some());
        assert_eq!(window.slots.len(), 1, "the retired slots go once the old flow leaves");
        assert!(window.remove(old).is_none());
    }

    fn run(kind: WorkloadKind, gb: u64, reduces: u32, mode: RecoveryMode, faults: FaultPlan) -> SimReport {
        let spec = SimJobSpec::new(kind, gb * GB, reduces, 7);
        Simulation::new(spec, ExperimentEnv::paper(mode), faults).run()
    }

    fn failures(r: &SimReport) -> Vec<Failure> {
        r.run.trace.failures().collect()
    }

    /// The node reduce 0's first attempt ran on.
    fn first_reduce_node(r: &SimReport) -> u32 {
        r.run.trace.nodes_of(TaskId::reduce(JobId(0), 0)).next().expect("reduce 0 launched").0
    }

    fn kill_reduce(index: u32, at_progress: f64) -> FaultPlan {
        FaultPlan::kill_task(TaskId::reduce(JobId(0), index), at_progress)
    }

    fn crash_at_reduce_progress(node: u32, reduce_index: u32, at_progress: f64) -> FaultPlan {
        FaultPlan::crash_node_at_reduce_progress(NodeId(node), reduce_index, at_progress)
    }

    /// Whole milliseconds of a virtual time, for triggers placed relative
    /// to a measured run.
    fn ms(secs: f64) -> u64 {
        (secs * 1000.0) as u64
    }

    #[test]
    fn clean_terasort_completes() {
        let r = run(WorkloadKind::Terasort, 10, 8, RecoveryMode::Baseline, FaultPlan::none());
        assert!(r.run.succeeded, "{r:?}");
        assert!(failures(&r).is_empty());
        assert!(r.run.job_secs() > 1.0 && r.run.job_secs() < 10_000.0, "time {}", r.run.job_secs());
        assert_eq!(r.run.trace.launches(TaskKind::Map), 80);
        assert_eq!(r.run.trace.launches(TaskKind::Reduce), 8);
    }

    #[test]
    fn clean_wordcount_single_reducer() {
        let r = run(WorkloadKind::Wordcount, 10, 1, RecoveryMode::Baseline, FaultPlan::none());
        assert!(r.run.succeeded, "{r:?}");
        // Map phase strictly precedes job completion.
        assert!(r.map_phase_secs > 0.0 && r.map_phase_secs < r.run.job_secs());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(WorkloadKind::Terasort, 5, 4, RecoveryMode::SfmAlg, FaultPlan::none());
        let b = run(WorkloadKind::Terasort, 5, 4, RecoveryMode::SfmAlg, FaultPlan::none());
        assert_eq!(a, b, "the simulation must be fully deterministic");
    }

    fn run_resident(
        kind: WorkloadKind,
        gb: u64,
        reduces: u32,
        mode: RecoveryMode,
        faults: FaultPlan,
    ) -> SimReport {
        let spec = SimJobSpec::new(kind, gb * GB, reduces, 7);
        Simulation::new(spec, ExperimentEnv::paper(mode), faults).with_resident_mofs().run()
    }

    #[test]
    fn resident_mofs_skip_disk_and_speed_up_shuffle() {
        let disk = run(WorkloadKind::Terasort, 10, 8, RecoveryMode::Baseline, FaultPlan::none());
        let resident = run_resident(WorkloadKind::Terasort, 10, 8, RecoveryMode::Baseline, FaultPlan::none());
        assert!(resident.run.succeeded, "{resident:?}");
        assert_eq!(disk.run.counters.resident_fetch_hits, 0, "residency is opt-in");
        assert!(resident.run.counters.resident_fetch_hits > 0, "clean-run fetches must all hit RAM");
        assert_eq!(resident.resident_invalidations, 0);
        assert!(
            resident.run.job_secs() < disk.run.job_secs(),
            "memory-served shuffle ({:.1}s) must beat disk-served ({:.1}s)",
            resident.run.job_secs(),
            disk.run.job_secs()
        );
    }

    #[test]
    fn node_crash_wipes_resident_copies() {
        let fault = crash_at_reduce_progress(1, 0, 0.3);
        let r = run_resident(WorkloadKind::Terasort, 10, 8, RecoveryMode::SfmAlg, fault);
        assert!(r.run.succeeded, "{:?}", failures(&r));
        assert!(r.resident_invalidations > 0, "the crashed node held resident MOFs");
        assert!(r.run.counters.resident_fetch_hits > 0, "survivors keep serving from RAM");
    }

    #[test]
    fn resident_mode_is_deterministic_for_iterative_kinds() {
        let fault = crash_at_reduce_progress(2, 1, 0.5);
        let a = run_resident(WorkloadKind::Pagerank, 10, 8, RecoveryMode::SfmAlg, fault.clone());
        let b = run_resident(WorkloadKind::Pagerank, 10, 8, RecoveryMode::SfmAlg, fault);
        assert!(a.run.succeeded, "{:?}", failures(&a));
        assert_eq!(a, b, "resident mode must stay fully deterministic");
    }

    #[test]
    fn reduce_oom_baseline_restarts_and_delays() {
        let clean = run(WorkloadKind::Terasort, 10, 8, RecoveryMode::Baseline, FaultPlan::none());
        let faulty = run(WorkloadKind::Terasort, 10, 8, RecoveryMode::Baseline, kill_reduce(0, 0.8));
        assert!(faulty.run.succeeded, "{faulty:?}");
        assert_eq!(failures(&faulty).len(), 1);
        assert!(faulty.run.job_secs() > clean.run.job_secs(), "a late reduce failure must delay the job");
        assert_eq!(faulty.run.trace.launches(TaskKind::Reduce), 9);
    }

    #[test]
    fn map_failures_cheap_reduce_failures_expensive_baseline() {
        // Fig. 1's core claim, reproduced in virtual time at paper scale
        // (100 GB Terasort, 20 reducers): a late failure of one ReduceTask
        // costs far more recovery time than a MapTask failure.
        let clean = run(WorkloadKind::Terasort, 100, 20, RecoveryMode::Baseline, FaultPlan::none());
        let map_fault = run(
            WorkloadKind::Terasort,
            100,
            20,
            RecoveryMode::Baseline,
            FaultPlan::kill_task(TaskId::map(JobId(0), 0), 0.5),
        );
        let red_fault = run(WorkloadKind::Terasort, 100, 20, RecoveryMode::Baseline, kill_reduce(0, 0.9));
        let map_delay = map_fault.run.job_secs() - clean.run.job_secs();
        let red_delay = red_fault.run.job_secs() - clean.run.job_secs();
        assert!(
            red_delay > map_delay.max(1.0) * 3.0,
            "reduce failure ({red_delay:.1}s) must hurt far more than a map failure ({map_delay:.1}s)"
        );
    }

    #[test]
    fn alg_resume_beats_baseline_restart() {
        let kill = kill_reduce(0, 0.9);
        let yarn = run(WorkloadKind::Terasort, 20, 8, RecoveryMode::Baseline, kill.clone());
        let alg = run(WorkloadKind::Terasort, 20, 8, RecoveryMode::Alg, kill);
        assert!(yarn.run.succeeded && alg.run.succeeded);
        assert!(
            alg.run.job_secs() < yarn.run.job_secs(),
            "ALG resume ({:.1}s) must beat restart-from-scratch ({:.1}s)",
            alg.run.job_secs(),
            yarn.run.job_secs()
        );
        assert!(alg.alg_snapshots > 0);
    }

    #[test]
    fn node_crash_baseline_amplifies_sfm_does_not() {
        // Paper-scale Terasort (100 GB, 20 reducers): crash a node once
        // reduce 0 reaches 30% overall progress.
        let fault = crash_at_reduce_progress(1, 0, 0.3);
        let yarn = run(WorkloadKind::Terasort, 100, 20, RecoveryMode::Baseline, fault.clone());
        let sfm = run(WorkloadKind::Terasort, 100, 20, RecoveryMode::Sfm, fault);
        assert!(yarn.run.succeeded, "{:?}", failures(&yarn));
        assert!(sfm.run.succeeded, "{:?}", failures(&sfm));
        let yarn_fetch_failures =
            failures(&yarn).iter().filter(|f| f.kind == FailureKind::FetchFailureLimit).count();
        let sfm_fetch_failures =
            failures(&sfm).iter().filter(|f| f.kind == FailureKind::FetchFailureLimit).count();
        assert!(
            yarn_fetch_failures > 0,
            "baseline: the recovered reducer must be preempted again over lost MOFs (temporal amplification): {:?}",
            failures(&yarn)
        );
        assert_eq!(sfm_fetch_failures, 0, "SFM: proactive regeneration prevents amplification");
        assert!(
            sfm.run.job_secs() < yarn.run.job_secs(),
            "SFM ({:.1}s) must recover faster than baseline ({:.1}s)",
            sfm.run.job_secs(),
            yarn.run.job_secs()
        );
    }

    #[test]
    fn slow_node_straggles_without_failing() {
        let clean = run(WorkloadKind::Terasort, 10, 8, RecoveryMode::Baseline, FaultPlan::none());
        let slowed = run(
            WorkloadKind::Terasort,
            10,
            8,
            RecoveryMode::Baseline,
            FaultPlan::slow_node(NodeId(0), 0, 40.0),
        );
        assert!(slowed.run.succeeded, "{slowed:?}");
        assert!(
            failures(&slowed).is_empty(),
            "a slow node degrades, it never fails: {:?}",
            failures(&slowed)
        );
        assert!(
            slowed.run.job_secs() > clean.run.job_secs() * 1.05,
            "stragglers must delay the job: {:.1}s vs clean {:.1}s",
            slowed.run.job_secs(),
            clean.run.job_secs()
        );
    }

    #[test]
    fn node_crash_detection_honours_timeout() {
        // Crash at a fixed time; the first NodeCrash failure is recorded
        // only after the 70 s liveness timeout.
        let fault = FaultPlan::crash_node_at_ms(NodeId(0), 30_000);
        let r = run(WorkloadKind::Terasort, 20, 16, RecoveryMode::Sfm, fault);
        assert!(r.run.succeeded, "{r:?}");
        if let Some(f) = failures(&r).iter().find(|f| f.kind == FailureKind::NodeCrash) {
            assert!(
                f.at_secs() >= 30.0 + 69.0,
                "detection at {:.1}s must wait for the 70s liveness timeout",
                f.at_secs()
            );
        }
    }

    #[test]
    fn losing_every_worker_fails_the_job_at_once() {
        // Three workers, all crashed: nothing can be placed again, so the
        // job must fail at the last crash, not tick to MAX_EVENTS.
        let small = |mode| {
            let mut env = ExperimentEnv::paper(mode);
            env.cluster.nodes = 4;
            env
        };
        let spec = || SimJobSpec::new(WorkloadKind::Terasort, GB, 2, 7);
        for mode in [RecoveryMode::Baseline, RecoveryMode::SfmAlg] {
            let timed = FaultPlan {
                faults: (0..3)
                    .map(|n| Fault::CrashNodeAtMs { node: NodeId(n), at_ms: 3_000 + 1_000 * u64::from(n) })
                    .collect(),
            };
            let r = Simulation::new(spec(), small(mode), timed).run();
            assert!(!r.run.succeeded, "{mode:?}: {r:?}");
            assert!(r.events < MAX_EVENTS / 1000, "{mode:?}: {} events", r.events);
            assert!((5.0..=7.0).contains(&r.run.job_secs()), "{mode:?}: failed at {:.1}s", r.run.job_secs());

            let on_progress =
                (0..3).fold(FaultPlan::none(), |p, n| p.and(crash_at_reduce_progress(n, 0, 0.1)));
            let r = Simulation::new(spec(), small(mode), on_progress).run();
            assert!(!r.run.succeeded, "{mode:?}: {r:?}");
            assert!(r.events < MAX_EVENTS / 1000, "{mode:?}: {} events", r.events);
            let crashed_at = r.run.progress[&0]
                .iter()
                .find(|(_, p)| *p >= 0.1)
                .map(|&(t, _)| t as f64 / 1e9)
                .expect("reduce 0 reached the trigger");
            assert!(
                (crashed_at..=crashed_at + 2.0).contains(&r.run.job_secs()),
                "{mode:?}: crashed at {crashed_at:.1}s, failed at {:.1}s",
                r.run.job_secs()
            );
        }
    }

    #[test]
    fn fcm_attempts_used_for_migration() {
        let fault = crash_at_reduce_progress(0, 0, 0.2);
        let r = run(WorkloadKind::Terasort, 20, 16, RecoveryMode::Sfm, fault);
        assert!(r.run.succeeded);
        if failures(&r).iter().any(|f| f.attempt.task.is_reduce()) {
            assert!(r.run.trace.fcm_launches() > 0, "reduce migration should use FCM: {r:?}");
        }
    }

    #[test]
    fn healed_partition_causes_no_failures_or_reexecution() {
        // Tentpole invariant, sim side: a partition that heals (while both
        // endpoints keep heartbeating) must park fetches — never burn retry
        // budget, never preempt a reducer, never re-execute a map.
        for mode in [RecoveryMode::Baseline, RecoveryMode::SfmAlg] {
            let clean = run(WorkloadKind::Terasort, 10, 8, mode, FaultPlan::none());
            let red_node = first_reduce_node(&clean);
            let workers = ExperimentEnv::paper(mode).cluster.worker_nodes();
            let other = (red_node + 1) % workers;
            let heal = ms(clean.map_phase_secs) + 30_000;
            let faulty = run(
                WorkloadKind::Terasort,
                10,
                8,
                mode,
                FaultPlan::partition_link(NodeId(red_node), NodeId(other), 0, heal),
            );
            assert!(faulty.run.succeeded, "{mode:?}: {faulty:?}");
            assert!(
                failures(&faulty).is_empty(),
                "{mode:?}: a healed partition must not fail anything: {:?}",
                failures(&faulty)
            );
            assert_eq!(
                faulty.run.trace.launches(TaskKind::Map),
                clean.run.trace.launches(TaskKind::Map),
                "{mode:?}: no map re-execution"
            );
            assert_eq!(
                faulty.run.trace.launches(TaskKind::Reduce),
                clean.run.trace.launches(TaskKind::Reduce),
                "{mode:?}: no reducer preemption"
            );
            assert!(
                faulty.run.job_secs() > clean.run.job_secs(),
                "{mode:?}: the parked shuffle must delay the job: {:.1}s vs clean {:.1}s",
                faulty.run.job_secs(),
                clean.run.job_secs()
            );
        }
    }

    #[test]
    fn heal_does_not_erase_a_later_window_due_in_the_same_tick() {
        // Window 1 heals at 2.3 s and window 2 severs the same link at
        // 2.6 s: both fall due in the 3 s sample tick. Applied in time
        // order the link stays cut until window 2 heals, so the run must
        // match one that only ever had window 2 (window 1 closes before
        // any reducer exists).
        let mode = RecoveryMode::Baseline;
        let clean = run(WorkloadKind::Terasort, 10, 8, mode, FaultPlan::none());
        let red_node = first_reduce_node(&clean);
        let other = (red_node + 1) % ExperimentEnv::paper(mode).cluster.worker_nodes();
        let window =
            |from_ms, heal_ms| FaultPlan::partition_link(NodeId(red_node), NodeId(other), from_ms, heal_ms);
        let heal = ms(clean.map_phase_secs) + 30_000;
        let both = run(WorkloadKind::Terasort, 10, 8, mode, window(500, 2_300).and(window(2_600, heal)));
        let second_only = run(WorkloadKind::Terasort, 10, 8, mode, window(2_600, heal));
        assert!(
            both.run.job_secs() > clean.run.job_secs(),
            "window 2 must park the shuffle: {:.1}s",
            both.run.job_secs()
        );
        assert_eq!(both, second_only);
        // A zero-length window still nets healed.
        let blip = run(WorkloadKind::Terasort, 10, 8, mode, window(2_000, 2_000));
        assert_eq!(blip, clean);
    }

    #[test]
    fn asymmetric_partition_only_parks_the_cut_direction() {
        // Sever only red_node → other. Reducers on `other` still fetch MOFs
        // hosted on red_node, so the slowdown must be strictly smaller than
        // under the symmetric cut — and nothing may fail in either case.
        let mode = RecoveryMode::Baseline;
        let clean = run(WorkloadKind::Terasort, 10, 8, mode, FaultPlan::none());
        let red_node = first_reduce_node(&clean);
        let workers = ExperimentEnv::paper(mode).cluster.worker_nodes();
        let other = (red_node + 1) % workers;
        let heal = ms(clean.map_phase_secs) + 30_000;
        let part = |direction| {
            let cut = FaultPlan::partition_link_directed(NodeId(red_node), NodeId(other), direction, 0, heal);
            run(WorkloadKind::Terasort, 10, 8, mode, cut)
        };
        let asym = part(LinkDirection::AToB);
        let sym = part(LinkDirection::Both);
        assert!(asym.run.succeeded && sym.run.succeeded);
        assert!(failures(&asym).is_empty(), "asymmetric cut must not fail anything: {:?}", failures(&asym));
        assert_eq!(
            asym.run.trace.launches(TaskKind::Map),
            clean.run.trace.launches(TaskKind::Map),
            "no map re-execution under a half-open link"
        );
        assert!(
            asym.run.job_secs() <= sym.run.job_secs(),
            "the half-open link must hurt no more than the full cut: {:.1}s vs {:.1}s",
            asym.run.job_secs(),
            sym.run.job_secs()
        );
    }

    #[test]
    fn degraded_link_drops_refetch_without_preemption() {
        // A lossy, slow gray link between a reducer's node and a MOF host:
        // the job completes, drops are observed and transparently
        // re-fetched, and the retry budget is never charged.
        let mode = RecoveryMode::Baseline;
        let clean = run(WorkloadKind::Terasort, 10, 8, mode, FaultPlan::none());
        let red_node = first_reduce_node(&clean);
        let workers = ExperimentEnv::paper(mode).cluster.worker_nodes();
        // Gray NIC on red_node: every fetch it issues is slow and lossy.
        let faults = (0..workers).filter(|n| *n != red_node).fold(FaultPlan::none(), |plan, other| {
            plan.and(FaultPlan::degraded_link(
                NodeId(red_node),
                NodeId(other),
                LinkDirection::AToB,
                0,
                1_000_000_000_000,
                4.0,
                0.5,
            ))
        });
        let faulty = run(WorkloadKind::Terasort, 10, 8, mode, faults);
        assert!(faulty.run.succeeded, "{faulty:?}");
        assert!(faulty.run.counters.degraded_drops >= 1, "gray loss must be observed: {faulty:?}");
        assert!(failures(&faulty).is_empty(), "gray drops must never preempt: {:?}", failures(&faulty));
        assert_eq!(
            faulty.run.trace.launches(TaskKind::Reduce),
            clean.run.trace.launches(TaskKind::Reduce),
            "no reducer preemption"
        );
        assert!(
            faulty.run.job_secs() > clean.run.job_secs(),
            "slow + lossy fetches must delay the job: {:.1}s vs {:.1}s",
            faulty.run.job_secs(),
            clean.run.job_secs()
        );
    }

    #[test]
    fn flapping_partition_is_deterministic_and_harmless() {
        let mode = RecoveryMode::SfmAlg;
        let flap = FlapSchedule { seed: 7, cycles: 3, period_ms: 15_000, down_ms: 10_000 };
        let plan = FaultPlan::flapping_link(NodeId(0), NodeId(1), LinkDirection::Both, 5_000, flap);
        assert_eq!(plan.partition_windows().len(), 3, "one window per cycle");
        let a = run(WorkloadKind::Terasort, 5, 4, mode, plan.clone());
        let b = run(WorkloadKind::Terasort, 5, 4, mode, plan);
        assert_eq!(a, b, "flap windows must preserve full determinism");
        assert!(a.run.succeeded, "{a:?}");
        assert!(
            failures(&a).iter().all(|f| f.kind != FailureKind::FetchFailureLimit),
            "flap cycles must never exhaust the retry budget: {:?}",
            failures(&a)
        );
    }

    #[test]
    fn flapping_partition_arms_one_window_per_cycle() {
        // A flap schedule is armed through the shared window expansion, so
        // it must run exactly like its cycles given as separate partitions.
        let mode = RecoveryMode::SfmAlg;
        let flap = FlapSchedule { seed: 9, cycles: 3, period_ms: 20_000, down_ms: 10_000 };
        let plan = FaultPlan::flapping_link(NodeId(1), NodeId(4), LinkDirection::BToA, 5_000, flap);
        let cycles = plan.partition_windows().into_iter().fold(FaultPlan::none(), |p, w| {
            p.and(FaultPlan::partition_link_directed(w.a, w.b, w.direction, w.from_ms, w.heal_ms))
        });
        assert_eq!(cycles.faults.len(), 3);
        let flapping = run(WorkloadKind::Terasort, 5, 4, mode, plan);
        let separate = run(WorkloadKind::Terasort, 5, 4, mode, cycles);
        assert_eq!(flapping.run.job_secs().to_bits(), separate.run.job_secs().to_bits());
        assert_eq!(flapping, separate);
    }

    #[test]
    fn a_progress_crash_of_a_reduce_out_of_range_arms_nothing() {
        let clean = run(WorkloadKind::Terasort, 5, 4, RecoveryMode::Baseline, FaultPlan::none());
        let r =
            run(WorkloadKind::Terasort, 5, 4, RecoveryMode::Baseline, crash_at_reduce_progress(1, 9, 0.5));
        assert_eq!(r.run.job_secs().to_bits(), clean.run.job_secs().to_bits());
        assert_eq!(r, clean);
    }

    #[test]
    fn later_attempt_kills_arm_nothing() {
        // The kill triggers fire on attempt 0 only; a kill of attempt 1
        // has no simulator equivalent and must leave the run untouched.
        let later =
            Fault::KillTask { task: TaskId::reduce(JobId(0), 0), attempt_number: 1, at_progress: 0.5 };
        let clean = run(WorkloadKind::Terasort, 5, 4, RecoveryMode::Baseline, FaultPlan::none());
        let r = run(WorkloadKind::Terasort, 5, 4, RecoveryMode::Baseline, FaultPlan { faults: vec![later] });
        assert_eq!(r.run.job_secs().to_bits(), clean.run.job_secs().to_bits());
        assert_eq!(r, clean);
    }

    #[test]
    fn corrupted_mof_chunk_refetches_without_preemption() {
        let clean = run(WorkloadKind::Terasort, 10, 8, RecoveryMode::Baseline, FaultPlan::none());
        let faulty = run(
            WorkloadKind::Terasort,
            10,
            8,
            RecoveryMode::Baseline,
            FaultPlan::corrupt_data(NodeId(0), CorruptTarget::MofPartition { map_index: 1, partition: 2 }, 0),
        );
        assert!(faulty.run.succeeded, "{faulty:?}");
        assert!(
            faulty.run.counters.corruption_refetches >= 1,
            "the rot must be observed on arrival: {faulty:?}"
        );
        assert_eq!(
            faulty.run.trace.launches(TaskKind::Map),
            clean.run.trace.launches(TaskKind::Map) + 1,
            "exactly one regeneration: {faulty:?}"
        );
        assert!(
            failures(&faulty).is_empty(),
            "checksummed re-fetch must never preempt: {:?}",
            failures(&faulty)
        );
    }

    #[test]
    fn corrupted_alg_record_falls_back_one_snapshot() {
        let faults =
            FaultPlan::corrupt_data(NodeId(0), CorruptTarget::AlgRecord { reduce_index: 0, seq: 0 }, 0)
                .and(kill_reduce(0, 0.9));
        let r = run(WorkloadKind::Terasort, 10, 8, RecoveryMode::Alg, faults);
        assert!(r.run.succeeded, "{r:?}");
        assert_eq!(r.log_truncations, 1, "the rot must cost exactly one snapshot interval: {r:?}");
        assert!(r.alg_snapshots > 0, "logging must continue after the truncation");
    }

    #[test]
    fn deterministic_with_transient_faults() {
        // Partition + corruption + a crash: jitter comes from the engine
        // RNG stream, so two runs must still be bit-identical.
        let faults = FaultPlan::partition_link(NodeId(0), NodeId(1), 10_000, 60_000)
            .and(FaultPlan::corrupt_data(
                NodeId(0),
                CorruptTarget::MofPartition { map_index: 3, partition: 1 },
                5_000,
            ))
            .and(crash_at_reduce_progress(2, 0, 0.3));
        let a = run(WorkloadKind::Terasort, 5, 4, RecoveryMode::SfmAlg, faults.clone());
        let b = run(WorkloadKind::Terasort, 5, 4, RecoveryMode::SfmAlg, faults);
        assert_eq!(a, b, "transient faults must preserve full determinism");
    }

    #[test]
    fn progress_timelines_are_sampled() {
        let r = run(WorkloadKind::Wordcount, 10, 1, RecoveryMode::Baseline, FaultPlan::none());
        let tl = r.run.progress.get(&0).expect("reduce 0 sampled");
        assert!(tl.len() > 3);
        assert!(tl.last().unwrap().1 >= 1.0 - 1e-9);
        // Monotone non-decreasing in a failure-free run.
        for w in tl.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
    }
}
