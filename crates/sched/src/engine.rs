//! Task-level warehouse simulator.
//!
//! Where `alm-sim` models *one* job at flow fidelity (per-fetch bandwidth
//! sharing on every NIC and disk), this engine models *many* jobs from
//! many tenants at task fidelity: each task has a closed-form duration
//! derived from the same [`alm_sim::Quantities`] byte model and the
//! cluster's bandwidth numbers, and jobs contend through **slots** — the
//! scheduler's resource — rather than through per-byte flows. That is the
//! deliberate abstraction ladder: slot contention is what multi-tenant
//! scheduling policies arbitrate, and it is what makes 1000-node,
//! dozens-of-jobs campaigns run in milliseconds while staying bitwise
//! deterministic.
//!
//! Failure amplification survives the abstraction. A node crash kills the
//! tasks on it, and — the paper's core mechanism — orphans the completed
//! map outputs (MOFs) it hosted:
//!
//! * **SFM modes** regenerate lost maps proactively at detection; running
//!   reducers of the wounded job *suspend* (they hold their containers)
//!   and resume once the maps are back — no failure records, only delay.
//! * **Baseline/ALG** discover the loss through the reducers' fetch
//!   treadmill: one liveness window after detection, every running
//!   reducer of the job is preempted with `FetchFailureLimit` (spatial
//!   amplification, now *cross-tenant visible* through slot contention)
//!   and only then do the lost maps re-queue. ALG restarts the preempted
//!   reducers from their logged progress; baseline restarts from zero.
//!
//! Cost does not grow with the number of jobs submitted. Only admitted,
//! unfinished jobs hold or want slots, and there are at most tenants ×
//! `max_concurrent_jobs_per_tenant` of them. The engine keeps them as a
//! job-index-ordered set, with dense per-tenant counters beside it, and
//! dispatch (run on every event) and crash handling walk only that set.
//! A job's tasks live in [`TaskTable`]s, indexed by task, which only an
//! admitted job holds. Each slot kind's policy view is kept across events
//! and edited where a job's runnable work or a tenant's held slots change,
//! so dispatch builds no view. Per-event work is O(log tenants) per changed
//! job plus the event queue and O(1) per placed task, plus a walk of the
//! admitted set when a tenant's head job stops being runnable; per-crash
//! work is O(admitted jobs × tasks per job). An in-crate proptest
//! recomputes the bookkeeping and both views from the job table after
//! every event.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use alm_des::{EventQueue, EventToken, SimDuration, SimTime};
use alm_sim::{Quantities, SimJobSpec};
use alm_types::{rack_members, ClusterSpec, FailureKind, RecoveryMode, YarnConfig};
use serde::Serialize;

use crate::config::{validate_tenants, SchedConfig, TenantSpec};
use crate::policy::{policy_for, SchedPolicy, SchedView, TenantId, TenantView};
use crate::report::{JobOutcome, WarehouseReport};

/// Runaway guard: no warehouse campaign at the scales this crate targets
/// comes near this event count.
const MAX_EVENTS: u64 = 20_000_000;

/// The shared cluster, its tenants, and the scheduler between them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WarehouseSpec {
    pub cluster: ClusterSpec,
    pub yarn: YarnConfig,
    pub mode: RecoveryMode,
    pub sched: SchedConfig,
    pub tenants: Vec<TenantSpec>,
}

impl WarehouseSpec {
    /// A warehouse-scale cluster: paper per-node hardware (Table I NICs,
    /// SSDs, slot counts) scaled out to `nodes` nodes in ~40-node racks.
    pub fn warehouse(
        nodes: u32,
        sched: SchedConfig,
        tenants: Vec<TenantSpec>,
        mode: RecoveryMode,
    ) -> WarehouseSpec {
        let cluster = ClusterSpec { nodes, racks: (nodes / 40).clamp(2, 32), ..ClusterSpec::default() };
        WarehouseSpec { cluster, yarn: YarnConfig::default(), mode, sched, tenants }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.cluster.worker_nodes() == 0 {
            return Err("cluster needs at least one worker node".into());
        }
        if self.cluster.map_slots_per_node == 0 || self.cluster.reduce_slots_per_node == 0 {
            return Err("per-node slot counts must be >= 1".into());
        }
        self.yarn.validate()?;
        self.sched.validate()?;
        validate_tenants(&self.tenants)
    }
}

/// One job submission: which tenant, when, and what job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WarehouseJob {
    /// Index into the spec's tenant list.
    pub tenant: u32,
    pub arrival_secs: f64,
    pub job: SimJobSpec,
}

/// Faults at warehouse granularity. Task-level kills and transient faults
/// live in the single-job engines; what crosses tenants is node and rack
/// loss, so that is the vocabulary here.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum WarehouseFault {
    CrashNode {
        node: u32,
        at_secs: f64,
    },
    /// Correlated loss: every node [`alm_types::rack_members`] places in
    /// `rack` (the placement `alm-chaos` lowers rack faults with).
    CrashRack {
        rack: u32,
        at_secs: f64,
    },
}

/// Closed-form per-task costs of one job, from the shared byte model.
#[derive(Debug, Clone)]
struct JobModel {
    num_maps: u32,
    num_reduces: u32,
    map_secs: f64,
    reduce_secs: f64,
    ideal_secs: f64,
}

impl JobModel {
    fn derive(spec: &SimJobSpec, cluster: &ClusterSpec, yarn: &YarnConfig) -> JobModel {
        let q = Quantities::derive(spec, &spec.workload.model(), yarn);
        let launch = cluster.container_launch_ms as f64 / 1000.0;
        let map_secs = launch
            + q.split_bytes as f64 / cluster.disk_read_bandwidth as f64
            + q.map_cpu_secs
            + q.map_out_bytes as f64 / cluster.disk_write_bandwidth as f64;
        // A reducer's shuffle drains its partition through its inbound
        // NIC (half-duplex share, matching the single-job engine's
        // observed steady state); spilled bytes take extra disk passes
        // per merge round.
        let shuffle_secs = q.partition_bytes as f64 / (cluster.nic_bandwidth as f64 / 2.0);
        let spill_secs = q.spilled_bytes as f64
            * (1.0 / cluster.disk_write_bandwidth as f64 + 1.0 / cluster.disk_read_bandwidth as f64)
            * (1 + q.merge_rounds) as f64;
        let reduce_secs = launch
            + shuffle_secs
            + spill_secs
            + q.reduce_cpu_secs
            + q.reduce_out_bytes as f64 / cluster.disk_write_bandwidth as f64;
        let map_slots = (cluster.worker_nodes() as u64 * cluster.map_slots_per_node as u64).max(1);
        let reduce_slots = (cluster.worker_nodes() as u64 * cluster.reduce_slots_per_node as u64).max(1);
        let map_waves = (q.num_maps as u64).div_ceil(map_slots);
        let reduce_waves = (q.num_reduces as u64).div_ceil(reduce_slots);
        JobModel {
            num_maps: q.num_maps,
            num_reduces: q.num_reduces,
            map_secs,
            reduce_secs,
            // The job alone on an empty, healthy cluster: the slowdown
            // denominator.
            ideal_secs: map_waves as f64 * map_secs + reduce_waves as f64 * reduce_secs,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RunningTask {
    node: u32,
    token: EventToken,
    started: SimTime,
    work_secs: f64,
}

impl RunningTask {
    fn remaining_at(&self, now: SimTime) -> f64 {
        (self.work_secs - now.since(self.started).as_secs_f64()).max(0.0)
    }
}

/// One job's tasks of one kind in one state, indexed by task index, with
/// a count beside the slots. Iteration is in index order, which the event
/// order of crash handling depends on. An admitted job sizes its tables to
/// its task counts; a job that is not admitted, or has finished, holds
/// empty tables with no storage.
#[derive(Debug)]
struct TaskTable<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for TaskTable<T> {
    fn default() -> TaskTable<T> {
        TaskTable { slots: Vec::new(), len: 0 }
    }
}

impl<T> TaskTable<T> {
    /// An empty table with a slot for each of `tasks` task indices.
    fn with_tasks(tasks: u32) -> TaskTable<T> {
        TaskTable { slots: std::iter::repeat_with(|| None).take(tasks as usize).collect(), len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, index: u32) -> Option<&T> {
        self.slots.get(index as usize)?.as_ref()
    }

    /// Put `task` at `index`, which must be below the table's task count.
    fn insert(&mut self, index: u32, task: T) {
        if self.slots[index as usize].replace(task).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, index: u32) -> Option<T> {
        let task = self.slots.get_mut(index as usize)?.take()?;
        self.len -= 1;
        Some(task)
    }

    /// Occupied entries in index order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, t)| Some((i as u32, t.as_ref()?)))
    }

    /// Take every entry out, in index order; the table keeps its storage.
    fn drain(&mut self) -> impl Iterator<Item = (u32, T)> + '_ {
        let len = &mut self.len;
        self.slots.iter_mut().enumerate().filter_map(move |(i, t)| {
            let task = t.take()?;
            *len -= 1;
            Some((i as u32, task))
        })
    }
}

#[derive(Debug)]
struct JobState {
    tenant: TenantId,
    model: JobModel,
    /// Global arrival sequence (FIFO key).
    seq: u64,
    admitted: bool,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    pending_maps: VecDeque<u32>,
    running_maps: TaskTable<RunningTask>,
    /// Completed map index -> node hosting its MOF.
    map_home: TaskTable<u32>,
    reduces_started: bool,
    /// (reduce index, remaining work secs).
    pending_reduces: VecDeque<(u32, f64)>,
    running_reduces: TaskTable<RunningTask>,
    /// Reducers parked on lost map output (SFM path): they keep their
    /// node's container slot while the maps regenerate.
    suspended_reduces: TaskTable<(u32, f64)>,
    reduces_done: u32,
    /// Lost maps a baseline-mode job has not yet noticed (they re-queue
    /// when the fetch treadmill bites, one liveness window later).
    deferred_maps: Vec<u32>,
    /// When the deferred loss happened (the crash instant): logged reducer
    /// progress stops there, so ALG restart points are measured there.
    deferred_since: Option<SimTime>,
    map_attempts: u32,
    reduce_attempts: u32,
    failures: Vec<(f64, FailureKind)>,
    fcm_attempts: u32,
    /// Runnable tasks of each kind, by [`SlotKind::index`], that this job
    /// last put into the warehouse's kept views.
    in_view: [u32; 2],
}

impl JobState {
    fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    fn maps_done(&self) -> bool {
        self.map_home.len() as u32 == self.model.num_maps
            && self.pending_maps.is_empty()
            && self.running_maps.is_empty()
            && self.deferred_maps.is_empty()
    }

    /// Tasks of `kind` the job could launch now. A reduce is only runnable
    /// when every map output it will fetch exists; launching it against
    /// lost sources would just feed the fetch treadmill.
    fn runnable(&self, kind: SlotKind) -> usize {
        match kind {
            SlotKind::Map => self.pending_maps.len(),
            SlotKind::Reduce if self.maps_done() => self.pending_reduces.len(),
            SlotKind::Reduce => 0,
        }
    }

    /// Admission: every map is pending, and the task tables get their
    /// storage.
    fn admit(&mut self) {
        debug_assert!(!self.admitted, "job admitted twice");
        self.admitted = true;
        self.pending_maps = (0..self.model.num_maps).collect();
        self.running_maps = TaskTable::with_tasks(self.model.num_maps);
        self.map_home = TaskTable::with_tasks(self.model.num_maps);
        self.running_reduces = TaskTable::with_tasks(self.model.num_reduces);
        self.suspended_reduces = TaskTable::with_tasks(self.model.num_reduces);
    }

    /// The last reduce completed: free the task storage, so a finished
    /// job holds only what its report reads.
    fn finish(&mut self, now: SimTime) {
        self.finished = Some(now);
        self.pending_maps = VecDeque::new();
        self.running_maps = TaskTable::default();
        self.map_home = TaskTable::default();
        self.pending_reduces = VecDeque::new();
        self.running_reduces = TaskTable::default();
        self.suspended_reduces = TaskTable::default();
        self.deferred_maps = Vec::new();
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Instant the node died; `None` while healthy. Completion events of
    /// tasks on a dead node are phantoms and must be ignored — the work
    /// stopped at the crash, the AM just doesn't know yet.
    crashed_at: Option<SimTime>,
    free_map_slots: u32,
    free_reduce_slots: u32,
}

impl NodeState {
    fn alive(&self) -> bool {
        self.crashed_at.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Map,
    Reduce,
}

impl SlotKind {
    const ALL: [SlotKind; 2] = [SlotKind::Map, SlotKind::Reduce];

    /// Position of the kind's view in `Warehouse::views` and its count in
    /// `JobState::in_view`.
    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Arrive(u32),
    MapDone {
        job: u32,
        index: u32,
    },
    ReduceDone {
        job: u32,
        index: u32,
    },
    Crash(u32),
    Detect(u32),
    /// Baseline path: the fetch treadmill of `job`'s reducers exhausts its
    /// budget against the MOFs a detected crash orphaned.
    SourceLoss {
        job: u32,
    },
    Tick,
}

/// The multi-tenant warehouse simulation. Build with [`Warehouse::new`],
/// consume with [`Warehouse::run`].
pub struct Warehouse {
    spec: WarehouseSpec,
    seed: u64,
    policy: Box<dyn SchedPolicy>,
    q: EventQueue<Ev>,
    jobs: Vec<JobState>,
    arrivals: Vec<f64>,
    nodes: Vec<NodeState>,
    /// Admitted, unfinished jobs in job-index order — the only jobs that
    /// hold or want slots, so the only ones dispatch and crash handling
    /// walk. At most tenants × `max_concurrent_jobs_per_tenant`.
    active: BTreeSet<u32>,
    /// Job index by global arrival sequence: the job a view entry's
    /// `head_arrival_seq` names.
    by_seq: Vec<u32>,
    /// Jobs not yet finished, admitted or not.
    unfinished: usize,
    /// Per-tenant arrival queues awaiting admission, in arrival order.
    /// This and the two below are indexed by `TenantId`.
    waiting: Vec<VecDeque<u32>>,
    /// Admitted, unfinished jobs per tenant.
    running_jobs: Vec<u32>,
    /// Slots (map + reduce, parked reducers included) held per tenant.
    /// Changed only through `set_held_slots`, which keeps the views'
    /// `running_slots` equal to it.
    held_slots: Vec<u64>,
    /// The policy's view of each slot kind, by [`SlotKind::index`]: what
    /// `view_for` would build, kept across events. `sync_views` applies a
    /// job's change of runnable work, `set_held_slots` a tenant's change
    /// of held slots.
    views: [BTreeMap<TenantId, TenantView>; 2],
    total_map_slots: u64,
    total_reduce_slots: u64,
    rr_cursor: u32,
}

impl Warehouse {
    /// Validate the spec and lay out the simulation. `jobs` may arrive in
    /// any order; the global FIFO sequence is (arrival time, input index).
    pub fn new(
        spec: WarehouseSpec,
        seed: u64,
        jobs: &[WarehouseJob],
        faults: &[WarehouseFault],
    ) -> Result<Warehouse, String> {
        spec.validate()?;
        for j in jobs {
            if j.tenant as usize >= spec.tenants.len() {
                return Err(format!("job references tenant {} of {}", j.tenant, spec.tenants.len()));
            }
            if !j.arrival_secs.is_finite() || j.arrival_secs < 0.0 {
                return Err(format!("job arrival {} must be finite and >= 0", j.arrival_secs));
            }
        }
        let workers = spec.cluster.worker_nodes();
        let nodes = vec![
            NodeState {
                crashed_at: None,
                free_map_slots: spec.cluster.map_slots_per_node,
                free_reduce_slots: spec.cluster.reduce_slots_per_node,
            };
            workers as usize
        ];
        // Global FIFO sequence: arrival time, ties by submission order.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .arrival_secs
                .partial_cmp(&jobs[b].arrival_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut seq_of = vec![0u64; jobs.len()];
        for (seq, &idx) in order.iter().enumerate() {
            seq_of[idx] = seq as u64;
        }
        let mut q = EventQueue::new();
        let states: Vec<JobState> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                q.schedule_at(SimTime::from_secs_f64(j.arrival_secs), Ev::Arrive(i as u32));
                JobState {
                    tenant: TenantId(j.tenant),
                    model: JobModel::derive(&j.job, &spec.cluster, &spec.yarn),
                    seq: seq_of[i],
                    admitted: false,
                    started: None,
                    finished: None,
                    pending_maps: VecDeque::new(),
                    running_maps: TaskTable::default(),
                    map_home: TaskTable::default(),
                    reduces_started: false,
                    pending_reduces: VecDeque::new(),
                    running_reduces: TaskTable::default(),
                    suspended_reduces: TaskTable::default(),
                    reduces_done: 0,
                    deferred_maps: Vec::new(),
                    deferred_since: None,
                    map_attempts: 0,
                    reduce_attempts: 0,
                    failures: Vec::new(),
                    fcm_attempts: 0,
                    in_view: [0; 2],
                }
            })
            .collect();
        // Expand rack faults with the shared `rack_members` placement and
        // dedupe coinciding crash targets, mirroring chaos lowering.
        let mut seen: BTreeSet<(u32, u64)> = BTreeSet::new();
        for f in faults {
            let mut crash = |node: u32, at_secs: f64, q: &mut EventQueue<Ev>| {
                let node = node % workers.max(1);
                let at = SimTime::from_secs_f64(at_secs.max(0.0));
                if seen.insert((node, at.as_nanos())) {
                    q.schedule_at(at, Ev::Crash(node));
                }
            };
            match f {
                WarehouseFault::CrashNode { node, at_secs } => crash(*node, *at_secs, &mut q),
                WarehouseFault::CrashRack { rack, at_secs } => {
                    for n in rack_members(workers, spec.cluster.racks, *rack) {
                        crash(n, *at_secs, &mut q);
                    }
                }
            }
        }
        q.schedule_after(SimDuration::from_ms(spec.sched.dispatch_quantum_ms), Ev::Tick);
        let tenants = spec.tenants.len();
        Ok(Warehouse {
            total_map_slots: workers as u64 * spec.cluster.map_slots_per_node as u64,
            total_reduce_slots: workers as u64 * spec.cluster.reduce_slots_per_node as u64,
            active: BTreeSet::new(),
            by_seq: order.iter().map(|&i| i as u32).collect(),
            unfinished: states.len(),
            waiting: vec![VecDeque::new(); tenants],
            running_jobs: vec![0; tenants],
            held_slots: vec![0; tenants],
            views: [BTreeMap::new(), BTreeMap::new()],
            policy: policy_for(&spec.sched),
            spec,
            seed,
            q,
            jobs: states,
            arrivals: jobs.iter().map(|j| j.arrival_secs).collect(),
            nodes,
            rr_cursor: 0,
        })
    }

    /// Run to completion and reduce to a [`WarehouseReport`].
    pub fn run(mut self) -> WarehouseReport {
        while self.step() {}
        self.report()
    }

    /// Handle the next event; `false` once the queue has drained or the
    /// runaway guard trips.
    fn step(&mut self) -> bool {
        let Some((_, ev)) = self.q.pop() else { return false };
        if self.q.popped_count() > MAX_EVENTS {
            return false;
        }
        match ev {
            Ev::Arrive(j) => self.on_arrive(j),
            Ev::MapDone { job, index } => self.on_map_done(job, index),
            Ev::ReduceDone { job, index } => self.on_reduce_done(job, index),
            Ev::Crash(n) => self.on_crash(n),
            Ev::Detect(n) => self.on_detect(n),
            Ev::SourceLoss { job } => self.on_source_loss(job),
            Ev::Tick => self.on_tick(),
        }
        true
    }

    /// The admitted, unfinished jobs, in job-index order.
    fn active_jobs(&self) -> impl Iterator<Item = (u32, &JobState)> + '_ {
        self.active.iter().map(|&j| (j, &self.jobs[j as usize]))
    }

    fn on_arrive(&mut self, j: u32) {
        let tenant = self.jobs[j as usize].tenant;
        self.waiting[tenant.0 as usize].push_back(j);
        self.dispatch();
    }

    fn on_tick(&mut self) {
        self.dispatch();
        let work_left = self.unfinished > 0;
        let capacity_left = self.total_map_slots > 0 && self.total_reduce_slots > 0;
        if work_left && capacity_left {
            self.q.schedule_after(SimDuration::from_ms(self.spec.sched.dispatch_quantum_ms), Ev::Tick);
        }
    }

    fn on_map_done(&mut self, job: u32, index: u32) {
        let now = self.q.now();
        let job_idx = job as usize;
        // Phantom completion: the node died mid-task. Leave the task in
        // `running_maps`; detection will requeue it.
        if self.jobs[job_idx].running_maps.get(index).is_some_and(|t| !self.nodes[t.node as usize].alive()) {
            return;
        }
        let Some(task) = self.jobs[job_idx].running_maps.remove(index) else { return };
        self.release_slot(task.node, SlotKind::Map, self.jobs[job_idx].tenant);
        self.jobs[job_idx].map_home.insert(index, task.node);
        if self.jobs[job_idx].maps_done() {
            if !self.jobs[job_idx].reduces_started {
                let st = &mut self.jobs[job_idx];
                st.reduces_started = true;
                let reduce_secs = st.model.reduce_secs;
                st.pending_reduces = (0..st.model.num_reduces).map(|r| (r, reduce_secs)).collect();
            } else {
                // Regenerated the lost sources: wake the parked reducers
                // (they kept their slots; no new attempt is charged).
                let st = &mut self.jobs[job_idx];
                for (r, (node, remaining)) in st.suspended_reduces.drain() {
                    let token = self.q.schedule_after(
                        SimDuration::from_secs_f64(remaining),
                        Ev::ReduceDone { job, index: r },
                    );
                    st.running_reduces
                        .insert(r, RunningTask { node, token, started: now, work_secs: remaining });
                }
            }
        }
        self.sync_views(job);
        self.dispatch();
    }

    fn on_reduce_done(&mut self, job: u32, index: u32) {
        let job_idx = job as usize;
        // Phantom completion on a dead node: detection will requeue it.
        if self.jobs[job_idx].running_reduces.get(index).is_some_and(|t| !self.nodes[t.node as usize].alive())
        {
            return;
        }
        // Wedged on lost sources: a reducer cannot finish while some of
        // its job's map outputs are gone and not yet regenerated — it is
        // stuck in the fetch-retry treadmill. `SourceLoss` decides its
        // fate (FetchFailureLimit preemption).
        if !self.jobs[job_idx].deferred_maps.is_empty() {
            return;
        }
        let Some(task) = self.jobs[job_idx].running_reduces.remove(index) else { return };
        let tenant = self.jobs[job_idx].tenant;
        self.release_slot(task.node, SlotKind::Reduce, tenant);
        self.jobs[job_idx].reduces_done += 1;
        if self.jobs[job_idx].reduces_done == self.jobs[job_idx].model.num_reduces {
            self.jobs[job_idx].finish(self.q.now());
            self.active.remove(&job);
            self.unfinished -= 1;
            let r = &mut self.running_jobs[tenant.0 as usize];
            *r = r.saturating_sub(1);
        }
        self.sync_views(job);
        self.dispatch();
    }

    fn on_crash(&mut self, node: u32) {
        let n = node as usize;
        if !self.nodes[n].alive() {
            return;
        }
        // The node stops accepting work immediately; everything it was
        // holding dies at *detection*, one liveness window later.
        self.total_map_slots -= (self.nodes[n].free_map_slots
            + self
                .active_jobs()
                .map(|(_, j)| j.running_maps.iter().filter(|(_, t)| t.node == node).count() as u32)
                .sum::<u32>()) as u64;
        self.total_reduce_slots -= (self.nodes[n].free_reduce_slots
            + self
                .active_jobs()
                .map(|(_, j)| {
                    j.running_reduces.iter().filter(|(_, t)| t.node == node).count() as u32
                        + j.suspended_reduces.iter().filter(|(_, (sn, _))| *sn == node).count() as u32
                })
                .sum::<u32>()) as u64;
        self.nodes[n].crashed_at = Some(self.q.now());
        self.nodes[n].free_map_slots = 0;
        self.nodes[n].free_reduce_slots = 0;
        let liveness = SimDuration::from_ms(self.spec.yarn.node_liveness_timeout_ms);
        self.q.schedule_after(liveness, Ev::Detect(node));
    }

    fn on_detect(&mut self, node: u32) {
        let now = self.q.now();
        let now_secs = now.as_secs_f64();
        // Work on the dead node stopped at the crash, not at detection:
        // logged progress (and thus ALG restart points) is measured there.
        let crash_t = self.nodes[node as usize].crashed_at.unwrap_or(now);
        let sfm = self.spec.mode.sfm_enabled();
        let logs = self.spec.mode.logs_enabled();
        // Job-index order: the `SourceLoss` events `orphan_mofs` schedules
        // tie on time, so their order is observable.
        let active: Vec<u32> = self.active.iter().copied().collect();
        for job in active {
            let job_idx = job as usize;
            let tenant = self.jobs[job_idx].tenant;
            // Running maps on the dead node: relaunch from the front of
            // the queue (recovery work preempts fresh work).
            let killed_maps: Vec<u32> = self.jobs[job_idx]
                .running_maps
                .iter()
                .filter(|(_, t)| t.node == node)
                .map(|(i, _)| i)
                .collect();
            for i in killed_maps {
                let Some(task) = self.jobs[job_idx].running_maps.remove(i) else { continue };
                self.q.cancel(task.token);
                let st = &mut self.jobs[job_idx];
                st.failures.push((now_secs, FailureKind::NodeCrash));
                st.pending_maps.push_front(i);
                self.release_slot(node, SlotKind::Map, tenant);
            }
            // Running/suspended reduces on the dead node: relaunch, from
            // logged progress when ALG is on, from zero otherwise.
            let killed_reduces: Vec<u32> = self.jobs[job_idx]
                .running_reduces
                .iter()
                .filter(|(_, t)| t.node == node)
                .map(|(i, _)| i)
                .chain(
                    self.jobs[job_idx]
                        .suspended_reduces
                        .iter()
                        .filter(|(_, (sn, _))| *sn == node)
                        .map(|(i, _)| i),
                )
                .collect();
            for r in killed_reduces {
                let st = &mut self.jobs[job_idx];
                let remaining = if let Some(task) = st.running_reduces.remove(r) {
                    self.q.cancel(task.token);
                    task.remaining_at(crash_t)
                } else if let Some((_, rem)) = st.suspended_reduces.remove(r) {
                    rem
                } else {
                    continue;
                };
                st.failures.push((now_secs, FailureKind::NodeCrash));
                let restart = if logs { remaining } else { st.model.reduce_secs };
                st.pending_reduces.push_front((r, restart));
                if sfm {
                    st.fcm_attempts += 1;
                }
                self.release_slot(node, SlotKind::Reduce, tenant);
            }
            // Orphaned MOFs: completed maps that lived on the dead node
            // and are still needed by unfinished reducers.
            let lost_mofs: Vec<u32> =
                self.jobs[job_idx].map_home.iter().filter(|(_, n)| **n == node).map(|(i, _)| i).collect();
            if !lost_mofs.is_empty() {
                self.orphan_mofs(job, lost_mofs, crash_t);
            }
            self.sync_views(job);
        }
        self.dispatch();
    }

    /// `job`'s completed maps `lost` lost their MOFs to a crash at
    /// `crash_t`, detected now.
    fn orphan_mofs(&mut self, job: u32, lost: Vec<u32>, crash_t: SimTime) {
        let now = self.q.now();
        let sfm = self.spec.mode.sfm_enabled();
        let st = &mut self.jobs[job as usize];
        for &i in &lost {
            st.map_home.remove(i);
        }
        if sfm || !st.reduces_started {
            // Proactive regeneration (or nothing is fetching yet): the
            // maps re-queue immediately.
            for i in lost {
                st.pending_maps.push_front(i);
            }
            if sfm && st.reduces_started {
                // Park the job's running reducers on the missing source;
                // they keep their containers.
                for (r, task) in st.running_reduces.drain() {
                    self.q.cancel(task.token);
                    st.suspended_reduces.insert(r, (task.node, task.remaining_at(now)));
                    st.fcm_attempts += 1;
                }
            }
        } else {
            // Baseline/ALG: the AM only learns through the reducers' fetch
            // treadmill, one more liveness window from now.
            st.deferred_maps.extend(lost);
            st.deferred_since.get_or_insert(crash_t);
            let treadmill_secs = self.spec.yarn.node_liveness_timeout_ms as f64 / 1000.0;
            self.q.schedule_after(SimDuration::from_secs_f64(treadmill_secs), Ev::SourceLoss { job });
        }
    }

    fn on_source_loss(&mut self, job: u32) {
        let now = self.q.now();
        let now_secs = now.as_secs_f64();
        let job_idx = job as usize;
        if self.jobs[job_idx].deferred_maps.is_empty() || self.jobs[job_idx].is_finished() {
            return;
        }
        let logs = self.spec.mode.logs_enabled();
        let tenant = self.jobs[job_idx].tenant;
        // Every running reducer of the job burned its retry budget against
        // the lost sources: FetchFailureLimit preemption — the spatial
        // amplification record.
        let preempted: Vec<(u32, RunningTask)> = self.jobs[job_idx].running_reduces.drain().collect();
        // Logged progress stops where the sources vanished (the crash
        // instant): time spent wedged in the fetch treadmill is not
        // restorable progress.
        let logged_until = self.jobs[job_idx].deferred_since.take().unwrap_or(now);
        for (r, task) in preempted {
            self.q.cancel(task.token);
            let st = &mut self.jobs[job_idx];
            st.failures.push((now_secs, FailureKind::FetchFailureLimit));
            let restart = if logs { task.remaining_at(logged_until) } else { st.model.reduce_secs };
            st.pending_reduces.push_back((r, restart));
            self.release_slot(task.node, SlotKind::Reduce, tenant);
        }
        let lost: Vec<u32> = std::mem::take(&mut self.jobs[job_idx].deferred_maps);
        for i in lost {
            self.jobs[job_idx].pending_maps.push_front(i);
        }
        self.sync_views(job);
        self.dispatch();
    }

    /// `tenant` gives up a slot of `kind` on `node`; a dead node's slot is
    /// gone with it.
    fn release_slot(&mut self, node: u32, kind: SlotKind, tenant: TenantId) {
        let n = node as usize;
        if self.nodes[n].alive() {
            match kind {
                SlotKind::Map => self.nodes[n].free_map_slots += 1,
                SlotKind::Reduce => self.nodes[n].free_reduce_slots += 1,
            }
        }
        let held = self.held_slots[tenant.0 as usize];
        debug_assert!(held > 0, "tenant {} gives back a slot it does not hold", tenant.0);
        self.set_held_slots(tenant, held.saturating_sub(1));
    }

    /// Every change to a tenant's held slots goes through here, so the
    /// `running_slots` of its entries in the kept views follow it.
    fn set_held_slots(&mut self, tenant: TenantId, held: u64) {
        self.held_slots[tenant.0 as usize] = held;
        for view in &mut self.views {
            if let Some(entry) = view.get_mut(&tenant) {
                entry.running_slots = held;
            }
        }
    }

    /// Bring the kept views up to `job`'s runnable work after a change to
    /// it: admission, a launch, a map completion, the job's finish, a
    /// detected crash or a source loss. `JobState::runnable` stays the one
    /// definition of runnable work; the job's `in_view` records what it
    /// last put into each view, and only the difference is applied.
    fn sync_views(&mut self, job: u32) {
        for kind in SlotKind::ALL {
            let k = kind.index();
            let st = &mut self.jobs[job as usize];
            let (was, now) = (u64::from(st.in_view[k]), st.runnable(kind) as u64);
            if was == now {
                continue;
            }
            // Fits: a job's task counts are `u32`s.
            st.in_view[k] = now as u32;
            let (tenant, seq) = (st.tenant, st.seq);
            let view = &mut self.views[k];
            if was == 0 {
                let spec = &self.spec.tenants[tenant.0 as usize];
                let held = self.held_slots[tenant.0 as usize];
                let entry = view.entry(tenant).or_insert_with(|| TenantView {
                    runnable_tasks: 0,
                    running_slots: held,
                    weight: spec.weight,
                    guaranteed_share_pct: spec.guaranteed_share_pct,
                    head_arrival_seq: seq,
                });
                entry.runnable_tasks += now;
                entry.head_arrival_seq = entry.head_arrival_seq.min(seq);
                continue;
            }
            let entry =
                view.get_mut(&tenant).expect("a job with runnable work in a view has its tenant's entry");
            entry.runnable_tasks = entry.runnable_tasks - was + now;
            if entry.runnable_tasks == 0 {
                view.remove(&tenant);
            } else if now == 0 && entry.head_arrival_seq == seq {
                let head =
                    self.head_seq_of(tenant, kind).expect("a tenant with runnable tasks has a runnable job");
                self.views[k].get_mut(&tenant).expect("the entry was kept above").head_arrival_seq = head;
            }
        }
    }

    /// Round-robin placement over alive nodes with a free slot of `kind`.
    fn place(&mut self, kind: SlotKind) -> Option<u32> {
        let n = self.nodes.len() as u32;
        for step in 0..n {
            let node = (self.rr_cursor + step) % n;
            let s = &mut self.nodes[node as usize];
            let free = match kind {
                SlotKind::Map => &mut s.free_map_slots,
                SlotKind::Reduce => &mut s.free_reduce_slots,
            };
            if s.crashed_at.is_none() && *free > 0 {
                *free -= 1;
                self.rr_cursor = (node + 1) % n;
                return Some(node);
            }
        }
        None
    }

    fn admit(&mut self) {
        let cap = self.spec.sched.max_concurrent_jobs_per_tenant;
        for t in 0..self.waiting.len() {
            while self.running_jobs[t] < cap {
                let Some(j) = self.waiting[t].pop_front() else { break };
                self.jobs[j as usize].admit();
                self.active.insert(j);
                self.running_jobs[t] += 1;
                self.sync_views(j);
            }
        }
    }

    /// The policy's view of `kind` built from scratch: each tenant with
    /// runnable work, whose `head_arrival_seq` names its head job, the
    /// earliest-arrived admitted job with runnable work. The kept views
    /// must always equal it; `dispatch` checks that in debug builds.
    fn view_for(&self, kind: SlotKind) -> BTreeMap<TenantId, TenantView> {
        let mut view: BTreeMap<TenantId, TenantView> = BTreeMap::new();
        for (_, st) in self.active_jobs() {
            let runnable = st.runnable(kind) as u64;
            if runnable == 0 {
                continue;
            }
            let spec = &self.spec.tenants[st.tenant.0 as usize];
            let entry = view.entry(st.tenant).or_insert_with(|| TenantView {
                runnable_tasks: 0,
                running_slots: self.held_slots[st.tenant.0 as usize],
                weight: spec.weight,
                guaranteed_share_pct: spec.guaranteed_share_pct,
                head_arrival_seq: u64::MAX,
            });
            entry.runnable_tasks += runnable;
            entry.head_arrival_seq = entry.head_arrival_seq.min(st.seq);
        }
        view
    }

    /// Arrival sequence of the earliest-arrived admitted job of `tenant`
    /// with runnable work of `kind`.
    fn head_seq_of(&self, tenant: TenantId, kind: SlotKind) -> Option<u64> {
        self.active_jobs()
            .filter(|(_, st)| st.tenant == tenant && st.runnable(kind) > 0)
            .map(|(_, st)| st.seq)
            .min()
    }

    /// Hand out free slots, map slots first, one policy decision per slot,
    /// each on the kept view of its kind. A placement launches the
    /// winner's head job's next task and goes through the two helpers
    /// that keep the views: `set_held_slots` and `sync_views`.
    fn dispatch(&mut self) {
        self.admit();
        for kind in SlotKind::ALL {
            let k = kind.index();
            let total_slots = match kind {
                SlotKind::Map => self.total_map_slots,
                SlotKind::Reduce => self.total_reduce_slots,
            };
            while !self.views[k].is_empty() {
                debug_assert_eq!(self.views[k], self.view_for(kind), "the kept view is stale");
                let Some(winner) = self.policy.pick(&SchedView { tenants: &self.views[k], total_slots })
                else {
                    break;
                };
                let Some(entry) = self.views[k].get(&winner) else { break };
                let job = self.by_seq[entry.head_arrival_seq as usize];
                let Some(node) = self.place(kind) else { break };
                let now = self.q.now();
                let job_idx = job as usize;
                match kind {
                    SlotKind::Map => {
                        let index = self.jobs[job_idx]
                            .pending_maps
                            .pop_front()
                            .expect("a view's head job is runnable");
                        let work = self.jobs[job_idx].model.map_secs;
                        let token = self
                            .q
                            .schedule_after(SimDuration::from_secs_f64(work), Ev::MapDone { job, index });
                        let st = &mut self.jobs[job_idx];
                        st.running_maps
                            .insert(index, RunningTask { node, token, started: now, work_secs: work });
                        st.map_attempts += 1;
                    }
                    SlotKind::Reduce => {
                        let (index, work) = self.jobs[job_idx]
                            .pending_reduces
                            .pop_front()
                            .expect("a view's head job is runnable");
                        let token = self
                            .q
                            .schedule_after(SimDuration::from_secs_f64(work), Ev::ReduceDone { job, index });
                        let st = &mut self.jobs[job_idx];
                        st.running_reduces
                            .insert(index, RunningTask { node, token, started: now, work_secs: work });
                        st.reduce_attempts += 1;
                    }
                }
                let st = &mut self.jobs[job_idx];
                if st.started.is_none() {
                    st.started = Some(now);
                }
                self.set_held_slots(winner, self.held_slots[winner.0 as usize] + 1);
                self.sync_views(job);
            }
        }
    }

    fn report(self) -> WarehouseReport {
        let mut outcomes: Vec<JobOutcome> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let arrival_secs = self.arrivals[i];
                let finish_secs = st.finished.map(|t| t.as_secs_f64()).unwrap_or(-1.0);
                let latency_secs =
                    if finish_secs >= 0.0 { (finish_secs - arrival_secs).max(0.0) } else { -1.0 };
                let slowdown = if latency_secs >= 0.0 && st.model.ideal_secs > 0.0 {
                    latency_secs / st.model.ideal_secs
                } else {
                    -1.0
                };
                JobOutcome {
                    job: i as u32,
                    seq: st.seq,
                    tenant: st.tenant.0,
                    tenant_name: self.spec.tenants[st.tenant.0 as usize].name.clone(),
                    arrival_secs,
                    start_secs: st.started.map(|t| t.as_secs_f64()).unwrap_or(-1.0),
                    finish_secs,
                    latency_secs,
                    ideal_secs: st.model.ideal_secs,
                    slowdown,
                    map_attempts: st.map_attempts,
                    reduce_attempts: st.reduce_attempts,
                    failures: st.failures.len() as u32,
                    fetch_failures: st
                        .failures
                        .iter()
                        .filter(|(_, k)| *k == FailureKind::FetchFailureLimit)
                        .count() as u32,
                    node_loss_failures: st
                        .failures
                        .iter()
                        .filter(|(_, k)| *k == FailureKind::NodeCrash)
                        .count() as u32,
                    fcm_attempts: st.fcm_attempts,
                    succeeded: st.is_finished(),
                }
            })
            .collect();
        outcomes.sort_by_key(|o| (o.seq, o.job));
        WarehouseReport {
            policy: self.spec.sched.policy.as_str().to_string(),
            mode: self.spec.mode,
            seed: self.seed,
            nodes: self.spec.cluster.worker_nodes(),
            tenants: self.spec.tenants.iter().map(|t| t.name.clone()).collect(),
            jobs: outcomes,
            events: self.q.popped_count(),
            horizon_secs: self.q.now().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::WarehouseCampaign;
    use crate::config::SchedPolicyKind;
    use alm_workloads::WorkloadKind;
    use proptest::prelude::*;

    /// Recompute the incremental bookkeeping from `jobs` alone and compare.
    fn check_bookkeeping(w: &Warehouse) -> Result<(), String> {
        let tenants = w.spec.tenants.len();
        let mut active = BTreeSet::new();
        let mut running_jobs = vec![0u32; tenants];
        let mut held_slots = vec![0u64; tenants];
        for (j, st) in w.jobs.iter().enumerate() {
            let t = st.tenant.0 as usize;
            prop_assert!(
                st.running_maps.len() == st.running_maps.iter().count()
                    && st.map_home.len() == st.map_home.iter().count()
                    && st.running_reduces.len() == st.running_reduces.iter().count()
                    && st.suspended_reduces.len() == st.suspended_reduces.iter().count(),
                "job {j}: a task table's count is not its occupied entries"
            );
            if st.is_finished() {
                prop_assert!(
                    st.running_maps.slots.capacity() == 0
                        && st.map_home.slots.capacity() == 0
                        && st.running_reduces.slots.capacity() == 0
                        && st.suspended_reduces.slots.capacity() == 0
                        && st.pending_maps.capacity() == 0
                        && st.pending_reduces.capacity() == 0,
                    "finished job {j} still holds task storage"
                );
            }
            let holds = st.running_maps.len() + st.running_reduces.len() + st.suspended_reduces.len();
            held_slots[t] += holds as u64;
            if st.admitted && !st.is_finished() {
                active.insert(j as u32);
                running_jobs[t] += 1;
            } else {
                prop_assert!(
                    holds == 0
                        && st.pending_maps.is_empty()
                        && st.pending_reduces.is_empty()
                        && st.deferred_maps.is_empty(),
                    "job {j} (admitted {}, finished {}) holds or awaits tasks",
                    st.admitted,
                    st.is_finished()
                );
            }
        }
        let unfinished = w.jobs.iter().filter(|st| !st.is_finished()).count();
        prop_assert_eq!(&w.active, &active, "active set");
        prop_assert_eq!(w.unfinished, unfinished, "unfinished count");
        prop_assert_eq!(&w.running_jobs, &running_jobs, "running jobs per tenant");
        prop_assert_eq!(&w.held_slots, &held_slots, "held slots per tenant");
        for kind in SlotKind::ALL {
            for (j, st) in w.jobs.iter().enumerate() {
                prop_assert_eq!(
                    st.in_view[kind.index()] as usize,
                    st.runnable(kind),
                    "job {}: {:?} tasks in the views against runnable ones",
                    j,
                    kind
                );
            }
            prop_assert_eq!(&w.views[kind.index()], &w.view_for(kind), "kept {:?} view", kind);
        }
        Ok(())
    }

    /// A tenant's head job drains partway through one `dispatch`: the
    /// slots left go to its next-oldest runnable job, the one a freshly
    /// built view names, not to the next job by index.
    #[test]
    fn slots_left_when_the_head_job_drains_go_to_the_next_oldest_job() {
        // Six workers with one map slot each, and three four-map jobs of
        // one tenant that arrive in the order job 1, job 2, job 0.
        let sched = SchedConfig::with_policy(SchedPolicyKind::Fifo);
        let tenant = vec![TenantSpec::new("t", 1, 100)];
        let mut spec = WarehouseSpec::warehouse(7, sched, tenant, RecoveryMode::Baseline);
        spec.cluster.map_slots_per_node = 1;
        let input = 4 * spec.yarn.dfs_block_size;
        let job = |arrival_secs| WarehouseJob {
            tenant: 0,
            arrival_secs,
            job: SimJobSpec::new(WorkloadKind::Terasort, input, 2, 1),
        };
        let mut w = Warehouse::new(spec, 1, &[job(3.0), job(1.0), job(2.0)], &[]).expect("valid spec");
        w.waiting[0].extend([1, 2, 0]);
        w.dispatch();
        let running: Vec<usize> = [1, 2, 0].iter().map(|&j| w.jobs[j].running_maps.len()).collect();
        assert_eq!(running, [4, 2, 0], "running maps of jobs 1, 2 and 0");
    }

    /// Under SFM, detection takes a reducing job's MOFs away: its pending
    /// reduces stop being runnable, and as the tenant's only runnable job
    /// its removal takes the tenant's reduce entry with it. The last
    /// regenerated map brings the entry back, headed by the job.
    #[test]
    fn a_regenerated_map_brings_back_the_reduce_entry_detection_removed() {
        // Six workers with one slot of each kind. Job 1 arrives first and
        // runs alone (one job per tenant at a time); job 0, arrival
        // sequence 1, then runs four maps and six of its eight reduces.
        let mut sched = SchedConfig::with_policy(SchedPolicyKind::Fifo);
        sched.max_concurrent_jobs_per_tenant = 1;
        let tenant = vec![TenantSpec::new("t", 1, 100)];
        let mut spec = WarehouseSpec::warehouse(7, sched, tenant, RecoveryMode::Sfm);
        spec.cluster.map_slots_per_node = 1;
        spec.cluster.reduce_slots_per_node = 1;
        let input = 4 * spec.yarn.dfs_block_size;
        let job = |arrival_secs, reduces| WarehouseJob {
            tenant: 0,
            arrival_secs,
            job: SimJobSpec::new(WorkloadKind::Terasort, input, reduces, 1),
        };
        let mut w = Warehouse::new(spec, 1, &[job(5.0, 8), job(0.0, 1)], &[]).expect("valid spec");
        let (reduce, t) = (SlotKind::Reduce.index(), TenantId(0));
        while !(w.jobs[0].reduces_started && w.jobs[0].maps_done()) {
            assert!(w.step(), "job 0 starts reducing");
        }
        assert_eq!((w.jobs[0].seq, w.jobs[0].pending_reduces.len()), (1, 2));
        assert_eq!(w.views[reduce][&t].head_arrival_seq, 1);

        // Crash a node that holds one of job 0's MOFs, and detect it at once.
        let node = *w.jobs[0].map_home.iter().next().expect("a MOF").1;
        w.on_crash(node);
        w.on_detect(node);
        assert!(!w.jobs[0].pending_reduces.is_empty() && w.jobs[0].runnable(SlotKind::Reduce) == 0);
        assert!(!w.views[reduce].contains_key(&t), "detection removes the reduce entry");

        while !w.jobs[0].maps_done() {
            assert!(w.step(), "the lost map regenerates");
        }
        let entry = w.views[reduce].get(&t).expect("the map's completion brings the entry back");
        assert_eq!(entry.head_arrival_seq, 1, "headed by job 0");
        assert_eq!(entry.runnable_tasks, w.jobs[0].pending_reduces.len() as u64);
        assert_eq!(w.views[reduce], w.view_for(SlotKind::Reduce));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A `TaskTable` answers as the `BTreeMap` it replaced: the same
        /// lookups, count and index order after every insert, remove and
        /// drain. Crash handling walks tables in this order, though no
        /// report can show it: a job's tasks of one kind are
        /// interchangeable.
        #[test]
        fn task_table_answers_as_the_btreemap_it_replaced(
            ops in proptest::collection::vec((0u32..5, 0u32..16, 0u32..1000), 0..64),
        ) {
            let mut table = TaskTable::with_tasks(16);
            let mut model = BTreeMap::new();
            for (op, index, value) in ops {
                match op {
                    0 | 1 => {
                        table.insert(index, value);
                        model.insert(index, value);
                    }
                    2 | 3 => prop_assert_eq!(table.remove(index), model.remove(&index)),
                    _ => prop_assert_eq!(
                        table.drain().collect::<Vec<_>>(),
                        std::mem::take(&mut model).into_iter().collect::<Vec<_>>()
                    ),
                }
                prop_assert_eq!(table.get(index), model.get(&index));
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(
                    table.iter().map(|(i, v)| (i, *v)).collect::<Vec<_>>(),
                    model.iter().map(|(i, v)| (*i, *v)).collect::<Vec<_>>()
                );
            }
        }

        /// After every event, the active set, the unfinished count, the
        /// per-tenant counters and both kept views equal a recomputation
        /// over `jobs`.
        #[test]
        fn incremental_bookkeeping_matches_a_recomputation(
            (nodes, tenants, cap, seed) in (20u32..=60, 1u32..=4, 1u32..=8, 0u64..1_000_000),
            counts in proptest::collection::vec(1u32..=12, 4),
            (policy, mode) in (0usize..3, 0usize..4),
            faults in proptest::collection::vec((proptest::bool::ANY, 0u32..60, 0.0f64..400.0), 0..=2),
        ) {
            let policy = [SchedPolicyKind::Fifo, SchedPolicyKind::Capacity, SchedPolicyKind::Fair][policy];
            let mode = [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg][mode];
            let mut c = WarehouseCampaign::synthetic(nodes, tenants, 12, policy, mode, seed);
            c.spec.sched.max_concurrent_jobs_per_tenant = cap;
            let mut kept = [0u32; 4];
            c.jobs.retain(|j| {
                let t = j.tenant as usize;
                kept[t] += 1;
                kept[t] <= counts[t]
            });
            c.faults = faults
                .into_iter()
                .map(|(rack, target, at_secs)| {
                    if rack {
                        WarehouseFault::CrashRack { rack: target, at_secs }
                    } else {
                        WarehouseFault::CrashNode { node: target, at_secs }
                    }
                })
                .collect();
            let mut w = Warehouse::new(c.spec, seed, &c.jobs, &c.faults)?;
            check_bookkeeping(&w)?;
            while w.step() {
                check_bookkeeping(&w)?;
            }
        }
    }
}
