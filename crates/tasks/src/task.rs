//! The task type itself, its builder, and the communication-cost model.

use std::fmt;

use paragon_des::{Duration, Time};
use serde::{Deserialize, Serialize};

use crate::affinity::AffinitySet;
use crate::ids::{ProcessorId, TaskId};
use crate::resources::ResourceRequest;

/// An aperiodic, non-preemptable, independent real-time task (`T_i`).
///
/// A task is immutable once built: schedulers never mutate tasks, they only
/// decide where and when to run them. Construct one through [`Task::builder`].
///
/// # Example
///
/// ```
/// use paragon_des::{Duration, Time};
/// use rt_task::{AffinitySet, ProcessorId, Task, TaskId};
///
/// let t = Task::builder(TaskId::new(0))
///     .processing_time(Duration::from_millis(4))
///     .arrival(Time::from_millis(1))
///     .deadline(Time::from_millis(20))
///     .affinity(AffinitySet::from_iter([ProcessorId::new(1)]))
///     .build();
/// assert_eq!(t.slack(Time::from_millis(1)), Duration::from_millis(15));
/// assert!(!t.is_expired(Time::from_millis(1)));
/// assert!(t.is_expired(Time::from_millis(17)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Task {
    id: TaskId,
    processing_time: Duration,
    arrival: Time,
    deadline: Time,
    affinity: AffinitySet,
    resources: Vec<ResourceRequest>,
}

impl Task {
    /// Starts building a task with the given id.
    #[must_use]
    pub fn builder(id: TaskId) -> TaskBuilder {
        TaskBuilder::new(id)
    }

    /// The task's identifier.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The processing time `p_i`: how long the task executes once started
    /// (excluding any communication delay).
    #[must_use]
    #[inline]
    pub fn processing_time(&self) -> Duration {
        self.processing_time
    }

    /// The arrival time `a_i`.
    #[must_use]
    pub fn arrival(&self) -> Time {
        self.arrival
    }

    /// The absolute deadline `d_i`.
    #[must_use]
    #[inline]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// The processors holding this task's referenced data in local memory.
    #[must_use]
    #[inline]
    pub fn affinity(&self) -> &AffinitySet {
        &self.affinity
    }

    /// The resources this task holds for the whole of its execution
    /// (empty for the paper's independent tasks).
    #[must_use]
    #[inline]
    pub fn resources(&self) -> &[ResourceRequest] {
        &self.resources
    }

    /// A copy of this task with the given resource requirements — used by
    /// workload decorators, since tasks are otherwise immutable.
    #[must_use]
    pub fn with_resources(&self, resources: Vec<ResourceRequest>) -> Task {
        Task {
            resources,
            ..self.clone()
        }
    }

    /// The slack at instant `now`: the maximum time execution can still be
    /// delayed without missing the deadline, `d_i − now − p_i`, clamped at
    /// zero (paper, Section 4.2 footnote).
    ///
    /// The slack is optimistic in that it assumes execution on an affine
    /// processor (zero communication cost), matching the paper's use of slack
    /// purely as a bound on scheduling-time allocation.
    #[must_use]
    pub fn slack(&self, now: Time) -> Duration {
        self.deadline
            .saturating_since(now)
            .saturating_sub(self.processing_time)
    }

    /// Whether the deadline can no longer be met even if execution starts
    /// immediately on an affine processor: `now + p_i > d_i` (the paper's
    /// batch-filtering test `p_i + t_c > d_i`).
    #[must_use]
    pub fn is_expired(&self, now: Time) -> bool {
        now + self.processing_time > self.deadline
    }

    /// Whether finishing at `completion` meets the deadline.
    #[must_use]
    #[inline]
    pub fn meets_deadline(&self, completion: Time) -> bool {
        completion <= self.deadline
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(p={}, a={}, d={}, aff={})",
            self.id, self.processing_time, self.arrival, self.deadline, self.affinity
        )
    }
}

/// Incremental construction of a [`Task`].
///
/// Defaults: zero arrival, empty affinity. `processing_time` and `deadline`
/// must be supplied.
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    id: TaskId,
    processing_time: Option<Duration>,
    arrival: Time,
    deadline: Option<Time>,
    affinity: AffinitySet,
    resources: Vec<ResourceRequest>,
}

impl TaskBuilder {
    fn new(id: TaskId) -> Self {
        TaskBuilder {
            id,
            processing_time: None,
            arrival: Time::ZERO,
            deadline: None,
            affinity: AffinitySet::new(),
            resources: Vec::new(),
        }
    }

    /// Sets the processing time `p_i` (required, must be non-zero).
    #[must_use]
    pub fn processing_time(mut self, p: Duration) -> Self {
        self.processing_time = Some(p);
        self
    }

    /// Sets the arrival time `a_i` (defaults to [`Time::ZERO`]).
    #[must_use]
    pub fn arrival(mut self, a: Time) -> Self {
        self.arrival = a;
        self
    }

    /// Sets the absolute deadline `d_i` (required).
    #[must_use]
    pub fn deadline(mut self, d: Time) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the affinity set (defaults to empty).
    #[must_use]
    pub fn affinity(mut self, affinity: AffinitySet) -> Self {
        self.affinity = affinity;
        self
    }

    /// Sets the resource requirements (defaults to none).
    #[must_use]
    pub fn resources(mut self, resources: Vec<ResourceRequest>) -> Self {
        self.resources = resources;
        self
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if `processing_time` or `deadline` was not set, if the
    /// processing time is zero, or if the deadline precedes the arrival —
    /// all of which indicate workload-generator bugs rather than recoverable
    /// conditions.
    #[must_use]
    pub fn build(self) -> Task {
        let processing_time = self
            .processing_time
            .expect("TaskBuilder: processing_time is required");
        let deadline = self.deadline.expect("TaskBuilder: deadline is required");
        assert!(
            !processing_time.is_zero(),
            "TaskBuilder: processing time must be non-zero for {}",
            self.id
        );
        assert!(
            deadline >= self.arrival,
            "TaskBuilder: deadline {deadline} precedes arrival {} for {}",
            self.arrival,
            self.id
        );
        Task {
            id: self.id,
            processing_time,
            arrival: self.arrival,
            deadline,
            affinity: self.affinity,
            resources: self.resources,
        }
    }
}

/// The interconnect communication-cost model.
///
/// The paper's model (`c_ij ∈ {0, C}`): in distributed architectures with
/// cut-through (wormhole) routing, inter-processor communication cost is
/// independent of distance, so a constant `C` is paid whenever a task
/// executes on a processor it has no affinity with
/// ([`CommModel::constant`]). The unabstracted alternative
/// ([`CommModel::mesh`]) prices the fetch by actual 2D-mesh hop distance
/// from the nearest processor holding the data — used to validate the
/// constant-`C` abstraction. The sharded-cluster alternative
/// ([`CommModel::hierarchical`]) prices the fetch by hierarchy class —
/// intra-node, inter-node, inter-rack — and degenerates to the flat model
/// for a 1-node topology ([`crate::TopologySpec::flat`]).
///
/// # Example
///
/// ```
/// use paragon_des::Duration;
/// use rt_task::{CommModel, MeshSpec};
///
/// let comm = CommModel::constant(Duration::from_micros(500));
/// assert_eq!(comm.constant_cost(), Duration::from_micros(500));
/// let mesh = CommModel::mesh(MeshSpec::new(5, 2, 500, 125));
/// assert_eq!(mesh.constant_cost(), Duration::from_micros(500 + 5 * 125));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommModel {
    /// Distance-independent cost `C` per non-affine execution.
    Constant {
        /// The constant `C`.
        c: Duration,
    },
    /// Distance-dependent cost on a 2D mesh: a non-affine execution fetches
    /// the data from the *nearest* affine processor.
    Mesh {
        /// Mesh geometry and per-message costs.
        spec: crate::mesh::MeshSpec,
    },
    /// Hierarchical cost on a sharded cluster: a non-affine execution pays
    /// the cheapest class (intra-node, inter-node, inter-rack) whose span
    /// still reaches an affine processor.
    Hierarchical {
        /// Cluster geometry and per-class costs.
        spec: crate::topology::TopologySpec,
    },
}

impl CommModel {
    /// A model where every non-affine execution pays `c`.
    #[must_use]
    pub const fn constant(c: Duration) -> Self {
        CommModel::Constant { c }
    }

    /// A model with free communication (equivalent to full replication).
    #[must_use]
    pub const fn free() -> Self {
        CommModel::Constant { c: Duration::ZERO }
    }

    /// A distance-based model on the given mesh.
    #[must_use]
    pub const fn mesh(spec: crate::mesh::MeshSpec) -> Self {
        CommModel::Mesh { spec }
    }

    /// A hierarchy-class model on the given sharded topology.
    #[must_use]
    pub const fn hierarchical(spec: crate::topology::TopologySpec) -> Self {
        CommModel::Hierarchical { spec }
    }

    /// The topology behind a hierarchical model, if this is one.
    #[must_use]
    pub const fn topology(&self) -> Option<&crate::topology::TopologySpec> {
        match self {
            CommModel::Hierarchical { spec } => Some(spec),
            _ => None,
        }
    }

    /// The worst-case non-affine cost: `C` for the constant model, the
    /// diameter-path cost for the mesh, the worst hierarchy class for a
    /// topology.
    #[must_use]
    pub fn constant_cost(&self) -> Duration {
        match self {
            CommModel::Constant { c } => *c,
            CommModel::Mesh { spec } => {
                Duration::from_micros(spec.hop_cost_micros(spec.diameter()))
            }
            CommModel::Hierarchical { spec } => spec.worst_class(),
        }
    }

    /// The communication cost `c_ij` for executing `task` on `proc`: zero if
    /// the task has affinity with the processor; otherwise `C` (constant
    /// model), the cheapest fetch from an affine processor (mesh model;
    /// worst-case diameter cost if the task has affinity with nothing), or
    /// the cheapest hierarchy class reaching an affine processor
    /// (hierarchical model; worst class with no affinity).
    #[must_use]
    #[inline]
    pub fn cost(&self, task: &Task, proc: ProcessorId) -> Duration {
        self.affinity_cost(task.affinity(), proc)
    }

    /// [`CommModel::cost`] for any task whose affinity set is `affinity`:
    /// under every model the cost depends on the task only through that
    /// set, so tasks sharing a set share every cost.
    #[must_use]
    #[inline]
    pub fn affinity_cost(&self, affinity: &AffinitySet, proc: ProcessorId) -> Duration {
        if affinity.contains(proc) {
            return Duration::ZERO;
        }
        match self {
            CommModel::Constant { c } => *c,
            CommModel::Mesh { spec } => {
                let hops = affinity
                    .iter()
                    .map(|home| spec.distance(home, proc))
                    .min()
                    .unwrap_or_else(|| spec.diameter());
                Duration::from_micros(spec.hop_cost_micros(hops))
            }
            CommModel::Hierarchical { spec } => spec.cost(affinity, proc),
        }
    }

    /// The total demand `p_i + c_ij` the assignment `(T_i → P_j)` places on
    /// the processor.
    #[must_use]
    #[inline]
    pub fn demand(&self, task: &Task, proc: ProcessorId) -> Duration {
        task.processing_time() + self.cost(task, proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(p_ms: u64, d_ms: u64) -> Task {
        Task::builder(TaskId::new(1))
            .processing_time(Duration::from_millis(p_ms))
            .deadline(Time::from_millis(d_ms))
            .build()
    }

    #[test]
    fn builder_sets_all_fields() {
        let aff: AffinitySet = [ProcessorId::new(2)].into_iter().collect();
        let t = Task::builder(TaskId::new(9))
            .processing_time(Duration::from_micros(10))
            .arrival(Time::from_micros(5))
            .deadline(Time::from_micros(100))
            .affinity(aff.clone())
            .build();
        assert_eq!(t.id(), TaskId::new(9));
        assert_eq!(t.processing_time(), Duration::from_micros(10));
        assert_eq!(t.arrival(), Time::from_micros(5));
        assert_eq!(t.deadline(), Time::from_micros(100));
        assert_eq!(t.affinity(), &aff);
    }

    #[test]
    #[should_panic(expected = "processing_time is required")]
    fn builder_requires_processing_time() {
        let _ = Task::builder(TaskId::new(0))
            .deadline(Time::from_millis(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "deadline is required")]
    fn builder_requires_deadline() {
        let _ = Task::builder(TaskId::new(0))
            .processing_time(Duration::from_millis(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn builder_rejects_zero_processing_time() {
        let _ = Task::builder(TaskId::new(0))
            .processing_time(Duration::ZERO)
            .deadline(Time::from_millis(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "precedes arrival")]
    fn builder_rejects_deadline_before_arrival() {
        let _ = Task::builder(TaskId::new(0))
            .processing_time(Duration::from_micros(1))
            .arrival(Time::from_millis(5))
            .deadline(Time::from_millis(1))
            .build();
    }

    #[test]
    fn slack_shrinks_with_time_and_clamps() {
        let t = task(2, 10);
        assert_eq!(t.slack(Time::ZERO), Duration::from_millis(8));
        assert_eq!(t.slack(Time::from_millis(5)), Duration::from_millis(3));
        assert_eq!(t.slack(Time::from_millis(8)), Duration::ZERO);
        assert_eq!(t.slack(Time::from_millis(50)), Duration::ZERO);
    }

    #[test]
    fn expiry_matches_paper_test() {
        let t = task(2, 10);
        // p + t_c > d  <=>  t_c > 8ms
        assert!(!t.is_expired(Time::from_millis(8)));
        assert!(t.is_expired(Time::from_micros(8_001)));
    }

    #[test]
    fn meets_deadline_is_inclusive() {
        let t = task(2, 10);
        assert!(t.meets_deadline(Time::from_millis(10)));
        assert!(!t.meets_deadline(Time::from_micros(10_001)));
    }

    #[test]
    fn comm_model_costs() {
        let aff: AffinitySet = [ProcessorId::new(0)].into_iter().collect();
        let t = Task::builder(TaskId::new(3))
            .processing_time(Duration::from_millis(1))
            .deadline(Time::from_millis(100))
            .affinity(aff)
            .build();
        let comm = CommModel::constant(Duration::from_micros(250));
        assert_eq!(comm.cost(&t, ProcessorId::new(0)), Duration::ZERO);
        assert_eq!(
            comm.cost(&t, ProcessorId::new(1)),
            Duration::from_micros(250)
        );
        assert_eq!(
            comm.demand(&t, ProcessorId::new(0)),
            Duration::from_millis(1)
        );
        assert_eq!(
            comm.demand(&t, ProcessorId::new(1)),
            Duration::from_micros(1_250)
        );
        assert_eq!(
            CommModel::free().cost(&t, ProcessorId::new(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_mentions_id() {
        assert!(task(1, 2).to_string().contains("T1"));
    }

    #[test]
    fn mesh_comm_prices_by_nearest_home() {
        use crate::mesh::MeshSpec;
        // 4x1 line mesh: P0 - P1 - P2 - P3; data on P0 and P3
        let aff: AffinitySet = [ProcessorId::new(0), ProcessorId::new(3)]
            .into_iter()
            .collect();
        let t = Task::builder(TaskId::new(5))
            .processing_time(Duration::from_millis(1))
            .deadline(Time::from_millis(100))
            .affinity(aff)
            .build();
        let comm = CommModel::mesh(MeshSpec::new(4, 1, 100, 10));
        // local on either home
        assert_eq!(comm.cost(&t, ProcessorId::new(0)), Duration::ZERO);
        assert_eq!(comm.cost(&t, ProcessorId::new(3)), Duration::ZERO);
        // P1 is 1 hop from P0 (and 2 from P3): 100 + 10
        assert_eq!(
            comm.cost(&t, ProcessorId::new(1)),
            Duration::from_micros(110)
        );
        // P2 is 1 hop from P3
        assert_eq!(
            comm.cost(&t, ProcessorId::new(2)),
            Duration::from_micros(110)
        );
    }

    #[test]
    fn mesh_comm_empty_affinity_pays_diameter() {
        use crate::mesh::MeshSpec;
        let t = Task::builder(TaskId::new(6))
            .processing_time(Duration::from_millis(1))
            .deadline(Time::from_millis(100))
            .build();
        let comm = CommModel::mesh(MeshSpec::new(3, 3, 100, 10));
        // diameter 4 hops
        assert_eq!(
            comm.cost(&t, ProcessorId::new(4)),
            Duration::from_micros(140)
        );
        assert_eq!(comm.constant_cost(), Duration::from_micros(140));
    }
}
