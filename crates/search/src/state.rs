//! Partial-schedule state along one root-to-vertex path.

use paragon_des::{Duration, Time};
use rt_task::{CommModel, ProcessorId, ResourceEats, Task};

/// One committed task-to-processor assignment (a vertex of `G` on the
/// current path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index of the task within the batch being scheduled.
    pub task: usize,
    /// The processor it is assigned to.
    pub processor: ProcessorId,
    /// The predicted completion instant `se_lk` (absolute virtual time,
    /// already including the phase-end bound `t_c + RQ_s`).
    pub completion: Time,
}

/// The partial schedule a root-to-vertex path represents.
///
/// Per-processor finish times start from
/// `max(worker availability, planned execution start)`, which folds the
/// paper's feasibility test `t_c + RQ_s(j) + se_lk ≤ d_l` into a single
/// comparison `completion ≤ d_l`: during a phase, `t_c + RQ_s(j)` is the
/// constant `t_s + Q_s(j)` (the planned phase end).
///
/// # Example
///
/// ```
/// use paragon_des::{Duration, Time};
/// use rt_task::{AffinitySet, CommModel, ProcessorId, Task, TaskId};
/// use sched_search::PathState;
///
/// let tasks = vec![Task::builder(TaskId::new(0))
///     .processing_time(Duration::from_millis(2))
///     .deadline(Time::from_millis(30))
///     .affinity(AffinitySet::from_iter([ProcessorId::new(0)]))
///     .build()];
/// let comm = CommModel::constant(Duration::from_millis(1));
/// // both processors become free at t=10ms (planned execution start)
/// let mut state = PathState::new(vec![Time::from_millis(10); 2], tasks.len());
/// let done = state.completion_if(&tasks, &comm, 0, ProcessorId::new(1));
/// assert_eq!(done, Time::from_millis(13)); // 10 + p(2) + C(1)
/// state.apply(&tasks, &comm, 0, ProcessorId::new(1));
/// assert!(state.is_complete());
/// assert_eq!(state.makespan(), Time::from_millis(13));
/// ```
#[derive(Debug, Clone)]
pub struct PathState {
    assigned: Vec<bool>,
    n_assigned: usize,
    finish: Vec<Time>,
    assignments: Vec<Assignment>,
    resources: ResourceEats,
    undo_log: Vec<UndoRecord>,
    /// Cumulative shard end indices (`shard s` covers processors
    /// `[ends[s-1], ends[s])`). Empty = unsharded, the flat default.
    shard_ends: Vec<usize>,
    /// Per-shard minimum finish time, maintained incrementally — the SoA
    /// column the shard-first screen aggregates per shard.
    shard_min: Vec<Time>,
    /// Latest finish time over all processors, maintained as a running max
    /// by `apply` (appending only delays a processor) and restored from the
    /// undo log by `undo` — `makespan()` in O(1) instead of an O(P) scan.
    makespan: Time,
    /// Touched-processor journal: every `apply` and `undo` appends the index
    /// of the processor whose finish time it changed. Candidate columns
    /// record the journal position they were filled at and replay only the
    /// suffix on reuse — the O(Δ) dirty-tracking that replaces the O(P)
    /// per-vertex refill.
    journal: Vec<u32>,
    /// Phase generation; bumped by `reset` and `configure_shards` so column
    /// segments synced earlier are recognised as stale without being
    /// cleared.
    col_gen: u64,
    /// Bumped whenever the resource EATs change (`apply`/`undo` of a
    /// resource-holding task). Columns cache the task's resource
    /// earliest-start and revalidate it lazily against this epoch.
    res_epoch: u64,
    /// Per-task candidate-column heads, indexed by batch task index. Grows
    /// to the largest batch seen; never shrinks.
    heads: Vec<ColumnHead>,
    /// Per-(task, segment) sync states, at `task * column_segments() +
    /// seg`. Grows like `heads`.
    segs: Vec<SegState>,
    /// This phase's candidate-column cells: a segment's first cold fill in
    /// a phase appends its range, and later resyncs rewrite that run in
    /// place. `reset` clears it and keeps its capacity, so a phase holds
    /// only the segments it touched, not a `P`-long column per task.
    slab: Vec<Cell>,
    /// Iterative segment min-tree over `finish`, maintained only when
    /// sharded: leaves `[len/2, len/2 + P)` mirror `finish`, padded to a
    /// power of two with `Time::MAX`. An `apply`/`undo` updates one
    /// root-to-leaf path (O(log P)) and the touched shard's minimum is a
    /// range-min query, replacing the O(shard size) rescan.
    tree: Vec<Time>,
}

/// What all segments of one task's candidate column share. The column is
/// the completion instant the task would have on every processor
/// (`max(finish_k, earliest) + demand_k`), maintained incrementally across
/// vertices of the same phase.
///
/// Validity is tracked per *segment* (the shard partition when sharded, one
/// segment covering all processors otherwise): each segment remembers the
/// phase generation it was cold-filled in, the journal position it was last
/// synchronised at and where its cells sit in the slab, so the shard-first
/// screen only ever pays for the segments it actually enumerates.
#[derive(Debug, Clone, Copy)]
struct ColumnHead {
    /// The task's resource earliest-start the column's completions were
    /// computed against.
    earliest: Time,
    /// Resource epoch `earliest` was taken at.
    res_epoch: u64,
    /// Phase generation `earliest` was taken at.
    gen: u64,
}

impl ColumnHead {
    /// A head no phase has taken (`col_gen` starts at 1).
    const STALE: ColumnHead = ColumnHead {
        earliest: Time::ZERO,
        res_epoch: 0,
        gen: 0,
    };
}

/// Synchronisation point of one column segment: the phase generation it was
/// cold-filled in, the journal length it has replayed up to, and the offset
/// of its cells in the slab.
#[derive(Debug, Clone, Copy, Default)]
struct SegState {
    gen: u64,
    /// Past the journal's end ([`SegState::REFILL`]) once the task's
    /// resource earliest-start changed, which forces a refill.
    journal_pos: usize,
    slot: usize,
}

impl SegState {
    /// The journal position that forces the next sync to refill the whole
    /// segment from its cached demands.
    const REFILL: usize = usize::MAX;
}

/// One candidate-column entry: the state-independent demand `p_l + c_lk`
/// and the completion it yields against the current state.
#[derive(Debug, Clone, Copy)]
struct Cell {
    demand: Duration,
    completion: Time,
}

/// Semantic equality: two states are equal when they represent the same
/// partial schedule. The incremental caches (journal, candidate columns,
/// segment min-tree, generation counters) are deliberately excluded — they
/// are derived performance state whose shape depends on the access history,
/// not on the schedule.
impl PartialEq for PathState {
    fn eq(&self, other: &Self) -> bool {
        self.assigned == other.assigned
            && self.n_assigned == other.n_assigned
            && self.finish == other.finish
            && self.assignments == other.assignments
            && self.resources == other.resources
            && self.undo_log == other.undo_log
            && self.shard_ends == other.shard_ends
            && self.shard_min == other.shard_min
            && self.makespan == other.makespan
    }
}

impl Eq for PathState {}

/// What [`PathState::apply`] displaced, kept so [`PathState::undo`] can
/// revert one assignment in O(1) (plus the resource snapshot for the rare
/// resource-holding task).
///
/// The fields are exactly the state an assignment can clobber: the assigned
/// processor's previous finish time, its shard's previous minimum finish
/// (meaningless — [`Time::ZERO`] — when unsharded), the previous makespan
/// (the running max cannot be inverted locally), and — only when the task
/// holds resources, since [`ResourceEats::commit`] is a max-merge that
/// cannot be inverted locally — a snapshot of the resource EATs taken before
/// the commit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UndoRecord {
    prev_finish: Time,
    prev_shard_min: Time,
    prev_makespan: Time,
    prev_resources: Option<ResourceEats>,
}

impl PathState {
    /// Creates the root state (empty schedule).
    ///
    /// `initial_finish[k]` is the instant processor `P_k` could start new
    /// work: `max(busy_until_k, t_s + Q_s)`.
    ///
    /// # Panics
    ///
    /// Panics if there are no processors.
    #[must_use]
    pub fn new(initial_finish: Vec<Time>, n_tasks: usize) -> Self {
        Self::with_resources(initial_finish, n_tasks, ResourceEats::new())
    }

    /// Creates the root state carrying the machine's current resource
    /// earliest-available times (for resource-constrained task systems).
    ///
    /// # Panics
    ///
    /// Panics if there are no processors.
    #[must_use]
    pub fn with_resources(
        initial_finish: Vec<Time>,
        n_tasks: usize,
        resources: ResourceEats,
    ) -> Self {
        assert!(!initial_finish.is_empty(), "PathState needs processors");
        let makespan = *initial_finish.iter().max().expect("non-empty");
        let mut state = PathState {
            assigned: vec![false; n_tasks],
            n_assigned: 0,
            finish: initial_finish,
            assignments: Vec::new(),
            resources,
            undo_log: Vec::new(),
            shard_ends: Vec::new(),
            shard_min: Vec::new(),
            makespan,
            journal: Vec::new(),
            col_gen: 0,
            res_epoch: 0,
            heads: Vec::new(),
            segs: Vec::new(),
            slab: Vec::new(),
            tree: Vec::new(),
        };
        state.renew_columns();
        state
    }

    /// Rewinds this state to a fresh root, reusing every backing buffer.
    ///
    /// Equivalent to `*self = PathState::with_resources(initial_finish.to_vec(),
    /// n_tasks, resources.clone())` but allocation-free once the buffers have
    /// grown to their steady-state capacity — the per-phase reuse path of the
    /// search scratch.
    ///
    /// # Panics
    ///
    /// Panics if there are no processors.
    pub fn reset(&mut self, initial_finish: &[Time], n_tasks: usize, resources: &ResourceEats) {
        assert!(!initial_finish.is_empty(), "PathState needs processors");
        self.assigned.clear();
        self.assigned.resize(n_tasks, false);
        self.n_assigned = 0;
        self.finish.clear();
        self.finish.extend_from_slice(initial_finish);
        self.assignments.clear();
        self.resources.copy_from(resources);
        self.undo_log.clear();
        self.shard_ends.clear();
        self.shard_min.clear();
        self.makespan = *initial_finish.iter().max().expect("non-empty");
        self.journal.clear();
        self.res_epoch = 0;
        self.tree.clear();
        self.renew_columns();
    }

    /// Starts a new column generation: every segment synced so far reads as
    /// stale, the slab is emptied (capacity kept), and the heads and
    /// segment states grow to cover this phase's tasks at the current
    /// segment count. They never shrink, so a warmed state allocates
    /// nothing here.
    fn renew_columns(&mut self) {
        self.col_gen += 1;
        self.slab.clear();
        let n = self.assigned.len();
        if self.heads.len() < n {
            self.heads.resize(n, ColumnHead::STALE);
        }
        let segs = n * self.column_segments();
        if self.segs.len() < segs {
            self.segs.resize(segs, SegState::default());
        }
    }

    /// Partitions the processors into shards for shard-first candidate
    /// generation. `ends[s]` is the exclusive upper processor index of shard
    /// `s`; shard `s` covers `[ends[s-1], ends[s])`. Called after
    /// construction or [`PathState::reset`]; clear-don't-drop, so repeated
    /// configuration is allocation-free at steady state.
    ///
    /// # Panics
    ///
    /// Panics unless `ends` is strictly increasing and covers every
    /// processor exactly.
    pub fn configure_shards(&mut self, ends: &[usize]) {
        assert!(
            ends.last() == Some(&self.finish.len()),
            "shard ends must cover every processor"
        );
        assert!(
            ends.windows(2).all(|w| w[0] < w[1]) && ends[0] > 0,
            "shard ends must be strictly increasing"
        );
        self.shard_ends.clear();
        self.shard_ends.extend_from_slice(ends);
        self.shard_min.clear();
        let mut lo = 0;
        for &hi in ends {
            let min = *self.finish[lo..hi].iter().min().expect("non-empty shard");
            self.shard_min.push(min);
            lo = hi;
        }
        // Build the segment min-tree over the finish column: leaves padded
        // to a power of two with Time::MAX so internal nodes need no bounds
        // checks. Clear-don't-drop keeps repeated configuration
        // allocation-free at steady state.
        let p = self.finish.len();
        let size = p.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * size, Time::MAX);
        self.tree[size..size + p].copy_from_slice(&self.finish);
        for i in (1..size).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
        // The segment layout changed, so no synced segment stays valid.
        self.renew_columns();
    }

    /// Re-anchors leaf `p` of the min-tree at `finish[p]` and recomputes its
    /// root-to-leaf path. O(log P).
    fn tree_update(&mut self, p: usize) {
        let size = self.tree.len() / 2;
        let mut i = size + p;
        self.tree[i] = self.finish[p];
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// Minimum of `finish[lo..hi]` via the min-tree. O(log P).
    fn tree_range_min(&self, lo: usize, hi: usize) -> Time {
        let size = self.tree.len() / 2;
        let (mut lo, mut hi) = (lo + size, hi + size);
        let mut m = Time::MAX;
        while lo < hi {
            if lo & 1 == 1 {
                m = m.min(self.tree[lo]);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                m = m.min(self.tree[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        m
    }

    /// Number of configured shards (zero when unsharded).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shard_ends.len()
    }

    /// The minimum processor finish time within shard `s` — the earliest
    /// instant *any* processor of the shard could start new work.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a configured shard.
    #[must_use]
    pub fn shard_min(&self, s: usize) -> Time {
        self.shard_min[s]
    }

    /// The earliest start instant `task`'s resource requests allow,
    /// independent of processor choice — the resource half of
    /// [`PathState::completion_if`], exposed so the shard screen can bound
    /// completions without touching per-processor state.
    #[must_use]
    pub fn earliest_resource_start(&self, task: &Task) -> Time {
        self.resources.earliest_start(task.resources())
    }

    /// Which shard hosts processor `p`.
    fn shard_of(&self, p: usize) -> usize {
        self.shard_ends.partition_point(|&e| e <= p)
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.finish.len()
    }

    /// Number of tasks in the batch.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.assigned.len()
    }

    /// Number of tasks assigned so far (the current depth in `G`).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.n_assigned
    }

    /// Whether every batch task is assigned (a leaf of `G` — a complete
    /// schedule).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.n_assigned == self.assigned.len()
    }

    /// Whether batch task `task` is already in the partial schedule.
    #[must_use]
    pub fn is_assigned(&self, task: usize) -> bool {
        self.assigned[task]
    }

    /// Indices of tasks not yet assigned, ascending.
    pub fn unassigned(&self) -> impl Iterator<Item = usize> + '_ {
        self.assigned
            .iter()
            .enumerate()
            .filter(|(_, &a)| !a)
            .map(|(i, _)| i)
    }

    /// The current finish time of processor `p` under this partial schedule
    /// (the paper's `ce_k`, as an absolute instant).
    #[must_use]
    pub fn finish_of(&self, p: ProcessorId) -> Time {
        self.finish[p.index()]
    }

    /// The earliest finish time over all processors: no task can start
    /// anywhere before it. O(P).
    #[must_use]
    pub(crate) fn min_finish(&self) -> Time {
        *self.finish.iter().min().expect("PathState has processors")
    }

    /// The completion instant task `task` would have if appended to
    /// processor `p` now — without mutating the state.
    #[must_use]
    pub fn completion_if(
        &self,
        tasks: &[Task],
        comm: &CommModel,
        task: usize,
        p: ProcessorId,
    ) -> Time {
        let t = &tasks[task];
        let start = self.finish[p.index()].max(self.resources.earliest_start(t.resources()));
        start + comm.demand(t, p)
    }

    /// Number of candidate-column segments: the shard partition when
    /// sharded, one segment covering every processor otherwise.
    #[must_use]
    pub fn column_segments(&self) -> usize {
        self.shard_ends.len().max(1)
    }

    /// Processor range `[lo, hi)` covered by column segment `seg`.
    fn seg_range(&self, seg: usize) -> (usize, usize) {
        if self.shard_ends.is_empty() {
            (0, self.finish.len())
        } else {
            let lo = if seg == 0 {
                0
            } else {
                self.shard_ends[seg - 1]
            };
            (lo, self.shard_ends[seg])
        }
    }

    /// Whether segment `seg` of `task`'s column was cold-filled in this
    /// phase (its cells are in the slab).
    fn synced(&self, task: usize, seg: usize) -> bool {
        self.segs[task * self.column_segments() + seg].gen == self.col_gen
    }

    /// Brings segment `seg` of `task`'s candidate column up to date with the
    /// current state, in O(Δ) where Δ is the number of journal entries since
    /// the segment last synchronised (O(segment size) on the first touch per
    /// phase, which appends the segment to the slab, or when Δ would exceed
    /// a straight refill).
    ///
    /// The caller prices the segment: `demand(k)` is the task's demand
    /// `p + c_k` on processor `k`, read once per cell on the segment's
    /// first touch in a phase and cached in the cell for every later sync.
    /// The search passes its per-phase (affinity class, node) cost table's
    /// entry — `p` on an affine processor, `p` plus the class's cost on the
    /// node elsewhere — and prices each processor only on the mesh.
    ///
    /// Each entry of the synchronised range equals
    /// [`PathState::completion_if`] for the same `(task, processor)` pair —
    /// bit-for-bit, since both compute `max(finish_k, earliest) + demand_k`
    /// from the same operands — whenever `demand` agrees with
    /// [`CommModel::demand`].
    pub fn ensure_candidate_segment(
        &mut self,
        tasks: &[Task],
        task: usize,
        seg: usize,
        demand: impl Fn(usize) -> Duration,
    ) {
        let n_segs = self.column_segments();
        let (lo, hi) = self.seg_range(seg);
        let t = &tasks[task];
        // Revalidate the cached resource earliest-start. A changed value
        // shifts every completion of the column, so each segment synced
        // this phase must refill (in place: its cells and demands stay);
        // an unchanged one costs a single epoch compare on the
        // (overwhelmingly common) resource-free path.
        let head = &mut self.heads[task];
        if head.gen != self.col_gen {
            head.earliest = self.resources.earliest_start(t.resources());
            head.res_epoch = self.res_epoch;
            head.gen = self.col_gen;
        } else if head.res_epoch != self.res_epoch {
            let e = self.resources.earliest_start(t.resources());
            head.res_epoch = self.res_epoch;
            if e != head.earliest {
                head.earliest = e;
                for s in &mut self.segs[task * n_segs..(task + 1) * n_segs] {
                    s.journal_pos = SegState::REFILL;
                }
            }
        }
        let earliest = head.earliest;
        let journal_len = self.journal.len();
        let sync = &mut self.segs[task * n_segs + seg];
        if sync.gen != self.col_gen {
            // Cold fill: append demand and completion for the whole range.
            *sync = SegState {
                gen: self.col_gen,
                journal_pos: journal_len,
                slot: self.slab.len(),
            };
            let finish = &self.finish;
            self.slab.extend((lo..hi).map(|p| {
                let demand = demand(p);
                Cell {
                    demand,
                    completion: finish[p].max(earliest) + demand,
                }
            }));
            return;
        }
        let cells = &mut self.slab[sync.slot..sync.slot + (hi - lo)];
        match journal_len.checked_sub(sync.journal_pos) {
            Some(delta) if delta < hi - lo => {
                // O(Δ) replay: patch only the processors touched since the
                // segment last synchronised.
                for &p in &self.journal[sync.journal_pos..] {
                    let p = p as usize;
                    if (lo..hi).contains(&p) {
                        let cell = &mut cells[p - lo];
                        cell.completion = self.finish[p].max(earliest) + cell.demand;
                    }
                }
            }
            _ => {
                // A changed earliest-start, or a journal suffix that
                // outweighs a straight refill: demand is cached, so
                // recompute the range directly.
                for (cell, &f) in cells.iter_mut().zip(&self.finish[lo..hi]) {
                    cell.completion = f.max(earliest) + cell.demand;
                }
            }
        }
        sync.journal_pos = journal_len;
    }

    /// Segment `seg` of `task`'s candidate column, as `(processor index,
    /// completion)` pairs in processor order. The completions equal
    /// [`PathState::completion_if`] for the same pairs while no
    /// `apply`/`undo` has followed the segment's last
    /// [`PathState::ensure_candidate_segment`].
    ///
    /// # Panics
    ///
    /// Panics if the segment was not synced in this phase.
    pub fn candidate_segment(
        &self,
        task: usize,
        seg: usize,
    ) -> impl Iterator<Item = (usize, Time)> + '_ {
        assert!(
            self.synced(task, seg),
            "segment {seg} of task {task}'s column was not synced this phase"
        );
        let slot = self.segs[task * self.column_segments() + seg].slot;
        let (lo, hi) = self.seg_range(seg);
        (lo..hi).zip(
            self.slab[slot..slot + (hi - lo)]
                .iter()
                .map(|c| c.completion),
        )
    }

    /// Commits assignment `(task → p)` and returns its completion instant.
    ///
    /// # Panics
    ///
    /// Panics if `task` is already assigned.
    pub fn apply(&mut self, tasks: &[Task], comm: &CommModel, task: usize, p: ProcessorId) -> Time {
        assert!(!self.assigned[task], "task index {task} assigned twice");
        let completion = self.completion_if(tasks, comm, task, p);
        let requests = tasks[task].resources();
        let prev_shard_min = if self.shard_ends.is_empty() {
            Time::ZERO
        } else {
            self.shard_min[self.shard_of(p.index())]
        };
        self.undo_log.push(UndoRecord {
            prev_finish: self.finish[p.index()],
            prev_shard_min,
            prev_makespan: self.makespan,
            prev_resources: if requests.is_empty() {
                None
            } else {
                Some(self.resources.clone())
            },
        });
        self.assigned[task] = true;
        self.n_assigned += 1;
        self.finish[p.index()] = completion;
        // Appending only delays finish[p] (completion ≥ previous finish), so
        // the makespan is a monotone running max.
        self.makespan = self.makespan.max(completion);
        self.journal.push(p.index() as u32);
        if !self.shard_ends.is_empty() {
            // One O(log P) leaf update plus an O(log P) range-min over the
            // affected shard keeps the minimum exact.
            self.tree_update(p.index());
            let s = self.shard_of(p.index());
            let lo = if s == 0 { 0 } else { self.shard_ends[s - 1] };
            let hi = self.shard_ends[s];
            self.shard_min[s] = self.tree_range_min(lo, hi);
        }
        if !requests.is_empty() {
            self.res_epoch += 1;
        }
        self.resources.commit(requests, completion);
        self.assignments.push(Assignment {
            task,
            processor: p,
            completion,
        });
        completion
    }

    /// Reverts the most recent [`PathState::apply`], restoring the displaced
    /// processor finish time (and resource EATs, if the task held any) and
    /// returning the removed assignment. O(1) for resource-free tasks.
    ///
    /// Together with `apply` this lets a search move between sibling
    /// branches of the scheduling tree in O(branch distance) instead of
    /// replaying the whole root-to-vertex path.
    ///
    /// # Panics
    ///
    /// Panics if the state is at the root (nothing to undo).
    pub fn undo(&mut self) -> Assignment {
        let a = self.assignments.pop().expect("undo on the root state");
        let u = self.undo_log.pop().expect("undo log tracks assignments");
        self.assigned[a.task] = false;
        self.n_assigned -= 1;
        self.finish[a.processor.index()] = u.prev_finish;
        self.makespan = u.prev_makespan;
        self.journal.push(a.processor.index() as u32);
        if !self.shard_ends.is_empty() {
            self.tree_update(a.processor.index());
            let s = self.shard_of(a.processor.index());
            self.shard_min[s] = u.prev_shard_min;
        }
        if let Some(resources) = u.prev_resources {
            self.resources = resources;
            self.res_epoch += 1;
        }
        a
    }

    /// The total execution time `CE` of this partial schedule: the latest
    /// finish time over all processors (paper, Section 4.4). O(1) — the
    /// value is maintained incrementally by `apply`/`undo`.
    #[must_use]
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// The committed assignments in path order.
    #[must_use]
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;
    use rt_task::{AffinitySet, TaskId};

    fn mk_tasks(specs: &[(u64, u64, &[usize])]) -> Vec<Task> {
        specs
            .iter()
            .enumerate()
            .map(|(i, (p_us, d_us, aff))| {
                Task::builder(TaskId::new(i as u64))
                    .processing_time(Duration::from_micros(*p_us))
                    .deadline(Time::from_micros(*d_us))
                    .affinity(
                        aff.iter()
                            .map(|&k| ProcessorId::new(k))
                            .collect::<AffinitySet>(),
                    )
                    .build()
            })
            .collect()
    }

    #[test]
    fn root_state_is_empty() {
        let s = PathState::new(vec![Time::ZERO; 3], 4);
        assert_eq!(s.depth(), 0);
        assert_eq!(s.processors(), 3);
        assert_eq!(s.n_tasks(), 4);
        assert!(!s.is_complete());
        assert_eq!(s.unassigned().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(s.makespan(), Time::ZERO);
    }

    #[test]
    fn apply_updates_finish_and_assigned() {
        let tasks = mk_tasks(&[(100, 10_000, &[0]), (200, 10_000, &[1])]);
        let comm = CommModel::constant(Duration::from_micros(50));
        let mut s = PathState::new(vec![Time::from_micros(1_000); 2], 2);
        let c0 = s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        assert_eq!(c0, Time::from_micros(1_100)); // affine, no C
        let c1 = s.apply(&tasks, &comm, 1, ProcessorId::new(0));
        assert_eq!(c1, Time::from_micros(1_350)); // 1100 + 200 + 50 (non-affine)
        assert!(s.is_complete());
        assert_eq!(s.finish_of(ProcessorId::new(0)), Time::from_micros(1_350));
        assert_eq!(s.finish_of(ProcessorId::new(1)), Time::from_micros(1_000));
        assert_eq!(s.makespan(), Time::from_micros(1_350));
        assert_eq!(s.assignments().len(), 2);
        assert!(s.is_assigned(0) && s.is_assigned(1));
    }

    #[test]
    fn completion_if_does_not_mutate() {
        let tasks = mk_tasks(&[(100, 10_000, &[])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let s = PathState::new(vec![Time::ZERO; 2], 1);
        let c = s.completion_if(&tasks, &comm, 0, ProcessorId::new(1));
        assert_eq!(c, Time::from_micros(110));
        assert_eq!(s.depth(), 0);
        assert_eq!(s.finish_of(ProcessorId::new(1)), Time::ZERO);
    }

    #[test]
    fn heterogeneous_initial_finish_respected() {
        let tasks = mk_tasks(&[(100, 10_000, &[1])]);
        let comm = CommModel::free();
        let s = PathState::new(vec![Time::from_micros(500), Time::from_micros(2_000)], 1);
        assert_eq!(
            s.completion_if(&tasks, &comm, 0, ProcessorId::new(1)),
            Time::from_micros(2_100)
        );
        assert_eq!(s.makespan(), Time::from_micros(2_000));
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_apply_panics() {
        let tasks = mk_tasks(&[(100, 10_000, &[])]);
        let comm = CommModel::free();
        let mut s = PathState::new(vec![Time::ZERO], 1);
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
    }

    #[test]
    fn undo_reverts_apply_exactly() {
        let tasks = mk_tasks(&[(100, 10_000, &[0]), (200, 10_000, &[1])]);
        let comm = CommModel::constant(Duration::from_micros(50));
        let mut s = PathState::new(vec![Time::from_micros(1_000); 2], 2);
        let before = s.clone();
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        s.apply(&tasks, &comm, 1, ProcessorId::new(0));
        let a1 = s.undo();
        assert_eq!(a1.task, 1);
        assert_eq!(s.depth(), 1);
        assert!(!s.is_assigned(1));
        assert_eq!(s.finish_of(ProcessorId::new(0)), Time::from_micros(1_100));
        let a0 = s.undo();
        assert_eq!(a0.task, 0);
        assert_eq!(s, before, "undo restores the exact prior state");
    }

    #[test]
    fn undo_restores_resource_eats() {
        use rt_task::ResourceRequest;
        let tasks = vec![
            Task::builder(TaskId::new(0))
                .processing_time(Duration::from_micros(100))
                .deadline(Time::from_micros(10_000))
                .resources(vec![ResourceRequest::exclusive(0)])
                .build(),
            Task::builder(TaskId::new(1))
                .processing_time(Duration::from_micros(100))
                .deadline(Time::from_micros(10_000))
                .resources(vec![ResourceRequest::shared(0)])
                .build(),
        ];
        let comm = CommModel::free();
        let mut s = PathState::new(vec![Time::ZERO; 2], 2);
        let before = s.clone();
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        // task 1 must wait for the exclusive holder even on another processor
        assert_eq!(
            s.completion_if(&tasks, &comm, 1, ProcessorId::new(1)),
            Time::from_micros(200)
        );
        s.undo();
        assert_eq!(s, before);
        // and the resource wait is gone again
        assert_eq!(
            s.completion_if(&tasks, &comm, 1, ProcessorId::new(1)),
            Time::from_micros(100)
        );
    }

    #[test]
    fn interleaved_apply_undo_matches_straight_replay() {
        let tasks = mk_tasks(&[(100, 10_000, &[]), (150, 10_000, &[]), (70, 10_000, &[])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let mut zigzag = PathState::new(vec![Time::ZERO; 2], 3);
        zigzag.apply(&tasks, &comm, 0, ProcessorId::new(0));
        zigzag.apply(&tasks, &comm, 1, ProcessorId::new(1));
        zigzag.undo();
        zigzag.apply(&tasks, &comm, 2, ProcessorId::new(0));
        zigzag.undo();
        zigzag.undo();
        zigzag.apply(&tasks, &comm, 0, ProcessorId::new(0));
        zigzag.apply(&tasks, &comm, 2, ProcessorId::new(1));

        let mut straight = PathState::new(vec![Time::ZERO; 2], 3);
        straight.apply(&tasks, &comm, 0, ProcessorId::new(0));
        straight.apply(&tasks, &comm, 2, ProcessorId::new(1));
        assert_eq!(zigzag, straight);
    }

    #[test]
    fn reset_matches_fresh_construction() {
        use rt_task::ResourceRequest;
        let tasks = mk_tasks(&[(100, 10_000, &[]), (150, 10_000, &[])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let mut s = PathState::new(vec![Time::ZERO; 2], 2);
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        s.apply(&tasks, &comm, 1, ProcessorId::new(1));

        // reset to a different root: other finishes, other task count,
        // non-trivial resource EATs
        let finishes = [Time::from_micros(300), Time::from_micros(700)];
        let mut eats = ResourceEats::new();
        eats.commit(&[ResourceRequest::exclusive(1)], Time::from_micros(42));
        s.reset(&finishes, 3, &eats);
        let fresh = PathState::with_resources(finishes.to_vec(), 3, eats.clone());
        assert_eq!(s, fresh, "reset is indistinguishable from fresh");
        assert_eq!(s.depth(), 0);
        assert_eq!(s.makespan(), Time::from_micros(700));
    }

    #[test]
    #[should_panic(expected = "PathState needs processors")]
    fn reset_without_processors_panics() {
        let mut s = PathState::new(vec![Time::ZERO], 1);
        s.reset(&[], 1, &ResourceEats::new());
    }

    #[test]
    #[should_panic(expected = "undo on the root state")]
    fn undo_at_root_panics() {
        let mut s = PathState::new(vec![Time::ZERO], 1);
        s.undo();
    }

    #[test]
    fn shard_min_tracks_apply_and_undo() {
        let tasks = mk_tasks(&[(100, 10_000, &[]), (150, 10_000, &[]), (70, 10_000, &[])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let finishes: Vec<Time> = [10u64, 40, 30, 20].map(Time::from_micros).into();
        let mut s = PathState::new(finishes, 3);
        s.configure_shards(&[2, 4]);
        assert_eq!(s.shards(), 2);
        assert_eq!(s.shard_min(0), Time::from_micros(10));
        assert_eq!(s.shard_min(1), Time::from_micros(20));

        let before = s.clone();
        s.apply(&tasks, &comm, 0, ProcessorId::new(0)); // P0: 10 -> 120
        assert_eq!(s.shard_min(0), Time::from_micros(40));
        s.apply(&tasks, &comm, 1, ProcessorId::new(3)); // P3: 20 -> 180
        assert_eq!(s.shard_min(1), Time::from_micros(30));
        s.apply(&tasks, &comm, 2, ProcessorId::new(1)); // P1: 40 -> 120
        assert_eq!(s.shard_min(0), Time::from_micros(120));

        s.undo();
        s.undo();
        s.undo();
        assert_eq!(s, before, "undo restores the shard minima exactly");
    }

    #[test]
    fn reset_clears_shard_configuration() {
        let mut s = PathState::new(vec![Time::ZERO; 4], 2);
        s.configure_shards(&[2, 4]);
        s.reset(&[Time::ZERO; 4], 2, &ResourceEats::new());
        assert_eq!(s.shards(), 0, "reset returns to the unsharded default");
        assert_eq!(s, PathState::new(vec![Time::ZERO; 4], 2));
    }

    #[test]
    #[should_panic(expected = "cover every processor")]
    fn shard_ends_must_cover_processors() {
        let mut s = PathState::new(vec![Time::ZERO; 4], 1);
        s.configure_shards(&[2, 3]);
    }

    /// Prices `task`'s cells through [`CommModel::demand`].
    fn demand<'a>(
        tasks: &'a [Task],
        comm: &'a CommModel,
        task: usize,
    ) -> impl Fn(usize) -> Duration + 'a {
        move |k| comm.demand(&tasks[task], ProcessorId::new(k))
    }

    /// The incremental column must match `completion_if` entry-wise no
    /// matter what interleaving of applies and undos preceded the read:
    /// every segment is synced and read through its view, and together the
    /// segments cover the processors in order.
    fn assert_column_fresh(tasks: &[Task], comm: &CommModel, s: &mut PathState, task: usize) {
        let expected: Vec<(usize, Time)> = (0..s.processors())
            .map(|p| (p, s.completion_if(tasks, comm, task, ProcessorId::new(p))))
            .collect();
        let mut got = Vec::new();
        for seg in 0..s.column_segments() {
            s.ensure_candidate_segment(tasks, task, seg, demand(tasks, comm, task));
            got.extend(s.candidate_segment(task, seg));
        }
        assert_eq!(got, expected, "column for task {task} diverged");
    }

    #[test]
    fn candidate_column_tracks_apply_and_undo() {
        let tasks = mk_tasks(&[(100, 10_000, &[0]), (150, 10_000, &[]), (70, 10_000, &[1])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let mut s = PathState::new(vec![Time::from_micros(5); 3], 3);
        assert_column_fresh(&tasks, &comm, &mut s, 0);
        assert_column_fresh(&tasks, &comm, &mut s, 1);
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        assert_column_fresh(&tasks, &comm, &mut s, 1);
        s.apply(&tasks, &comm, 1, ProcessorId::new(2));
        assert_column_fresh(&tasks, &comm, &mut s, 2);
        s.undo();
        assert_column_fresh(&tasks, &comm, &mut s, 1);
        assert_column_fresh(&tasks, &comm, &mut s, 2);
        s.undo();
        assert_column_fresh(&tasks, &comm, &mut s, 0);
    }

    #[test]
    fn candidate_column_revalidates_after_resource_commit() {
        use rt_task::ResourceRequest;
        let tasks = vec![
            Task::builder(TaskId::new(0))
                .processing_time(Duration::from_micros(100))
                .deadline(Time::from_micros(10_000))
                .resources(vec![ResourceRequest::exclusive(0)])
                .build(),
            Task::builder(TaskId::new(1))
                .processing_time(Duration::from_micros(100))
                .deadline(Time::from_micros(10_000))
                .resources(vec![ResourceRequest::shared(0)])
                .build(),
        ];
        let comm = CommModel::free();
        let mut s = PathState::new(vec![Time::ZERO; 2], 2);
        // Fill task 1's column before the resource commit shifts its
        // earliest start, then verify the cached earliest is invalidated.
        assert_column_fresh(&tasks, &comm, &mut s, 1);
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        assert_column_fresh(&tasks, &comm, &mut s, 1);
        s.undo();
        assert_column_fresh(&tasks, &comm, &mut s, 1);
    }

    #[test]
    fn candidate_column_survives_reset_generation() {
        let tasks = mk_tasks(&[(100, 10_000, &[]), (150, 10_000, &[])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let mut s = PathState::new(vec![Time::ZERO; 2], 2);
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        assert_column_fresh(&tasks, &comm, &mut s, 1);
        // A reset bumps the generation: stale column entries from the old
        // phase must not leak into the new one.
        let finishes = [Time::from_micros(300), Time::from_micros(700)];
        s.reset(&finishes, 2, &ResourceEats::new());
        assert_column_fresh(&tasks, &comm, &mut s, 0);
        assert_column_fresh(&tasks, &comm, &mut s, 1);
    }

    #[test]
    fn sharded_segments_sync_independently() {
        let tasks = mk_tasks(&[(100, 10_000, &[]), (150, 10_000, &[]), (70, 10_000, &[])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let finishes: Vec<Time> = [10u64, 40, 30, 20].map(Time::from_micros).into();
        let mut s = PathState::new(finishes, 3);
        s.configure_shards(&[2, 4]);
        // Sync only shard 1 of task 0's column, mutate shard 0, then check
        // that re-syncing each shard yields from-scratch values.
        s.ensure_candidate_segment(&tasks, 0, 1, demand(&tasks, &comm, 0));
        s.apply(&tasks, &comm, 1, ProcessorId::new(0));
        s.ensure_candidate_segment(&tasks, 0, 0, demand(&tasks, &comm, 0));
        s.ensure_candidate_segment(&tasks, 0, 1, demand(&tasks, &comm, 0));
        let expected: Vec<(usize, Time)> = (0..4)
            .map(|p| (p, s.completion_if(&tasks, &comm, 0, ProcessorId::new(p))))
            .collect();
        let got: Vec<(usize, Time)> = (0..2).flat_map(|seg| s.candidate_segment(0, seg)).collect();
        assert_eq!(got, expected);
        s.undo();
        assert_column_fresh(&tasks, &comm, &mut s, 0);
    }

    /// A state on 1,024 processors in 16 segments of 64, the shard layout
    /// of the P=1024 cluster.
    fn wide_state(tasks: &[Task]) -> PathState {
        let mut s = PathState::new(vec![Time::ZERO; 1_024], tasks.len());
        let ends: Vec<usize> = (1..=16).map(|i| i * 64).collect();
        s.configure_shards(&ends);
        assert_eq!(s.column_segments(), 16);
        s
    }

    #[test]
    fn slab_grows_by_the_segments_a_phase_syncs() {
        let tasks = mk_tasks(&[(100, 10_000, &[3]), (150, 10_000, &[700])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let mut s = wide_state(&tasks);
        assert!(s.slab.is_empty());
        for (k, seg) in [3, 0, 15, 7].into_iter().enumerate() {
            s.ensure_candidate_segment(&tasks, 0, seg, demand(&tasks, &comm, 0));
            assert_eq!(s.slab.len(), (k + 1) * 64, "{} segments synced", k + 1);
        }
        // Re-syncing a synced segment, replay or refill, appends nothing.
        s.apply(&tasks, &comm, 1, ProcessorId::new(200));
        for seg in [3, 0, 15, 7] {
            s.ensure_candidate_segment(&tasks, 0, seg, demand(&tasks, &comm, 0));
        }
        assert_eq!(s.slab.len(), 4 * 64);
        // Another task's segments take their own cells.
        s.undo();
        s.ensure_candidate_segment(&tasks, 1, 3, demand(&tasks, &comm, 1));
        assert_eq!(s.slab.len(), 5 * 64);
        for seg in [3, 0, 15, 7] {
            s.ensure_candidate_segment(&tasks, 0, seg, demand(&tasks, &comm, 0));
            for (p, got) in s.candidate_segment(0, seg) {
                assert_eq!(got, s.completion_if(&tasks, &comm, 0, ProcessorId::new(p)));
            }
        }
    }

    #[test]
    fn resource_epoch_resync_refills_in_place() {
        use rt_task::ResourceRequest;
        let tasks = vec![
            Task::builder(TaskId::new(0))
                .processing_time(Duration::from_micros(100))
                .deadline(Time::from_micros(10_000))
                .resources(vec![ResourceRequest::exclusive(0)])
                .build(),
            Task::builder(TaskId::new(1))
                .processing_time(Duration::from_micros(100))
                .deadline(Time::from_micros(10_000))
                .resources(vec![ResourceRequest::shared(0)])
                .build(),
        ];
        let comm = CommModel::constant(Duration::from_micros(10));
        let mut s = wide_state(&tasks);
        for seg in [2, 9] {
            s.ensure_candidate_segment(&tasks, 1, seg, demand(&tasks, &comm, 1));
        }
        let before = s.heads[1].earliest;
        // Committing the exclusive holder moves task 1's earliest start,
        // which invalidates its whole column.
        s.apply(&tasks, &comm, 0, ProcessorId::new(500));
        for seg in [2, 9] {
            s.ensure_candidate_segment(&tasks, 1, seg, demand(&tasks, &comm, 1));
        }
        assert_ne!(
            s.heads[1].earliest, before,
            "the epoch moved the earliest start"
        );
        assert_eq!(
            s.slab.len(),
            2 * 64,
            "the refill reused the segments' cells"
        );
        for seg in [2, 9] {
            for (p, got) in s.candidate_segment(1, seg) {
                assert_eq!(got, s.completion_if(&tasks, &comm, 1, ProcessorId::new(p)));
            }
        }
    }

    #[test]
    fn reset_leaves_no_segment_synced() {
        let tasks = mk_tasks(&[(100, 10_000, &[]), (150, 10_000, &[5])]);
        let comm = CommModel::constant(Duration::from_micros(10));
        let mut s = wide_state(&tasks);
        for task in 0..2 {
            for seg in 0..16 {
                s.ensure_candidate_segment(&tasks, task, seg, demand(&tasks, &comm, task));
            }
        }
        assert_eq!(s.slab.len(), 2 * 1_024);
        let capacity = s.slab.capacity();
        s.reset(&[Time::from_micros(40); 1_024], 2, &ResourceEats::new());
        let ends: Vec<usize> = (1..=16).map(|i| i * 64).collect();
        s.configure_shards(&ends);
        assert!(s.slab.is_empty());
        assert_eq!(
            s.slab.capacity(),
            capacity,
            "reset keeps the slab's capacity"
        );
        for task in 0..2 {
            for seg in 0..16 {
                assert!(
                    !s.synced(task, seg),
                    "task {task} segment {seg} read as synced"
                );
            }
        }
        assert_column_fresh(&tasks, &comm, &mut s, 1);
    }

    #[test]
    fn assignments_are_in_path_order() {
        let tasks = mk_tasks(&[(1, 1_000, &[]), (1, 1_000, &[])]);
        let comm = CommModel::free();
        let mut s = PathState::new(vec![Time::ZERO], 2);
        s.apply(&tasks, &comm, 1, ProcessorId::new(0));
        s.apply(&tasks, &comm, 0, ProcessorId::new(0));
        let asg = s.assignments();
        assert_eq!(asg[0].task, 1);
        assert_eq!(asg[1].task, 0);
    }
}
