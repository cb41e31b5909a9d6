//! The depth-first candidate-list search engine shared by RT-SADS and
//! D-COLS.
//!
//! One *scheduling phase* (paper, Section 4.1) is one call to
//! [`search_schedule`]: starting from the root (empty schedule), the current
//! vertex is expanded, its feasible successors are heuristically ordered and
//! pushed on the front of the candidate list `CL`, and the next current
//! vertex is taken from the front of `CL`. The phase ends at a leaf (complete
//! schedule), at a dead-end (`CL` empty), or when the scheduling-time
//! quantum is exhausted — in the latter two cases the best (deepest, then
//! lowest-makespan) feasible partial schedule found so far is returned.

use paragon_des::trace::{PhaseProfile, PlacementProbe, ScreenProbe};
use paragon_des::{Duration, Time};
use rt_task::{AffinitySet, Batch, CommModel, ProcessorId, ResourceEats, Task, TopologySpec};

use paragon_platform::SchedulingMeter;
use rt_telemetry::{Stage, StageProfiler};
use serde::{Deserialize, Serialize};

use crate::policy::{ChildOrder, ProcessorOrder};
use crate::repr::Representation;
use crate::state::{Assignment, PathState};

/// Why a scheduling phase ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// A leaf was reached: every *viable* task is assigned. Under the
    /// phase-level viability screen this is weaker than "the whole batch is
    /// scheduled" — compare [`SearchOutcome::is_complete`] (full batch) with
    /// [`SearchOutcome::covers_viable`] (this condition).
    Leaf,
    /// The candidate list emptied: no feasible extension exists anywhere.
    DeadEnd,
    /// The scheduling-time quantum (or vertex cap) ran out.
    QuantumExhausted,
    /// The backtrack limit ([`PhaseInput::backtrack_limit`]) cut the search
    /// short.
    Pruned,
}

/// Diagnostics of one search phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Vertices generated and evaluated (including infeasible ones).
    pub vertices_generated: u64,
    /// Vertices expanded (popped from `CL` and given successors).
    pub expansions: u64,
    /// Pops that switched to a different branch of `G` (the paper's
    /// backtracking).
    pub backtracks: u64,
    /// Successors that failed the feasibility test.
    pub infeasible_children: u64,
    /// Successors that passed it.
    pub feasible_children: u64,
    /// The deepest feasible partial schedule seen.
    pub deepest: usize,
    /// Skip rounds taken: expansions whose canonical choice (task or, for
    /// the skipping sequence-oriented variant, processor) admitted no
    /// feasible successor and moved on to the next choice.
    pub level_skips: u64,
    /// Batch tasks screened out by the phase-level viability test (they can
    /// meet their deadline on no processor even against the initial finish
    /// times, so the whole phase tree excludes them).
    pub screened_tasks: u64,
    /// Assignments reverted by the incremental engine while switching
    /// between branches (each costs O(1); see [`crate::PathState::undo`]).
    pub undos: u64,
    /// Apply steps a per-pop root replay would have performed that the
    /// incremental engine skipped: the length of the path prefix shared
    /// between consecutive vertices, summed over pops. The old engine paid
    /// exactly `undos + replay_avoided` extra applies per phase.
    pub replay_avoided: u64,
    /// Shard screens run by the shard-first candidate generator (one per
    /// skip round under a hierarchical topology). Zero on flat platforms.
    pub shard_screens: u64,
    /// Shards the screen ruled out or ranked below the fanout cut, whose
    /// processors were therefore never evaluated as candidates — the
    /// O(P) → O(shards) + O(P/shard) saving, counted in shards.
    pub shards_pruned: u64,
}

impl SearchStats {
    /// Charges a round of `n` candidates in one
    /// [`SchedulingMeter::charge_vertices`] step: the one accounting rule
    /// of every scheduler, for the tree search's rounds and for the
    /// one-pass and myopic baselines' per-task rounds alike. It keeps the
    /// accounting of a loop that checked the cap and charged one candidate
    /// at a time (pinned by the engine's
    /// `vertex_cap_break_classifies_every_counted_vertex`,
    /// `quantum_break_counts_the_uncharged_vertex`,
    /// `feasible_rounds_keep_the_classify_accounting` and
    /// `blocked_rounds_keep_the_classify_accounting` tests, and by the
    /// baselines' `quantum_cut_baseline_rounds_are_pinned`):
    ///   1. vertex cap — admits the first `cap − generated`, so a cap break
    ///      counts nothing: every cap-counted vertex is classified. The
    ///      baselines pass no cap.
    ///   2. quantum — the meter charges those up to its first failure,
    ///      which is counted, so `vertices_generated == meter.vertices()`
    ///      always, but never classified: a mid-round quantum break leaves
    ///      exactly one counted, unclassified vertex.
    ///
    /// Returns how many were charged, the round's prefix to classify, and
    /// whether the whole round was.
    pub fn charge_round(
        &mut self,
        n: usize,
        cap: Option<u64>,
        meter: &mut SchedulingMeter,
    ) -> (usize, bool) {
        let n = n as u64;
        let cap = cap.unwrap_or(u64::MAX);
        let attempts = n.min(cap.saturating_sub(self.vertices_generated));
        let charged = meter.charge_vertices(attempts);
        let failed = charged < attempts;
        self.vertices_generated += charged + u64::from(failed);
        (charged as usize, attempts == n && !failed)
    }
}

/// Why one batch task failed the phase-level viability screen: one failed
/// probe per candidate processor, in the trace's own record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenEvidence {
    /// Batch index of the screened task.
    pub task: usize,
    /// The failed feasibility probes, one per processor.
    pub probes: Vec<ScreenProbe>,
}

/// Why a delivered assignment picked the processor it did: the chosen
/// placement's cost next to every sibling alternative for the same task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementEvidence {
    /// Batch index of the placed task.
    pub task: usize,
    /// The chosen placement.
    pub chosen: PlacementProbe,
    /// Same-task alternatives evaluated at the same expansion and ranked
    /// lower (empty under sequence-oriented layouts, where siblings differ
    /// by task rather than processor).
    pub rejected: Vec<PlacementProbe>,
}

/// A candidate placement of a task on `processor`, completing at
/// `completion` at cost `cost`, as the trace records it: labelled with the
/// node `comm`'s topology puts the processor on, or node 0 without one.
#[must_use]
pub fn placement_probe(
    comm: &CommModel,
    processor: ProcessorId,
    completion: Time,
    cost: Time,
) -> PlacementProbe {
    PlacementProbe {
        processor: processor.index(),
        completion_us: completion.as_micros(),
        cost_us: cost.as_micros(),
        shard: comm.topology().map_or(0, |t| t.node_of(processor)),
    }
}

/// Decision evidence for one scheduling phase, collected only when
/// [`PhaseInput::provenance`] is set: which tasks the viability screen
/// rejected (with the actual test operands) and why each delivered
/// assignment chose its processor. The probes are the trace's own
/// [`ScreenProbe`] and [`PlacementProbe`] records, so the driver moves them
/// into its `TaskScreened` and `PlacementDecided` events without copying.
/// Collection is record-only — it never alters the search order, the
/// delivered schedule, or the stats.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseProvenance {
    /// Screen rejections, in batch order.
    pub screened: Vec<ScreenEvidence>,
    /// One entry per delivered assignment, in path order.
    pub decisions: Vec<PlacementEvidence>,
}

/// Result of one scheduling phase.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best feasible (partial or complete) schedule found, in path
    /// order.
    pub assignments: Vec<Assignment>,
    /// Why the phase ended.
    pub termination: Termination,
    /// Batch tasks that survived the phase-level viability screen — the
    /// depth of a leaf of this phase's tree. One-pass schedulers that do not
    /// screen report the full batch size here.
    pub n_viable: usize,
    /// Makespan (the paper's `CE`: latest processor finish time, including
    /// the initial finish times) of the delivered schedule — the tie-break
    /// key the search used when picking "best". At a leaf this is the leaf's
    /// real makespan, not a sentinel.
    pub makespan: Time,
    /// Search diagnostics.
    pub stats: SearchStats,
    /// Decision evidence, present only when [`PhaseInput::provenance`]
    /// was set.
    pub provenance: Option<PhaseProvenance>,
}

impl SearchOutcome {
    /// Whether the schedule covers the whole batch.
    #[must_use]
    pub fn is_complete(&self, batch_len: usize) -> bool {
        self.assignments.len() == batch_len
    }

    /// Whether the schedule covers every *viable* task — the
    /// [`Termination::Leaf`] condition. Under screening this can hold while
    /// [`SearchOutcome::is_complete`] is false: the screened tasks stay in
    /// the batch for a later phase (or expiry).
    #[must_use]
    pub fn covers_viable(&self) -> bool {
        self.assignments.len() == self.n_viable
    }

    /// Batch tasks screened out by the phase-level viability test.
    #[must_use]
    pub fn screened(&self) -> u64 {
        self.stats.screened_tasks
    }

    /// Number of distinct processors the schedule uses, marked off in
    /// `seen`: scratch space a caller keeps across calls so that counting
    /// allocates nothing once it has grown.
    #[must_use]
    pub fn processors_used(&self, seen: &mut Vec<bool>) -> usize {
        let width = self.assignments.iter().map(|a| a.processor.index() + 1);
        seen.clear();
        seen.resize(width.max().unwrap_or(0), false);
        self.assignments
            .iter()
            .filter(|a| !std::mem::replace(&mut seen[a.processor.index()], true))
            .count()
    }
}

/// The inputs of one scheduling phase, the same record for every
/// scheduler: the tree search reads it under a layout ([`SearchParams`]),
/// the one-pass baselines and the myopic scheduler read it as it is.
#[derive(Debug, Clone, Copy)]
pub struct PhaseInput<'a> {
    /// The batch being scheduled: its tasks, and the expiry and affinity
    /// class columns the viability screen reads.
    pub batch: &'a Batch,
    /// The interconnect cost model.
    pub comm: &'a CommModel,
    /// Per-processor earliest start for new work:
    /// `max(busy_until_k, t_s + Q_s(j))` (see [`PathState::new`]).
    pub initial_finish: &'a [Time],
    /// Hard cap on generated vertices, guarding unbounded searches when the
    /// host's vertex cost is zero. `None` = rely on the meter alone. Only
    /// the tree search reads it.
    pub vertex_cap: Option<u64>,
    /// Section 3's limit on backtracking: the search ends
    /// ([`Termination::Pruned`]) after this many backtracks. `None` =
    /// unlimited. Only the tree search reads it.
    pub backtrack_limit: Option<u64>,
    /// The machine's resource earliest-available times at phase start
    /// (empty for the paper's independent tasks).
    pub resources: &'a ResourceEats,
    /// Collect decision evidence ([`SearchOutcome::provenance`]). Off by
    /// default: collection allocates per expansion, and the flight recorder
    /// must be free when tracing is disabled.
    pub provenance: bool,
}

impl<'a> PhaseInput<'a> {
    /// The batch's tasks, in batch order: the indices every assignment,
    /// arena node and level key refers to.
    #[inline]
    #[must_use]
    pub fn tasks(&self) -> &'a [Task] {
        self.batch.tasks()
    }
}

/// What one tree search reads: a phase's inputs and the layout RT-SADS or
/// D-COLS searches them under.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams<'a> {
    /// The phase's inputs.
    pub input: PhaseInput<'a>,
    /// Tree layout (assignment- vs sequence-oriented).
    pub representation: Representation,
    /// Heuristic ordering of feasible successors.
    pub child_order: ChildOrder,
}

impl<'a> SearchParams<'a> {
    /// The batch's tasks (see [`PhaseInput::tasks`]).
    #[inline]
    fn tasks(&self) -> &'a [Task] {
        self.input.tasks()
    }
}

/// Arena node: enough to reconstruct the partial schedule by walking
/// parents, plus its depth so the incremental engine can find the common
/// ancestor of two vertices in O(branch distance). Packed into four `u32`s,
/// 16 bytes: a P=1024 run's arenas hold tens of thousands of nodes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The parent's arena id plus one; 0 for a child of the root.
    parent: u32,
    /// 1-based: the number of assignments on the root-to-here path.
    depth: u32,
    task: u32,
    processor: u32,
}

impl Node {
    fn new(parent: Option<usize>, depth: usize, task: usize, processor: usize) -> Self {
        let word = |v: usize| u32::try_from(v).expect("arena ids and batch sizes fit in u32");
        Node {
            parent: parent.map_or(0, |id| word(id + 1)),
            depth: word(depth),
            task: word(task),
            processor: word(processor),
        }
    }

    /// The parent's arena id; `None` for a child of the root.
    fn parent(self) -> Option<usize> {
        (self.parent as usize).checked_sub(1)
    }

    fn depth(self) -> usize {
        self.depth as usize
    }

    fn task(self) -> usize {
        self.task as usize
    }

    fn processor(self) -> ProcessorId {
        ProcessorId::new(self.processor as usize)
    }
}

/// Every per-phase buffer the search engine needs, owned in one place so a
/// long-lived caller (the driver) allocates once and reuses across all
/// scheduling phases.
///
/// Lifetime contract (DESIGN.md §8): buffers live for the whole run; each
/// phase *clears* them before use (clear-don't-drop) and leaves their
/// capacity behind for the next phase. Once capacities have reached the workload's
/// steady state, [`search_schedule_with`] performs **zero** heap allocations
/// per phase (provenance off) — asserted by the counting-allocator test in
/// `crates/bench/tests/zero_alloc.rs` and pinned against behavioral drift by
/// the `replay-oracle` differential suite.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// The candidate-list walk's working set.
    work: Work,
    /// Per-task verdict of the phase-level viability screen.
    viable: Vec<bool>,
    /// Earliest initial finish of each node (one node under the constant
    /// model), written once per phase by the viability screen.
    node_min: Vec<Time>,
    /// What each node charges each affinity class, priced once per phase
    /// by the viability screen.
    costs: CostTable,
    /// Threshold of each affinity class, written once per phase by the
    /// viability screen.
    theta: Vec<Time>,
    /// Backing storage handed out as [`SearchOutcome::assignments`]; refill
    /// it via [`SearchScratch::recycle`] to keep the hot path allocation-free.
    out: Vec<Assignment>,
}

impl SearchScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a spent assignment vector (e.g. a consumed
    /// [`SearchOutcome::assignments`]) to the pool so the next phase can
    /// reuse its capacity instead of allocating.
    pub fn recycle(&mut self, mut assignments: Vec<Assignment>) {
        assignments.clear();
        if assignments.capacity() > self.out.capacity() {
            self.out = assignments;
        }
    }

    /// Takes the pooled assignment buffer (empty, capacity preserved) for a
    /// scheduler that builds its outcome outside the search engine (the
    /// one-pass baselines, the myopic scheduler).
    #[must_use]
    pub fn take_assignment_buffer(&mut self) -> Vec<Assignment> {
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        out
    }

    /// Turns stage-level self-profiling on or off for phases run on this
    /// scratch. Off (the default) the instrumentation is two predictable
    /// branches per span — no clock reads, no allocations, and bit-identical
    /// outcomes (pinned by the profiled differential suite).
    pub fn set_profiling(&mut self, on: bool) {
        self.work.prof.set_enabled(on);
    }

    /// Whether stage-level self-profiling is currently enabled.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.work.prof.enabled()
    }

    /// Drains the stage times accumulated by the last phase into a
    /// wire-format [`PhaseProfile`], resetting the accumulators. Returns an
    /// all-zero record when profiling is off.
    pub fn take_profile(&mut self) -> PhaseProfile {
        self.work.prof.take()
    }
}

/// The mutable working set of the candidate-list walk: the phase tree, `CL`,
/// the incremental state and the per-expansion buffers.
#[derive(Debug, Default)]
struct Work {
    /// Viable tasks in level order (assignment-oriented layouts), sorted
    /// only as far as the walk reads.
    level: LevelOrder,
    /// Append-only node arena of the phase tree.
    arena: Vec<Node>,
    /// Per-node (completion, makespan-if-chosen), provenance only.
    node_costs: Vec<(Time, Time)>,
    /// The candidate list `CL` (stack: end = front).
    cl: Vec<usize>,
    /// Arena ids along the current vertex's root path.
    path: Vec<usize>,
    /// Branch-switch walk buffer (ancestors of the next vertex).
    chain: Vec<usize>,
    /// Feasible successors of one expansion as packed ordering keys (see
    /// [`successor_key`]).
    ckeys: Vec<u128>,
    /// Cumulative shard end indices under a hierarchical topology (the
    /// node partition handed to [`PathState::configure_shards`]).
    shard_ends: Vec<usize>,
    /// (screen bound, shard) ranking buffer of one shard-first skip round.
    shard_rank: Vec<(Time, usize)>,
    /// The incremental path state, created on first use and reset (not
    /// rebuilt) on later phases.
    state: Option<PathState>,
    /// Stage-scoped self-profiler (disabled by default — two branches per
    /// span, no clock reads, no allocations; see `rt_telemetry::profile`).
    prof: StageProfiler,
}

impl Work {
    /// Readies the walk for a phase of `params`: empties every buffer
    /// (clear-don't-drop, so a fresh working set and a reused one are
    /// indistinguishable) and rewinds the state to the phase root, sharded
    /// when `shards` is set. The profiler is reset by the phase prologue,
    /// before the screen span.
    fn begin(&mut self, params: &SearchParams<'_>, shards: Option<&TopologySpec>) {
        self.arena.clear();
        self.node_costs.clear();
        self.cl.clear();
        self.path.clear();
        self.chain.clear();
        self.ckeys.clear();
        self.shard_rank.clear();
        let input = &params.input;
        let n = input.tasks().len();
        let state = self
            .state
            .get_or_insert_with(|| PathState::new(input.initial_finish.to_vec(), n));
        state.reset(input.initial_finish, n, input.resources);
        if let Some(topo) = shards {
            self.shard_ends.clear();
            self.shard_ends
                .extend((0..topo.nodes()).map(|s| topo.node_range(s).1));
            state.configure_shards(&self.shard_ends);
        }
    }
}

/// The viable tasks of an assignment-oriented phase in level order, sorted
/// on demand: the prologue fills `keys` with one packed key per viable
/// task, unsorted, and the expansion scan sorts more of it only when its
/// cursor reaches the end of the sorted prefix `keys[..sorted]`. A walk
/// reads a few dozen levels of a batch of hundreds, so most of the order is
/// never sorted. A key is `(deadline << 64) | batch index`, taken once per
/// phase, so selecting and sorting compare integers instead of re-reading
/// the batch. Keys end in the batch index, so they are unique and every
/// prefix equals the full sort's prefix: the `(deadline, batch index)`
/// order every level of RT-SADS fixes its task by.
#[derive(Debug, Default)]
struct LevelOrder {
    keys: Vec<u128>,
    sorted: usize,
}

impl LevelOrder {
    /// Entries the first growth sorts; each later one doubles the prefix.
    const FIRST_CHUNK: usize = 32;

    /// Refills the order with the packed keys of the viable tasks, none
    /// sorted yet.
    fn reset(&mut self, viable: &[bool], tasks: &[Task]) {
        self.keys.clear();
        self.keys.extend(
            (0..viable.len())
                .filter(|&t| viable[t])
                .map(|t| (u128::from(tasks[t].deadline().as_micros()) << 64) | t as u128),
        );
        self.sorted = 0;
    }

    /// The batch index a level key carries.
    #[inline]
    fn task(key: u128) -> usize {
        key as u64 as usize
    }

    /// Extends the sorted prefix by the next-smallest keys of the unsorted
    /// tail — to [`LevelOrder::FIRST_CHUNK`] entries at first, then double
    /// the prefix — sorting only those. Returns `false` when the whole
    /// order is sorted already.
    fn grow(&mut self) -> bool {
        let len = self.keys.len();
        if self.sorted == len {
            return false;
        }
        let end = (2 * self.sorted).max(Self::FIRST_CHUNK).min(len);
        let take = end - self.sorted;
        let tail = &mut self.keys[self.sorted..];
        if take < tail.len() {
            tail.select_nth_unstable(take);
        }
        tail[..take].sort_unstable();
        self.sorted = end;
        true
    }

    /// The first task at or after `*cursor` in level order that `state`
    /// has not assigned, growing the sorted prefix as the scan reaches its
    /// end; `*cursor` moves past the task. `None` when every remaining
    /// task is assigned.
    fn next_unassigned(&mut self, cursor: &mut usize, state: &PathState) -> Option<usize> {
        loop {
            if let Some(off) = self.keys[*cursor..self.sorted]
                .iter()
                .position(|&k| !state.is_assigned(Self::task(k)))
            {
                let task = Self::task(self.keys[*cursor + off]);
                *cursor += off + 1;
                return Some(task);
            }
            *cursor = self.sorted;
            if !self.grow() {
                return None;
            }
        }
    }
}

/// Runs one scheduling phase (see the module docs for the algorithm)
/// and [`SearchParams`] for the inputs. The `meter` both limits and measures
/// the scheduling time consumed.
///
/// Allocates fresh working buffers per call; phase-loop callers should hold
/// a [`SearchScratch`] and use [`search_schedule_with`] instead.
#[must_use]
pub fn search_schedule(params: &SearchParams<'_>, meter: &mut SchedulingMeter) -> SearchOutcome {
    Phase::open(params, false, &mut SearchScratch::new()).run(meter)
}

/// [`search_schedule`] with caller-owned working buffers: the engine
/// maintains a single incremental [`PathState`]; on each pop it undoes
/// assignments up to the deepest common ancestor of the previous and next
/// vertex and applies back down — O(branch distance) per pop instead of the
/// O(depth) per-pop root replay, so a straight dive is O(depth) overall
/// rather than O(depth²). The paper charges only vertex evaluations against
/// the quantum; reusing the scratch keeps the engine's own bookkeeping (and
/// allocator traffic) within that budget. Behavior is identical to
/// [`search_schedule`] regardless of what previous phases left in `scratch`.
#[must_use]
pub fn search_schedule_with(
    params: &SearchParams<'_>,
    meter: &mut SchedulingMeter,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    Phase::open(params, false, scratch).run(meter)
}

/// The pre-incremental engine, kept as a differential oracle: identical
/// search order and bookkeeping, but every pop rebuilds the vertex's
/// [`PathState`] by replaying the whole root-to-vertex path (O(depth) per
/// pop). Used by the differential property tests; never by the production
/// schedulers.
#[cfg(any(test, feature = "replay-oracle"))]
#[must_use]
pub fn search_schedule_replay(
    params: &SearchParams<'_>,
    meter: &mut SchedulingMeter,
) -> SearchOutcome {
    Phase::open(params, true, &mut SearchScratch::new()).run(meter)
}

/// Best feasible vertex so far: `(depth, makespan, arena id)`; a `None` id
/// means "deliver nothing" (the empty root schedule).
type Best = (usize, Time, Option<usize>);

/// The read-only context of one candidate-list walk: the caller's
/// parameters plus the phase-level screen verdicts, processor order and
/// key rank, fixed once per phase.
struct Ctx<'a, 'b> {
    params: &'b SearchParams<'a>,
    viable: &'b [bool],
    /// The phase's (affinity class, node) cost table.
    costs: &'b CostTable,
    /// The processor order of the sequence-oriented layout; `None` under
    /// the assignment-oriented one, whose levels fix a task.
    processor_order: Option<ProcessorOrder>,
    n_viable: usize,
    use_replay: bool,
    /// `Some` when the shard-first candidate generator is active (multi-node
    /// hierarchical topology, assignment-oriented layout).
    shards: Option<&'a TopologySpec>,
    /// The top word of every successor key this phase builds.
    rank: KeyRank,
}

/// Where a successor key's `rank` word comes from (see [`successor_key`]).
#[derive(Clone, Copy)]
enum KeyRank {
    /// Zero, for the orders that reduce to `(completion, member)`:
    /// `LoadBalance`, `EarliestCompletion`, and `EarliestDeadline` under the
    /// assignment-oriented layout, whose fixed task fixes the deadline.
    Zero,
    /// Sequence-oriented `EarliestDeadline`: the member task's deadline as
    /// an offset from this anchor, the phase's earliest initial finish (no
    /// viable task's deadline lies before it), saturating at `u32::MAX`.
    /// Deadlines more than 2^32 µs (about 71 minutes) past the anchor
    /// share the saturated rank; [`order_keys`] sorts that tail by the full
    /// deadline.
    Deadline(Time),
    /// The generation counter (`None`): keys sort back into generation order.
    Generation,
}

impl KeyRank {
    /// The rank source `params`' layout and child order call for.
    fn new(params: &SearchParams<'_>) -> Self {
        match params.child_order {
            ChildOrder::None => KeyRank::Generation,
            ChildOrder::EarliestDeadline if !params.representation.is_assignment_oriented() => {
                let anchor = params.input.initial_finish.iter().copied().min();
                KeyRank::Deadline(anchor.unwrap_or(Time::ZERO))
            }
            _ => KeyRank::Zero,
        }
    }

    /// The rank word of a successor whose task's deadline is `deadline`,
    /// the `generated`-th feasible one of its expansion.
    #[inline]
    fn of(self, deadline: Time, generated: usize) -> u32 {
        match self {
            KeyRank::Zero => 0,
            KeyRank::Deadline(anchor) => {
                let offset = deadline.as_micros().saturating_sub(anchor.as_micros());
                u32::try_from(offset).unwrap_or(u32::MAX)
            }
            KeyRank::Generation => generated as u32,
        }
    }
}

/// Whether this phase runs the shard-first candidate generator: only under
/// a hierarchical topology with more than one node, and only for the
/// assignment-oriented layout (sequence-oriented levels fix a processor, so
/// there is no per-level shard choice to make). The topology must span
/// exactly the phase's processors.
fn shard_gate<'a>(params: &SearchParams<'a>) -> Option<&'a TopologySpec> {
    let topo = params.input.comm.topology()?;
    if topo.nodes() < 2 || !params.representation.is_assignment_oriented() {
        return None;
    }
    assert_eq!(
        topo.workers(),
        params.input.initial_finish.len(),
        "topology processor count must match the phase's processors"
    );
    Some(topo)
}

/// Sorts one expansion's successor keys into child order, highest
/// priority first. Under a deadline rank, keys whose deadline saturated the
/// rank sort last (every unsaturated deadline is smaller) but tie among
/// themselves, so that tail is ordered by the full `(deadline, completion,
/// member)` tuple.
fn order_keys(keys: &mut [u128], rank: KeyRank, tasks: &[Task]) {
    keys.sort_unstable();
    if let KeyRank::Deadline(_) = rank {
        let tail = keys.partition_point(|&k| (k >> 96) as u32 != u32::MAX);
        keys[tail..].sort_unstable_by_key(|&k| {
            let (member, completion) = unpack_key(k);
            (tasks[member].deadline(), completion, member)
        });
    }
}

/// The one successor ordering key: `rank(32) | completion(64) | member(32)`
/// in a `u128` whose integer order is the child order, highest priority
/// first. `member` is the processor under the assignment-oriented layout
/// and the task under the sequence-oriented one; the other coordinate is
/// fixed for the whole expansion, so keys are unique and an unstable sort
/// is deterministic.
///
/// Against each order's full tuple: `EarliestCompletion` is
/// `(completion, processor, task)`, which the fixed coordinate reduces to
/// `(completion, member)`. `LoadBalance` is `(makespan, completion,
/// processor, task)` with every makespan `max(base, completion)` for the
/// expansion's one `base` — monotone in `completion`, so it orders as
/// `(completion, member)` too. `EarliestDeadline` is `(deadline,
/// completion, task, processor)`: the assignment-oriented task is fixed, so
/// is its deadline; the sequence-oriented processor is fixed, so the
/// deadline rank in front orders as the deadline (see [`KeyRank::Deadline`]
/// for the saturated tail). `None` keeps generation order through a rank
/// that counts up. `Time` is transparently its microsecond count, so
/// [`unpack_key`] round-trips exactly.
#[inline]
fn successor_key(rank: u32, completion: Time, member: usize) -> u128 {
    debug_assert!(member < (1 << 32));
    (u128::from(rank) << 96) | (u128::from(completion.as_micros()) << 32) | member as u128
}

/// The `(member, completion)` a [`successor_key`] carries.
#[inline]
fn unpack_key(key: u128) -> (usize, Time) {
    (key as u32 as usize, Time::from_micros((key >> 32) as u64))
}

/// A lower bound on `t`'s completion on every processor of `state`, whose
/// earliest finish is `min_finish`: processor `k` completes it at
/// `max(f_k, e) + p + c_k`, with `f_k >= min_finish` and `c_k >= 0`.
#[inline]
fn earliest_completion(t: &Task, state: &PathState, min_finish: Time) -> Time {
    min_finish.max(state.earliest_resource_start(t)) + t.processing_time()
}

impl Ctx<'_, '_> {
    /// Reconstructs the PathState of a vertex by replaying root->vertex —
    /// the O(depth) oracle path, taken only when `use_replay` is set —
    /// partitioned into `shard_ends` under shard-first generation, as the
    /// walk's own state is. Allocates freely: the oracle is never on the
    /// production hot path.
    fn replay(&self, arena: &[Node], shard_ends: &[usize], id: Option<usize>) -> PathState {
        let input = &self.params.input;
        let mut chain = Vec::new();
        let mut cursor = id;
        while let Some(i) = cursor {
            chain.push(i);
            cursor = arena[i].parent();
        }
        let mut state = PathState::with_resources(
            input.initial_finish.to_vec(),
            input.tasks().len(),
            input.resources.clone(),
        );
        if self.shards.is_some() {
            state.configure_shards(shard_ends);
        }
        for &i in chain.iter().rev() {
            let node = arena[i];
            state.apply(input.tasks(), input.comm, node.task(), node.processor());
        }
        state
    }

    /// Moves the incremental state (whose current vertex path is
    /// `work.path`, with `path[d-1]` the arena id at depth d) to vertex
    /// `cv`: walk cv's ancestors until one lies on the current path at its
    /// own depth, undo down to that common ancestor, then apply the
    /// collected chain. Both engines run the same bookkeeping (so stats are
    /// bit-identical); only the state materialization differs.
    fn switch_to(&self, work: &mut Work, stats: &mut SearchStats, cv: usize, track: bool) {
        // Profiling: the ancestor walk and the undo pops share one Undo
        // span; the apply chain gets its own. Spans bracket whole loops —
        // never individual apply/undo calls — per the stage-granularity
        // rule (DESIGN.md §8).
        let t_undo = work.prof.start();
        work.chain.clear();
        let mut cursor = Some(cv);
        let common_depth = loop {
            let Some(i) = cursor else { break 0 };
            let node = work.arena[i];
            if work.path.get(node.depth() - 1) == Some(&i) {
                break node.depth();
            }
            work.chain.push(i);
            cursor = node.parent();
        };
        if track {
            stats.undos += (work.path.len() - common_depth) as u64;
            stats.replay_avoided += common_depth as u64;
        }
        let state = work.state.as_mut().expect("walk state initialized");
        if self.use_replay {
            work.prof.stop(Stage::Undo, t_undo);
            let t_apply = work.prof.start();
            work.path.truncate(common_depth);
            work.path.extend(work.chain.iter().rev());
            *state = self.replay(&work.arena, &work.shard_ends, Some(cv));
            work.prof.stop(Stage::Apply, t_apply);
        } else {
            while work.path.len() > common_depth {
                state.undo();
                work.path.pop();
            }
            work.prof.stop(Stage::Undo, t_undo);
            let t_apply = work.prof.start();
            for &i in work.chain.iter().rev() {
                let node = work.arena[i];
                state.apply(
                    self.params.tasks(),
                    self.params.input.comm,
                    node.task(),
                    node.processor(),
                );
                work.path.push(i);
            }
            work.prof.stop(Stage::Apply, t_apply);
        }
    }

    /// Expands `cv` (`None` = the root): generates, charges, classifies,
    /// orders and pushes its successors. Returns whether it generated a
    /// leaf (a schedule covering every viable task); `best` then names the
    /// highest-priority one.
    fn expand(
        &self,
        work: &mut Work,
        cv: Option<usize>,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
        best: &mut Best,
    ) -> bool {
        let params = self.params;
        let (tasks, comm) = (params.tasks(), params.input.comm);
        let state = work.state.as_mut().expect("walk state initialized");
        stats.expansions += 1;
        let max_skips = params.representation.max_skips(state);
        let assignment = params.representation.is_assignment_oriented();
        work.ckeys.clear();
        // The coordinate every successor of this expansion shares: the
        // level's task (assignment-oriented) or processor
        // (sequence-oriented). A round that yields no feasible child pushes
        // no key and the loop stops at the first round that does, so all
        // keys come from one round and their `member` tells them apart.
        let mut fixed = 0;
        // Assignment-oriented round `skip` expands the (skip+1)-th
        // unassigned task of the level order. The assigned set is constant
        // for the whole expansion (charges never assign), so consecutive
        // rounds resume one forward scan — O(n) over all rounds, not O(n²).
        let mut cursor = 0;
        // The state is constant for the whole expansion too, so the flat
        // rounds' blocked-round bound reads its earliest finish once.
        let min_finish = if assignment && self.shards.is_none() {
            state.min_finish()
        } else {
            Time::ZERO
        };
        for skip in 0..=max_skips {
            let in_budget = if let Some(order) = self.processor_order {
                // Sequence-oriented levels fix a processor and branch over
                // tasks: the round's candidates are the unassigned viable
                // tasks in index order, `n_viable − depth` of them (every
                // assigned task is viable), each evaluated only when the
                // classify step pulls it, so a round that a budget cuts
                // evaluates exactly the candidates it charged, not the
                // whole round. Screened (phase-infeasible) tasks are
                // invisible to the search and cost no quantum; once no
                // viable task is left unassigned, skipping further cannot
                // help.
                if state.depth() == self.n_viable {
                    break;
                }
                let m = state.processors();
                let p = (order.processor_at(state.depth(), m, state.n_tasks()) + skip) % m;
                fixed = p;
                let state = &*state;
                let candidates = state.unassigned().filter(|&t| self.viable[t]).map(|t| {
                    let completion = state.completion_if(tasks, comm, t, ProcessorId::new(p));
                    (t, completion)
                });
                self.classify(
                    self.n_viable - state.depth(),
                    candidates,
                    |t| tasks[t].deadline(),
                    &mut work.ckeys,
                    &mut work.prof,
                    meter,
                    stats,
                )
            } else {
                let Some(task) = work.level.next_unassigned(&mut cursor, state) else {
                    break; // no unassigned task remains at all
                };
                fixed = task;
                let t = &tasks[task];
                // The task is fixed for the round, so its deadline is too,
                // and so is its class's row of the phase's cost table, which
                // a blocked round never reads.
                let deadline = t.deadline();
                let row = || {
                    self.costs
                        .row(params.input.batch.class_ids()[task] as usize)
                };
                // The round's candidates are one row of the task's
                // candidate column, synced in O(Δ) from the journal: under
                // shard-first generation only the winning shards'
                // segments, otherwise the one segment spanning every
                // processor.
                if let Some(topo) = self.shards {
                    // Like the batch screen, the per-shard bounds cost no
                    // quantum — the saving the sharded bench point measures.
                    let t_shard = work.prof.start();
                    let costs = row();
                    self.rank_shards(topo, state, &mut work.shard_rank, t, costs, stats);
                    work.prof.stop(Stage::Shard, t_shard);
                    if work.shard_rank.is_empty() {
                        // The task exists but no shard can meet its
                        // deadline: move on to the next task, as the flat
                        // path would after evaluating (and charging) every
                        // processor.
                        stats.level_skips += 1;
                        continue;
                    }
                    // The losing shards' segments stay stale and unpaid-for.
                    let t_fill = work.prof.start();
                    let mut candidates = 0;
                    for &(_, s) in &work.shard_rank {
                        let (lo, hi) = topo.node_range(s);
                        candidates += hi - lo;
                        state.ensure_candidate_segment(tasks, task, s, node_demand(t, costs[s]));
                    }
                    work.prof.stop(Stage::Fill, t_fill);
                    let state = &*state;
                    let segments = work
                        .shard_rank
                        .iter()
                        .flat_map(|&(_, s)| state.candidate_segment(task, s));
                    self.classify(
                        candidates,
                        segments,
                        |_| deadline,
                        &mut work.ckeys,
                        &mut work.prof,
                        meter,
                        stats,
                    )
                } else if earliest_completion(t, state, min_finish) > deadline {
                    // A blocked round: the task fits on no processor, so its
                    // P candidates are charged as infeasible without the
                    // column (DESIGN.md §8, "Candidate evaluation").
                    self.charge_blocked(state.processors(), meter, stats)
                } else {
                    let t_fill = work.prof.start();
                    match row() {
                        // The constant model, or a one-node topology: the
                        // segment is the one node.
                        &[cost] => {
                            state.ensure_candidate_segment(tasks, task, 0, node_demand(t, cost));
                        }
                        // The mesh prices each processor by its distance.
                        _ => state.ensure_candidate_segment(tasks, task, 0, |k| {
                            comm.demand(t, ProcessorId::new(k))
                        }),
                    }
                    work.prof.stop(Stage::Fill, t_fill);
                    self.classify(
                        state.processors(),
                        state.candidate_segment(task, 0),
                        |_| deadline,
                        &mut work.ckeys,
                        &mut work.prof,
                        meter,
                        stats,
                    )
                }
            };
            if !in_budget || !work.ckeys.is_empty() {
                break;
            }
            stats.level_skips += 1;
        }

        // Select: order the keys and push the children lowest-priority
        // first, so the highest-priority child is popped next (CL front).
        // Every child shares its parent, depth and fixed coordinate, which
        // are converted once; the arena, `CL` and the provenance costs then
        // each extend in one pass over the keys.
        let t_select = work.prof.start();
        let keys = &mut work.ckeys;
        order_keys(keys, self.rank, tasks);
        let Some(&top) = keys.first() else {
            work.prof.stop(Stage::Select, t_select);
            return false;
        };
        let depth = state.depth() + 1;
        // The cost function ce compares each candidate's completion against
        // the partial schedule's makespan, which the state maintains
        // incrementally — an O(1) read per expansion.
        let base_makespan = state.makespan();
        let makespan = |key: u128| base_makespan.max(unpack_key(key).1);
        let base_id = work.arena.len();
        // The fixed coordinate fills both member words; each child then
        // overwrites its own member's.
        let shared = Node::new(cv, depth, fixed, fixed);
        let members = keys.iter().rev().map(|&key| key as u32);
        if assignment {
            work.arena.extend(members.map(|processor| Node {
                processor,
                ..shared
            }));
        } else {
            work.arena
                .extend(members.map(|task| Node { task, ..shared }));
        }
        work.cl.extend(base_id..work.arena.len());
        if params.input.provenance {
            work.node_costs.extend(
                keys.iter()
                    .rev()
                    .map(|&key| (unpack_key(key).1, makespan(key))),
            );
        }
        // Every generated feasible vertex is a candidate "best": the
        // least makespan, and on a tie the child pushed first (the first
        // minimum in push order), replaces a shallower best or a
        // same-depth one with a larger makespan.
        let (least, id) = keys
            .iter()
            .rev()
            .map(|&key| makespan(key))
            .zip(base_id..)
            .min_by_key(|&(m, _)| m)
            .expect("the expansion has a child");
        if depth > best.0 || (depth == best.0 && least < best.1) {
            *best = (depth, least, Some(id));
        }
        work.prof.stop(Stage::Select, t_select);
        stats.deepest = stats.deepest.max(depth);
        // A leaf overrides the best so far: this expansion's
        // highest-priority child, the one pushed last.
        let leaf = depth == self.n_viable;
        if leaf {
            *best = (depth, makespan(top), Some(work.arena.len() - 1));
        }
        leaf
    }

    /// The one charge/classify step behind every candidate source — the
    /// flat column, the shard segments and the sequence-oriented round —
    /// for a round of `count` candidates that `source` yields as
    /// `(member, completion)` pairs in generation order. The round is
    /// charged in one step ([`SearchStats::charge_round`]), and exactly the
    /// candidates it charged are pulled from `source` and classified; each
    /// feasible one becomes a [`successor_key`]. Returns `false` when a
    /// budget broke the round off.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn classify(
        &self,
        count: usize,
        source: impl IntoIterator<Item = (usize, Time)>,
        deadline: impl Fn(usize) -> Time,
        ckeys: &mut Vec<u128>,
        prof: &mut StageProfiler,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
    ) -> bool {
        let t_cost = prof.start();
        let cap = self.params.input.vertex_cap;
        let (charged, in_budget) = stats.charge_round(count, cap, meter);
        for (member, completion) in source.into_iter().take(charged) {
            let deadline = deadline(member);
            if completion <= deadline {
                stats.feasible_children += 1;
                let rank = self.rank.of(deadline, ckeys.len());
                ckeys.push(successor_key(rank, completion, member));
            } else {
                stats.infeasible_children += 1;
            }
        }
        prof.stop(Stage::Cost, t_cost);
        in_budget
    }

    /// A blocked round of `n` candidates that all fail the feasibility
    /// test: the same one-step charge as every round
    /// ([`SearchStats::charge_round`])
    /// with nothing to classify, each charged vertex counted infeasible, in
    /// O(1) instead of a column sync and a pass over it. Returns `false`
    /// when a budget broke the round off. Untimed: a span around an O(1)
    /// step would mostly time the clock (DESIGN.md §8), so the round shows
    /// as unattributed search time.
    fn charge_blocked(
        &self,
        n: usize,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
    ) -> bool {
        let (charged, in_budget) = stats.charge_round(n, self.params.input.vertex_cap, meter);
        stats.infeasible_children += charged as u64;
        in_budget
    }

    /// The shard-first screen: tests every shard of the topology against
    /// the level's task `t` with an aggregate feasibility bound and leaves
    /// the best-ranked feasible shards (up to the topology's fanout) in
    /// `shard_rank`. The expansion then enumerates processors only inside
    /// those winners, reading completions from the task's candidate column.
    ///
    /// The screen bound for shard `s` is
    /// `max(shard_min(s), earliest_resource_start) + p + floor(s)`, where
    /// `floor(s)` is the [`NodeCost::floor`] in `costs`, `t`'s class row
    /// of the phase's cost table: [`TopologySpec::min_node_cost`], priced
    /// once per phase rather than once per node and expansion. It is a
    /// lower bound on the completion of the task on *every* processor of
    /// the shard, so a screened-out shard truly has no feasible member.
    /// The floor is exact on cost alone, but the sum of two minima is
    /// exact only when one processor attains both: always when the
    /// intra-node cost is zero or the shard holds no affine processor, not
    /// when its earliest-finishing processor is non-affine and pays a
    /// non-zero intra-node cost. Only the fanout cut is heuristic. Shards
    /// are ranked by `(bound, shard index)` — a total order, so the
    /// generated candidate set is deterministic.
    fn rank_shards(
        &self,
        topo: &TopologySpec,
        state: &PathState,
        shard_rank: &mut Vec<(Time, usize)>,
        t: &Task,
        costs: &[NodeCost],
        stats: &mut SearchStats,
    ) {
        stats.shard_screens += 1;
        shard_rank.clear();
        let earliest = state.earliest_resource_start(t);
        let mut pruned = 0u64;
        for (s, cost) in costs.iter().enumerate() {
            let start = state.shard_min(s).max(earliest);
            let bound = start + t.processing_time() + cost.floor;
            if t.meets_deadline(bound) {
                shard_rank.push((bound, s));
            } else {
                pruned += 1;
            }
        }
        shard_rank.sort_unstable();
        let fanout = topo.fanout().min(shard_rank.len());
        pruned += (shard_rank.len() - fanout) as u64;
        stats.shards_pruned += pruned;
        shard_rank.truncate(fanout);
    }

    /// Walks the candidate list until a leaf, a dead-end, a budget break or
    /// the backtrack limit: the engine's main loop.
    fn dfs_loop(
        &self,
        work: &mut Work,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
        best: &mut Best,
    ) -> Termination {
        let input = &self.params.input;
        let mut last_expanded = None;
        loop {
            if meter.exhausted()
                || input
                    .vertex_cap
                    .is_some_and(|cap| stats.vertices_generated >= cap)
            {
                return Termination::QuantumExhausted;
            }
            let Some(cv) = work.cl.pop() else {
                return Termination::DeadEnd;
            };
            if work.arena[cv].parent() != last_expanded {
                stats.backtracks += 1;
                if input
                    .backtrack_limit
                    .is_some_and(|limit| stats.backtracks > limit)
                {
                    return Termination::Pruned;
                }
            }
            self.switch_to(work, stats, cv, true);
            last_expanded = Some(cv);
            if self.expand(work, Some(cv), meter, stats, best) {
                return Termination::Leaf;
            }
        }
    }
}

/// One phase past its prologue: the walk's read-only context, its working
/// set, the pooled output buffer, and the counters, best vertex and screen
/// evidence so far.
struct Phase<'a, 'b> {
    ctx: Ctx<'a, 'b>,
    work: &'b mut Work,
    out: &'b mut Vec<Assignment>,
    stats: SearchStats,
    best: Best,
    screened: Vec<ScreenEvidence>,
}

impl<'a, 'b> Phase<'a, 'b> {
    /// The phase prologue: clears the scratch, runs the viability screen,
    /// fills the (still unsorted) level order, fixes the key rank, resets
    /// the state behind the shard gate, and sets up the walk. A phase with nothing to search — an
    /// empty batch, or no task survives the screen — skips everything past
    /// the screen.
    fn open(
        params: &'b SearchParams<'a>,
        use_replay: bool,
        scratch: &'b mut SearchScratch,
    ) -> Self {
        let SearchScratch {
            work,
            viable,
            node_min,
            costs,
            theta,
            out,
        } = scratch;
        viable.clear();
        node_min.clear();
        costs.clear();
        theta.clear();
        out.clear();
        work.prof.reset();

        // Phase-level viability screen: processor finish times only grow
        // along any path of `G`, so a task that cannot meet its deadline
        // even against the *initial* finish times is infeasible in the
        // entire phase tree. Screening it out once keeps expansions from
        // re-evaluating it at every level. (Like the paper's per-phase batch
        // expiry test, this screen is not charged against the quantum;
        // screened tasks stay in the batch.) Under provenance a screen
        // rejection also carries the test's operands.
        let n = params.tasks().len();
        let screened = if n == 0 {
            Vec::new()
        } else {
            let t_screen = work.prof.start();
            let screened = screen_batch(&params.input, node_min, costs, theta, viable);
            work.prof.stop(Stage::Screen, t_screen);
            screened
        };
        let (viable, costs): (&[bool], &CostTable) = (viable, costs);
        let n_viable = viable.iter().filter(|&&v| v).count();
        let stats = SearchStats {
            screened_tasks: (n - n_viable) as u64,
            ..SearchStats::default()
        };

        let processor_order = match params.representation {
            Representation::AssignmentOriented => None,
            Representation::SequenceOriented {
                processor_order, ..
            } => Some(processor_order),
        };
        let mut shards = None;
        if n_viable > 0 {
            if params.representation.is_assignment_oriented() {
                work.level.reset(viable, params.tasks());
            }
            // Shard-first gate: active only under a multi-node hierarchical
            // topology with the assignment-oriented layout. Everything else
            // — constant, mesh, 1-node topology, sequence-oriented — takes
            // the flat candidate path untouched (the 1-node bit-identity
            // contract).
            shards = shard_gate(params);
            work.begin(params, shards);
        }
        // Root makespan: the latest initial finish time (the empty
        // schedule's CE). The root is the fallback "best" vertex.
        let root_makespan = params
            .input
            .initial_finish
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO);
        Phase {
            ctx: Ctx {
                params,
                viable,
                costs,
                processor_order,
                n_viable,
                use_replay,
                shards,
                rank: KeyRank::new(params),
            },
            work,
            out,
            stats,
            best: (0, root_makespan, None),
            screened,
        }
    }

    /// Expands the root, walks the candidate list from there, and delivers.
    fn run(mut self, meter: &mut SchedulingMeter) -> SearchOutcome {
        let termination = if self.ctx.n_viable == 0 {
            // Nothing to search: an empty batch is trivially a leaf, a fully
            // screened one a dead end; either delivers the empty root.
            if self.ctx.params.input.batch.is_empty() {
                Termination::Leaf
            } else {
                Termination::DeadEnd
            }
        } else if self
            .ctx
            .expand(self.work, None, meter, &mut self.stats, &mut self.best)
        {
            Termination::Leaf
        } else {
            self.ctx
                .dfs_loop(self.work, meter, &mut self.stats, &mut self.best)
        };
        self.deliver(termination)
    }

    /// Delivers the best vertex's schedule and decision evidence.
    /// Untracked: the extraction switch is not part of the search, so it
    /// must not skew the per-pop counters. The assignments are copied into
    /// the pooled `out` buffer (the state stays in the scratch for the next
    /// phase); callers return the vector via [`SearchScratch::recycle`] to
    /// close the reuse loop.
    fn deliver(mut self, termination: Termination) -> SearchOutcome {
        let assignments = match self.best.2 {
            Some(id) => {
                self.ctx.switch_to(self.work, &mut self.stats, id, false);
                let state = self.work.state.as_ref().expect("walk state initialized");
                self.out.extend_from_slice(state.assignments());
                std::mem::take(self.out)
            }
            None => Vec::new(),
        };
        let input = &self.ctx.params.input;
        let provenance = input
            .provenance
            .then(|| phase_provenance(input.comm, self.work, self.best.2, self.screened));
        SearchOutcome {
            assignments,
            termination,
            n_viable: self.ctx.n_viable,
            makespan: self.best.1,
            stats: self.stats,
            provenance,
        }
    }
}

/// The phase-level viability screen over the whole batch: fills the empty
/// `viable` with one verdict per task and returns the evidence for rejected
/// tasks. Every verdict comes from the same test; only under
/// [`PhaseInput::provenance`] are the rejected tasks' probes then built
/// with the test's operands, one per processor (viable tasks never need
/// theirs).
///
/// The verdict is the paper's test on the initial finish times — some
/// processor `k` with `f_k + p + c_k <= d` — read as one threshold per
/// affinity class (DESIGN.md §6, decision 2). The cost `c_k` depends on the
/// task only through its affinity set `a`, so `θ(a) = min_k (f_k + c(a, k))`
/// is shared by the whole class, and a task is viable iff `θ(a) <= d − p`,
/// that is iff `θ(a)` lies before its expiry instant `e = d − p + 1 µs`
/// ([`Batch::expiry`]). The screen takes each node's earliest initial
/// finish once (into the empty `node_min`; the constant model is one node
/// spanning the machine), prices each (class, node) pair once (into the
/// empty `costs`, which the walk then reads too), takes `θ` once per class
/// (into the empty `theta`, see [`class_threshold`]), and then makes one
/// comparison per task.
fn screen_batch(
    input: &PhaseInput<'_>,
    node_min: &mut Vec<Time>,
    costs: &mut CostTable,
    theta: &mut Vec<Time>,
    viable: &mut Vec<bool>,
) -> Vec<ScreenEvidence> {
    let finish = input.initial_finish;
    let processors = finish.len();
    match input.comm {
        CommModel::Constant { .. } => node_min.extend(finish.iter().copied().min()),
        CommModel::Hierarchical { spec } => {
            assert_eq!(
                spec.workers(),
                processors,
                "topology processor count must match the phase's processors"
            );
            node_min.extend((0..spec.nodes()).map(|n| {
                let (lo, hi) = spec.node_range(n);
                finish[lo..hi]
                    .iter()
                    .copied()
                    .min()
                    .expect("nodes are non-empty")
            }));
        }
        CommModel::Mesh { .. } => {}
    }
    let batch = input.batch;
    let classes = batch.affinity_classes();
    costs.fill(input.comm, classes, processors);
    theta.extend(
        classes
            .iter()
            .enumerate()
            .map(|(class, a)| class_threshold(input.comm, finish, node_min, costs.row(class), a)),
    );
    let classes = batch.class_ids().iter();
    viable.extend(
        classes
            .zip(batch.expiry())
            .map(|(&class, &e)| theta[class as usize] < e),
    );
    if !input.provenance {
        return Vec::new();
    }
    viable
        .iter()
        .enumerate()
        .filter(|&(_, &ok)| !ok)
        .map(|(idx, _)| {
            let t = &input.tasks()[idx];
            let probes = ProcessorId::all(processors)
                .map(|p| {
                    let available = finish[p.index()];
                    let demand = input.comm.demand(t, p);
                    ScreenProbe {
                        processor: p.index(),
                        available_us: available.as_micros(),
                        demand_us: demand.as_micros(),
                        completion_us: (available + demand).as_micros(),
                    }
                })
                .collect();
            ScreenEvidence { task: idx, probes }
        })
        .collect()
}

/// The class threshold `θ(a) = min_k (f_k + c(a, k))` over the processors
/// of `finish`: the earliest instant at which a task of affinity `a` could
/// begin its processing anywhere. [`Time::MAX`] with no processor.
///
/// The affine processors pay nothing, so their least finish comes first.
/// The others pay by node under the constant and hierarchical models:
/// every non-affine processor of node `n` pays the same class `c_n(a)`,
/// the class's entry `costs[n]` in the phase's cost table, so node `n`
/// offers `m_n + c_n(a)` from its earliest finish `m_n` in `node_min`.
/// This is exact: when only affine processors attain `m_n`, the affine
/// term is `m_n` itself, below `m_n + c_n(a)`. The mesh prices each
/// processor by its own distance, so there every processor offers
/// `f_k + c(a, k)`. A node or processor whose earliest finish is not before
/// the threshold so far cannot lower it and is skipped. That costs
/// O(nodes + |a|) per class, or O(P × |a|) on the mesh.
fn class_threshold(
    comm: &CommModel,
    finish: &[Time],
    node_min: &[Time],
    costs: &[NodeCost],
    a: &AffinitySet,
) -> Time {
    /// Lowers `theta` to `m + cost(unit)` over the units (nodes or
    /// processors) whose earliest finish `m` lies before it.
    fn lower(theta: Time, earliest: &[Time], cost: impl Fn(usize) -> Duration) -> Time {
        let offers = earliest.iter().enumerate();
        offers.fold(theta, |theta, (unit, &m)| {
            if m < theta {
                theta.min(m + cost(unit))
            } else {
                theta
            }
        })
    }
    let affine = a.members_in(0, finish.len()).map(|k| finish[k.index()]);
    let theta = affine.min().unwrap_or(Time::MAX);
    match comm {
        CommModel::Constant { .. } | CommModel::Hierarchical { .. } => {
            lower(theta, node_min, |n| costs[n].non_affine)
        }
        CommModel::Mesh { .. } => lower(theta, finish, |k| {
            comm.affinity_cost(a, ProcessorId::new(k))
        }),
    }
}

/// What the processors of one node charge a task of one affinity class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeCost {
    /// The cost every non-affine processor of the node pays
    /// ([`TopologySpec::non_affine_cost`]; `C` on the constant model).
    non_affine: Duration,
    /// The least cost of any processor of the node
    /// ([`TopologySpec::min_node_cost`]): zero when the node holds an
    /// affine processor, else `non_affine`. The shard ranking adds it to
    /// the node's earliest finish.
    floor: Duration,
}

/// The phase's communication costs by (affinity class, node): one row per
/// class of the batch, one [`NodeCost`] per node, priced by the viability
/// screen once per phase. Every cost these models charge is a function of
/// the class and the node alone (a processor's cost is zero on an affine
/// processor and the node's `non_affine` elsewhere), so `θ`, the shard
/// ranking and the candidate column's cold fill all read this table instead
/// of pricing each processor. The constant model is one node spanning the
/// machine; the mesh prices each processor by its own distance and keeps
/// no rows. Cleared, never dropped, like the rest of [`SearchScratch`].
#[derive(Debug, Default)]
struct CostTable {
    /// Entries per row: the nodes of the model, zero on the mesh.
    nodes: usize,
    /// Row-major: class `a`'s cost on node `n` at `a * nodes + n`.
    cells: Vec<NodeCost>,
}

impl CostTable {
    /// Empties the table, keeping its capacity.
    fn clear(&mut self) {
        self.nodes = 0;
        self.cells.clear();
    }

    /// Prices every class of `classes` on every node of `comm` on a
    /// machine of `processors` processors.
    fn fill(&mut self, comm: &CommModel, classes: &[AffinitySet], processors: usize) {
        match comm {
            CommModel::Constant { c } => {
                self.nodes = 1;
                self.cells.extend(classes.iter().map(|a| NodeCost {
                    non_affine: *c,
                    floor: if a.intersects_range(0, processors) {
                        Duration::ZERO
                    } else {
                        *c
                    },
                }));
            }
            CommModel::Hierarchical { spec } => {
                self.nodes = spec.nodes();
                self.cells.extend(classes.iter().flat_map(|a| {
                    (0..spec.nodes()).map(move |n| NodeCost {
                        non_affine: spec.non_affine_cost(a, n),
                        floor: spec.min_node_cost(a, n),
                    })
                }));
            }
            CommModel::Mesh { .. } => self.nodes = 0,
        }
    }

    /// Class `class`'s costs, one per node; empty on the mesh.
    #[inline]
    fn row(&self, class: usize) -> &[NodeCost] {
        &self.cells[class * self.nodes..(class + 1) * self.nodes]
    }
}

/// `t`'s demand on the processors of a node whose non-affine processors
/// pay `cost`, by processor index: `p` on an affine processor and `p + c`
/// on the rest — what [`CommModel::demand`] returns there, without
/// working out the node's cost class again for each processor.
#[inline]
fn node_demand(t: &Task, cost: NodeCost) -> impl Fn(usize) -> Duration + '_ {
    let p = t.processing_time();
    let remote = p + cost.non_affine;
    move |k| {
        if t.affinity().contains(ProcessorId::new(k)) {
            p
        } else {
            remote
        }
    }
}

/// Same-expansion alternatives for arena node `id`: its siblings with the
/// same task, in generation order, as trace probes labelled with their node
/// under `comm`. An expansion pushes all its children as one contiguous
/// arena block and no vertex is expanded twice, so the siblings are exactly
/// the run of equal-parent nodes around `id`.
fn rejected_siblings(
    comm: &CommModel,
    arena: &[Node],
    node_costs: &[(Time, Time)],
    id: usize,
) -> Vec<PlacementProbe> {
    let Node { parent, task, .. } = arena[id];
    let lo = arena[..id]
        .iter()
        .rposition(|sib| sib.parent != parent)
        .map_or(0, |i| i + 1);
    let hi = arena[id..]
        .iter()
        .position(|sib| sib.parent != parent)
        .map_or(arena.len(), |i| id + i);
    (lo..hi)
        .filter(|&sid| sid != id && arena[sid].task == task)
        .map(|sid| {
            let (completion, cost) = node_costs[sid];
            placement_probe(comm, arena[sid].processor(), completion, cost)
        })
        .collect()
}

/// Decision evidence for the delivered path of `work`'s arena: each
/// assignment's chosen cost next to its same-task siblings (the rejected
/// alternatives of the same expansion), with shards read off `comm`'s
/// topology. Reconstructed after the fact so collection cannot perturb the
/// search.
fn phase_provenance(
    comm: &CommModel,
    work: &Work,
    best_id: Option<usize>,
    screened: Vec<ScreenEvidence>,
) -> PhaseProvenance {
    let mut decisions = Vec::new();
    let mut cursor = best_id;
    while let Some(id) = cursor {
        let node = work.arena[id];
        let (completion, cost) = work.node_costs[id];
        decisions.push(PlacementEvidence {
            task: node.task(),
            chosen: placement_probe(comm, node.processor(), completion, cost),
            rejected: rejected_siblings(comm, &work.arena, &work.node_costs, id),
        });
        cursor = node.parent();
    }
    decisions.reverse();
    PhaseProvenance {
        screened,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;
    use paragon_platform::HostParams;
    use rt_task::{AffinitySet, TaskId};

    fn mk_task(id: u64, p_us: u64, d_us: u64, aff: &[usize]) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_micros(p_us))
            .deadline(Time::from_micros(d_us))
            .affinity(
                aff.iter()
                    .map(|&k| ProcessorId::new(k))
                    .collect::<AffinitySet>(),
            )
            .build()
    }

    fn free_meter() -> SchedulingMeter {
        SchedulingMeter::new(HostParams::free(), Duration::ZERO)
    }

    static NO_RESOURCES: ResourceEats = ResourceEats::new();

    fn params<'a>(
        batch: &'a Batch,
        comm: &'a CommModel,
        initial: &'a [Time],
        repr: &Representation,
        order: ChildOrder,
    ) -> SearchParams<'a> {
        SearchParams {
            input: PhaseInput {
                batch,
                comm,
                initial_finish: initial,
                vertex_cap: Some(100_000),
                backtrack_limit: None,
                resources: &NO_RESOURCES,
                provenance: false,
            },
            representation: *repr,
            child_order: order,
        }
    }

    #[test]
    fn empty_batch_is_a_trivial_leaf() {
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let empty = Batch::new(0);
        let p = params(&empty, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.assignments.is_empty());
        assert!(out.is_complete(0));
    }

    #[test]
    fn assignment_oriented_schedules_everything_feasible() {
        let batch: Batch = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 3];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(6));
        // load balancing spreads 6 equal tasks over 3 processors, 2 each
        assert_eq!(out.processors_used(&mut Vec::new()), 3);
        let max_done = out.assignments.iter().map(|a| a.completion).max().unwrap();
        assert_eq!(max_done, Time::from_micros(200));
    }

    #[test]
    fn all_scheduled_tasks_meet_deadlines() {
        // Mixed feasibility: generous and impossible deadlines.
        let batch = Batch::from_iter([
            mk_task(0, 100, 150, &[]),
            mk_task(1, 100, 90, &[]), // infeasible: p=100 > d=90
            mk_task(2, 100, 300, &[]),
        ]);
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        // task 1 can never be scheduled: the phase still ends at a leaf of
        // the *screened* tree, covering the viable tasks but not the batch.
        assert_eq!(out.termination, Termination::Leaf);
        assert!(!out.is_complete(3));
        assert!(out.covers_viable());
        assert_eq!(out.n_viable, 2);
        assert_eq!(out.screened(), 1, "task 1 screened at phase level");
        assert!(out.assignments.iter().all(|a| a.task != 1));
        for a in &out.assignments {
            assert!(batch.tasks()[a.task].meets_deadline(a.completion));
        }
    }

    #[test]
    fn quantum_exhaustion_returns_partial_schedule() {
        let batch: Batch = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 4];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        // 10us quantum at 1us per vertex = 10 vertices = 2.5 expansions of 4
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(1)),
            Duration::from_micros(10),
        );
        let out = search_schedule(&p, &mut meter);
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert!(!out.assignments.is_empty(), "delivers what it found");
        assert!(out.assignments.len() < 50);
        assert_eq!(out.stats.vertices_generated, meter.vertices());
    }

    #[test]
    fn quantum_break_counts_the_uncharged_vertex() {
        // Accounting contract, step 2: the charge attempt that finds the
        // quantum exhausted is still counted as a generated vertex (so the
        // stats always equal `meter.vertices()`), but it is never
        // classified. 10us quantum at 1us per vertex: charges 1..=9 fill
        // 9us, charge 10 is the exact fill (succeeds, exhausts), charge 11
        // fails -> 11 counted, 10 classified.
        let batch: Batch = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 4];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(1)),
            Duration::from_micros(10),
        );
        let out = search_schedule(&p, &mut meter);
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert_eq!(out.stats.vertices_generated, 11);
        assert_eq!(out.stats.vertices_generated, meter.vertices());
        assert_eq!(
            out.stats.feasible_children + out.stats.infeasible_children,
            out.stats.vertices_generated - 1,
            "exactly the one uncharged vertex goes unclassified"
        );
    }

    #[test]
    fn vertex_cap_break_classifies_every_counted_vertex() {
        // Accounting contract, step 1: the cap is checked *before* a vertex
        // is generated, so a mid-round cap break counts nothing — every
        // counted vertex carries a feasibility verdict. Cap 6 on a
        // 4-processor expansion breaks two candidates into the second round.
        let batch: Batch = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 4];
        let mut p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.input.vertex_cap = Some(6);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert_eq!(out.stats.vertices_generated, 6, "never exceeds the cap");
        assert_eq!(
            out.stats.feasible_children + out.stats.infeasible_children,
            out.stats.vertices_generated,
            "a cap break leaves no unclassified vertex"
        );
    }

    #[test]
    fn blocked_rounds_keep_the_classify_accounting() {
        // Task 1 is viable at the root (10us on P0 meets its 19us
        // deadline), but once task 0 holds P0 until 10us it fits on no
        // processor: every round that fixes it below the root is blocked.
        // The root round charges vertices 1..=5 (one feasible), so the
        // first blocked round charges 6..=10. The expected counts were
        // recorded from the engine that classified blocked rounds one
        // candidate at a time; both engines must reproduce them.
        let batch = Batch::from_iter([
            mk_task(0, 10, 15, &[]),
            mk_task(1, 10, 19, &[]),
            mk_task(2, 5, 500, &[]),
            mk_task(3, 5, 600, &[]),
        ]);
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let mut initial = [Time::from_micros(100); 5];
        initial[0] = Time::ZERO;
        // (vertex cost us, quantum us, vertex cap) ->
        // (vertices, infeasible, level skips, termination)
        let cases = [
            // The quantum cuts the blocked round after 1 charge: an exact
            // fill, then a fill that leaves 1us.
            ((1, 6, 100_000), (7, 5, 0, Termination::QuantumExhausted)),
            ((2, 13, 100_000), (7, 5, 0, Termination::QuantumExhausted)),
            // ... after P-1 = 4 charges.
            ((1, 9, 100_000), (10, 8, 0, Termination::QuantumExhausted)),
            ((3, 28, 100_000), (10, 8, 0, Termination::QuantumExhausted)),
            // The round's last charge fills the quantum: the round is
            // skipped, and the next round's first charge fails.
            ((1, 10, 100_000), (11, 9, 1, Termination::QuantumExhausted)),
            // The vertex cap cuts the round after 2 and after 4 charges.
            ((0, 0, 7), (7, 6, 0, Termination::QuantumExhausted)),
            ((0, 0, 9), (9, 8, 0, Termination::QuantumExhausted)),
            // Uncut: task 1 blocks every expansion below the root.
            ((0, 0, 100_000), (190, 159, 31, Termination::DeadEnd)),
        ];
        for ((cost, quantum, cap), expected) in cases {
            let mut p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
            p.input.vertex_cap = Some(cap);
            let host = HostParams::new(Duration::from_micros(cost));
            let mut meters =
                [0, 1].map(|_| SchedulingMeter::new(host, Duration::from_micros(quantum)));
            let outs = [
                search_schedule(&p, &mut meters[0]),
                search_schedule_replay(&p, &mut meters[1]),
            ];
            for (out, meter) in outs.iter().zip(&meters) {
                let s = out.stats;
                assert_eq!(
                    (
                        s.vertices_generated,
                        s.infeasible_children,
                        s.level_skips,
                        out.termination
                    ),
                    expected,
                    "cost {cost}us, quantum {quantum}us, cap {cap}"
                );
                assert_eq!(s.vertices_generated, meter.vertices());
            }
        }
    }

    #[test]
    fn feasible_rounds_keep_the_classify_accounting() {
        // Three root rounds whose candidates alternate between feasible
        // and infeasible, each cut by the quantum after its first charge,
        // mid-round and one charge short of its end, and by the vertex cap
        // mid-round, then run uncut. The expected counts were recorded
        // from the engine that charged and classified one candidate at a
        // time; both engines must reproduce them.
        use rt_task::TopologySpec;
        // A flat column round: P=6 under C = 50us, the EDF-first task
        // completes at f_k + 150 against its deadline 200, so P0, P2 and
        // P5 are feasible and P1, P3 and P4 are not.
        let flat_batch = Batch::from_iter([
            mk_task(0, 100, 200, &[]),
            mk_task(1, 100, 900, &[1]),
            mk_task(2, 50, 1_000, &[]),
        ]);
        let flat_comm = CommModel::constant(Duration::from_micros(50));
        let flat_initial = [0, 100, 0, 60, 500, 0].map(Time::from_micros);
        // A shard-segment round: 7 processors on nodes of 4 and 3 (intra
        // 20us, inter-node 100us), fanout 2. The task is affine to P5, so
        // node 1 ranks first (bound 100 against node 0's 200) and the
        // round reads P4 to P6, then P0 to P3: feasible, feasible,
        // infeasible, feasible, infeasible, feasible, infeasible.
        let shard_batch = Batch::from_iter([
            mk_task(0, 100, 300, &[5]),
            mk_task(1, 100, 2_000, &[0]),
            mk_task(2, 200, 2_500, &[]),
        ]);
        let shard_comm =
            CommModel::hierarchical(TopologySpec::new(7, 2, 1, 20, 100, 100).with_fanout(2));
        let shard_initial = [0, 300, 0, 300, 50, 0, 400].map(Time::from_micros);
        // A sequence-oriented round: level 0 fixes P0 and branches over
        // six viable tasks under C = 50us, alternately affine to P0
        // (feasible) and to P1 with no room for the cost (infeasible).
        let seq_batch = Batch::from_iter([
            mk_task(0, 100, 120, &[0]),
            mk_task(1, 100, 120, &[1]),
            mk_task(2, 100, 500, &[]),
            mk_task(3, 100, 130, &[1]),
            mk_task(4, 50, 60, &[0]),
            mk_task(5, 80, 100, &[1]),
        ]);
        let seq_comm = CommModel::constant(Duration::from_micros(50));
        let seq_initial = [Time::ZERO; 2];
        let asg = Representation::AssignmentOriented;
        let seq = Representation::sequence_oriented();
        // Per round: its candidate count m, then for the cuts after 1
        // charge, after 3, after m − 1, by a cap of 4 and uncut, the
        // expected (vertices, feasible, infeasible, level skips,
        // termination).
        let qe = Termination::QuantumExhausted;
        let rounds = [
            (
                (&flat_batch, &flat_comm, &flat_initial[..], &asg),
                ChildOrder::LoadBalance,
                6,
                [
                    (2, 1, 0, 0, qe),
                    (4, 2, 1, 0, qe),
                    (6, 2, 3, 0, qe),
                    (4, 2, 2, 0, qe),
                    (18, 15, 3, 0, Termination::Leaf),
                ],
            ),
            (
                (&shard_batch, &shard_comm, &shard_initial[..], &asg),
                ChildOrder::LoadBalance,
                7,
                [
                    (2, 1, 0, 0, qe),
                    (4, 2, 1, 0, qe),
                    (7, 4, 2, 0, qe),
                    (4, 3, 1, 0, qe),
                    (21, 18, 3, 0, Termination::Leaf),
                ],
            ),
            (
                (&seq_batch, &seq_comm, &seq_initial[..], &seq),
                ChildOrder::EarliestDeadline,
                6,
                [
                    (2, 1, 0, 0, qe),
                    (4, 2, 1, 0, qe),
                    (6, 3, 2, 0, qe),
                    (4, 2, 2, 0, qe),
                    (83, 20, 63, 11, Termination::DeadEnd),
                ],
            ),
        ];
        for ((batch, comm, initial, repr), order, m, expected) in rounds {
            // (quantum us at 1us per vertex, or `None` for the free host;
            // vertex cap)
            let cuts = [
                (Some(1), None),
                (Some(3), None),
                (Some(m - 1), None),
                (None, Some(4)),
                (None, None),
            ];
            for ((quantum, cap), want) in cuts.into_iter().zip(expected) {
                let mut p = params(batch, comm, initial, repr, order);
                p.input.vertex_cap = Some(cap.unwrap_or(100_000));
                let meter = || match quantum {
                    Some(q) => SchedulingMeter::new(
                        HostParams::new(Duration::from_micros(1)),
                        Duration::from_micros(q),
                    ),
                    None => free_meter(),
                };
                let mut meters = [meter(), meter()];
                let outs = [
                    search_schedule(&p, &mut meters[0]),
                    search_schedule_replay(&p, &mut meters[1]),
                ];
                for (out, meter) in outs.iter().zip(&meters) {
                    let s = out.stats;
                    assert_eq!(
                        (
                            s.vertices_generated,
                            s.feasible_children,
                            s.infeasible_children,
                            s.level_skips,
                            out.termination
                        ),
                        want,
                        "{repr:?} under {comm:?}, quantum {quantum:?}, cap {cap:?}"
                    );
                    assert_eq!(s.vertices_generated, meter.vertices());
                }
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        // One scratch carried across phases of very different shapes (sizes,
        // layouts, backtrack limits, quantum pressure) must reproduce every
        // fresh-run outcome bit for bit — the clearing invariant of
        // DESIGN.md §8.
        let comm_free = CommModel::free();
        let comm_slow = CommModel::constant(Duration::from_micros(1_000));
        let asg = Representation::AssignmentOriented;
        let seq = Representation::sequence_oriented();
        let big: Batch = (0..30).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let tight: Batch = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let affine = Batch::from_iter([mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])]);
        type Scenario<'a> = (
            &'a Batch,
            &'a CommModel,
            &'a Representation,
            usize,
            Option<u64>,
            bool,
        );
        let scenarios: Vec<Scenario> = vec![
            (&big, &comm_free, &asg, 3, None, false),
            (&tight, &comm_free, &asg, 2, None, true),
            (&affine, &comm_slow, &asg, 2, None, true),
            (&big, &comm_free, &seq, 2, None, false),
            (&tight, &comm_free, &asg, 2, Some(2), false),
            // shrink back down: stale capacity must not leak into a small phase
            (&affine, &comm_free, &asg, 2, None, true),
        ];
        let mut scratch = SearchScratch::new();
        for (batch, comm, repr, procs, backtrack_limit, provenance) in scenarios {
            let initial = vec![Time::ZERO; procs];
            let mut p = params(batch, comm, &initial, repr, ChildOrder::LoadBalance);
            p.input.backtrack_limit = backtrack_limit;
            p.input.provenance = provenance;
            let fresh = search_schedule(&p, &mut free_meter());
            let reused = search_schedule_with(&p, &mut free_meter(), &mut scratch);
            assert_eq!(fresh.assignments, reused.assignments);
            assert_eq!(fresh.termination, reused.termination);
            assert_eq!(fresh.n_viable, reused.n_viable);
            assert_eq!(fresh.makespan, reused.makespan);
            assert_eq!(fresh.stats, reused.stats);
            assert_eq!(fresh.provenance, reused.provenance);
            scratch.recycle(reused.assignments);
        }
    }

    #[test]
    fn dead_end_when_nothing_fits() {
        // Two tasks, each alone feasible, but not both on one processor.
        let batch = Batch::from_iter([mk_task(0, 100, 120, &[]), mk_task(1, 100, 120, &[])]);
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 1]; // single processor
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::DeadEnd);
        assert_eq!(
            out.assignments.len(),
            1,
            "best partial schedule has one task"
        );
    }

    #[test]
    fn sequence_oriented_dead_ends_where_assignment_oriented_succeeds() {
        // The paper's core conjecture, in miniature. Two processors; both
        // tasks have affinity only with P1 and deadlines too tight to pay
        // the communication cost. Sequence-oriented must give level 0's
        // P0 a task (infeasible) -> immediate dead-end. Assignment-oriented
        // just assigns both tasks to P1.
        let batch = Batch::from_iter([mk_task(0, 100, 250, &[1]), mk_task(1, 100, 250, &[1])]);
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let initial = [Time::ZERO; 2];

        let seq = Representation::sequence_oriented();
        let p = params(&batch, &comm, &initial, &seq, ChildOrder::EarliestDeadline);
        let out_seq = search_schedule(&p, &mut free_meter());
        assert_eq!(out_seq.termination, Termination::DeadEnd);
        assert!(out_seq.assignments.is_empty());

        let asg = Representation::AssignmentOriented;
        let p = params(&batch, &comm, &initial, &asg, ChildOrder::LoadBalance);
        let out_asg = search_schedule(&p, &mut free_meter());
        assert_eq!(out_asg.termination, Termination::Leaf);
        assert!(out_asg.is_complete(2));
        assert!(out_asg.assignments.iter().all(|a| a.processor.index() == 1));
    }

    #[test]
    fn sequence_oriented_completes_balanced_feasible_case() {
        let batch: Batch = (0..4).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::sequence_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::EarliestDeadline);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(4));
        // round-robin: levels 0,2 on P0 and 1,3 on P1
        assert_eq!(out.processors_used(&mut Vec::new()), 2);
    }

    #[test]
    fn backtracking_recovers_from_greedy_mistake() {
        // Task A (earliest deadline, considered first) fits on either
        // processor; task B only fits on P0 *and only if A is not there*.
        // Greedy load-balance puts A on P0 first (both empty, tie broken by
        // processor index), B then fails everywhere, and the search must
        // backtrack to try A on P1.
        let batch = Batch::from_iter([
            mk_task(0, 100, 150, &[0, 1]), // A: local everywhere, must start immediately
            mk_task(1, 100, 150, &[0]),    // B: affine P0 only; comm 1000 -> infeasible elsewhere
        ]);
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(2));
        assert!(out.stats.backtracks > 0, "needed at least one backtrack");
        assert!(out.stats.undos > 0, "branch switch reverted assignments");
        let a = out.assignments.iter().find(|a| a.task == 0).unwrap();
        let b = out.assignments.iter().find(|a| a.task == 1).unwrap();
        assert_eq!(a.processor.index(), 1);
        assert_eq!(b.processor.index(), 0);
    }

    #[test]
    fn vertex_cap_bounds_unbudgeted_search() {
        // Two processors fit 4 tasks each by the 400us deadline; with 10
        // tasks the last two are unschedulable and force exponential
        // backtracking through every arrangement of the first eight.
        let batch: Batch = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let mut p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.input.vertex_cap = Some(500);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert!(out.stats.vertices_generated <= 501);
    }

    #[test]
    fn backtrack_limit_prunes_the_search() {
        // Force heavy backtracking: 10 equal tasks, capacity for 8.
        let batch: Batch = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let mut p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.input.backtrack_limit = Some(3);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Pruned);
        assert!(out.stats.backtracks <= 4);
        assert!(!out.assignments.is_empty(), "best partial still delivered");
    }

    #[test]
    fn zero_backtrack_limit_is_one_dive() {
        let batch: Batch = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let mut p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.input.backtrack_limit = Some(0);
        let out = search_schedule(&p, &mut free_meter());
        // one straight dive schedules the 8 that fit, then stops at the
        // first backtrack
        assert_eq!(out.termination, Termination::Pruned);
        assert_eq!(out.assignments.len(), 8);
    }

    #[test]
    fn pruning_defaults_do_not_bind() {
        let batch: Batch = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        assert_eq!(p.input.backtrack_limit, None);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
    }

    #[test]
    fn stats_are_consistent() {
        let batch: Batch = (0..5).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(
            out.stats.feasible_children + out.stats.infeasible_children,
            out.stats.vertices_generated
        );
        assert_eq!(out.stats.deepest, 5);
        assert!(out.stats.expansions >= 5);
    }

    #[test]
    fn initial_backlog_delays_completions() {
        let batch = Batch::from_iter([mk_task(0, 100, 100_000, &[])]);
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        // P0 busy until 5_000, P1 until 200
        let initial = [Time::from_micros(5_000), Time::from_micros(200)];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.assignments[0].processor.index(), 1);
        assert_eq!(out.assignments[0].completion, Time::from_micros(300));
    }

    #[test]
    fn leaf_outcome_reports_real_makespan() {
        // Six equal 100us tasks balanced over three processors finish at
        // 200us; the outcome must carry that makespan, not a sentinel.
        let batch: Batch = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 3];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert_eq!(out.makespan, Time::from_micros(200));
        let max_done = out.assignments.iter().map(|a| a.completion).max().unwrap();
        assert_eq!(out.makespan, max_done);
    }

    #[test]
    fn incremental_dive_avoids_quadratic_replay() {
        // A straight dive: every pop is a child of the vertex just expanded,
        // so the incremental engine applies exactly one assignment per pop
        // (zero undos) while a root replay would redo the whole shared
        // prefix — `replay_avoided` counts those skipped applies.
        let n: usize = 64;
        let batch: Batch = (0..n as u64)
            .map(|i| mk_task(i, 100, 100_000, &[]))
            .collect();
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let mut p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.input.backtrack_limit = Some(0);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.assignments.len(), n);
        assert_eq!(out.stats.undos, 0, "a dive never leaves its own branch");
        // Pops happen at depths 1..=n-1 (the leaf is detected during its
        // parent's expansion); the pop at depth d shares a prefix of d-1.
        let expected = ((n - 1) * (n - 2) / 2) as u64;
        assert_eq!(out.stats.replay_avoided, expected);
    }

    #[test]
    fn incremental_matches_replay_oracle() {
        // In-crate differential smoke test (the seeded 500-instance sweep
        // lives in tests/engine_differential.rs): both engines must agree
        // bit-for-bit on every outcome field, including the stats.
        let comm_free = CommModel::free();
        let comm_slow = CommModel::constant(Duration::from_micros(1_000));
        let asg = Representation::AssignmentOriented;
        let seq = Representation::sequence_oriented();
        let scenarios: Vec<(Batch, &CommModel, &Representation, usize, Option<u64>)> = vec![
            // backtracking-heavy: 10 tasks, capacity 8
            (
                (0..10).map(|i| mk_task(i, 100, 400, &[])).collect(),
                &comm_free,
                &asg,
                2,
                None,
            ),
            // affinity forces a greedy mistake + recovery
            (
                Batch::from_iter([mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])]),
                &comm_slow,
                &asg,
                2,
                None,
            ),
            // sequence-oriented with skips
            (
                (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect(),
                &comm_free,
                &seq,
                3,
                None,
            ),
            // mixed feasibility
            (
                (0..8)
                    .map(|i| mk_task(i, 100, if i % 3 == 0 { 90 } else { 100_000 }, &[]))
                    .collect(),
                &comm_free,
                &asg,
                2,
                None,
            ),
            // backtrack-limited dead-end hunt
            (
                (0..10).map(|i| mk_task(i, 100, 400, &[])).collect(),
                &comm_free,
                &asg,
                2,
                Some(3),
            ),
        ];
        for (batch, comm, repr, procs, backtrack_limit) in scenarios {
            let initial = vec![Time::ZERO; procs];
            let mut p = params(&batch, comm, &initial, repr, ChildOrder::LoadBalance);
            p.input.backtrack_limit = backtrack_limit;
            let inc = search_schedule(&p, &mut free_meter());
            let rep = search_schedule_replay(&p, &mut free_meter());
            assert_eq!(inc.assignments, rep.assignments);
            assert_eq!(inc.termination, rep.termination);
            assert_eq!(inc.n_viable, rep.n_viable);
            assert_eq!(inc.makespan, rep.makespan);
            assert_eq!(inc.stats, rep.stats);
        }
    }

    #[test]
    fn provenance_records_screen_operands_and_placement_costs() {
        // Task 1 is infeasible (p=100 > d=90): screened, with one failed
        // probe per processor; the others are placed, each decision carrying
        // its chosen cost and same-task alternatives.
        let batch = Batch::from_iter([
            mk_task(0, 100, 150, &[]),
            mk_task(1, 100, 90, &[]),
            mk_task(2, 100, 300, &[]),
        ]);
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 2];
        let mut p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.input.provenance = true;
        let out = search_schedule(&p, &mut free_meter());
        let prov = out.provenance.as_ref().expect("provenance requested");
        assert_eq!(prov.screened.len(), 1);
        assert_eq!(prov.screened[0].task, 1);
        assert_eq!(prov.screened[0].probes.len(), 2);
        for probe in &prov.screened[0].probes {
            assert_eq!(probe.completion_us, probe.available_us + probe.demand_us);
            assert!(!batch.tasks()[1].meets_deadline(Time::from_micros(probe.completion_us)));
        }
        assert_eq!(prov.decisions.len(), out.assignments.len());
        for (d, a) in prov.decisions.iter().zip(&out.assignments) {
            assert_eq!(d.task, a.task);
            assert_eq!(d.chosen.processor, a.processor.index());
            assert_eq!(d.chosen.completion_us, a.completion.as_micros());
            assert_eq!(d.chosen.shard, 0, "the flat machine is node 0");
            for r in &d.rejected {
                assert_ne!(r.processor, d.chosen.processor);
                assert_eq!(r.shard, 0);
            }
        }

        // Collection is record-only: schedule and stats are bit-identical
        // with provenance off.
        let p2 = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out2 = search_schedule(&p2, &mut free_meter());
        assert_eq!(out.assignments, out2.assignments);
        assert_eq!(out.stats, out2.stats);
        assert!(out2.provenance.is_none());
    }

    #[test]
    fn tight_deadline_respects_phase_end_bound() {
        // Deadline 500; execution cannot start before the planned phase end
        // folded into initial_finish = 450; p = 100 -> completion 550 > 500:
        // infeasible, so nothing is scheduled.
        let batch = Batch::from_iter([mk_task(0, 100, 500, &[])]);
        let comm = CommModel::free();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::from_micros(450)];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::DeadEnd);
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn one_node_topology_is_bit_identical_to_constant() {
        use rt_task::TopologySpec;
        let c = Duration::from_micros(2_000);
        let batch: Batch = (0..12)
            .map(|i| mk_task(i, 200 + i * 37, 40_000, &[(i as usize) % 4]))
            .collect();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 8];

        let flat_comm = CommModel::constant(c);
        let topo_comm = CommModel::hierarchical(TopologySpec::flat(8, c));
        let pf = params(&batch, &flat_comm, &initial, &repr, ChildOrder::LoadBalance);
        let pt = params(&batch, &topo_comm, &initial, &repr, ChildOrder::LoadBalance);
        let flat = search_schedule(&pf, &mut free_meter());
        let topo = search_schedule(&pt, &mut free_meter());
        assert_eq!(flat.assignments, topo.assignments);
        assert_eq!(flat.termination, topo.termination);
        assert_eq!(flat.makespan, topo.makespan);
        assert_eq!(
            flat.stats, topo.stats,
            "1-node topology takes the flat path"
        );
        assert_eq!(topo.stats.shard_screens, 0, "no shard screen at 1 node");
    }

    #[test]
    fn sharded_search_prunes_the_candidate_loop() {
        use rt_task::TopologySpec;
        // 16 processors, 4 nodes of 4, fanout 2: each expansion may evaluate
        // at most 8 processors instead of all 16.
        let topo = TopologySpec::new(16, 4, 2, 0, 1_000, 2_000);
        let comm = CommModel::hierarchical(topo);
        let batch: Batch = (0..20)
            .map(|i| mk_task(i, 300, 200_000, &[(i as usize) % 16]))
            .collect();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 16];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(20));
        for a in &out.assignments {
            assert!(batch.tasks()[a.task].meets_deadline(a.completion));
        }
        assert!(out.stats.shard_screens > 0, "shard screen ran");
        assert!(out.stats.shards_pruned > 0, "fanout cut pruned shards");
        let per_expansion = out.stats.vertices_generated as f64 / out.stats.expansions as f64;
        assert!(
            per_expansion <= 8.0 + f64::EPSILON,
            "sharded expansion evaluated {per_expansion} candidates on average, \
             expected at most fanout * node size = 8"
        );
    }

    #[test]
    fn sharded_screen_never_rules_out_a_feasible_placement() {
        use rt_task::TopologySpec;
        // Tight deadlines force the screen to discard shards; with fanout
        // covering every node the cut is exact, so the sharded search must
        // schedule at least as many tasks as deadline feasibility allows on
        // its best shard. Compare against the flat hierarchical cost model
        // run without sharding (sequence of a 1-node gate is not available,
        // so compare viability: every task the flat run schedules, the
        // sharded run schedules too).
        let topo = TopologySpec::new(8, 4, 1, 0, 500, 500).with_fanout(4);
        let comm = CommModel::hierarchical(topo);
        let batch: Batch = (0..10)
            .map(|i| mk_task(i, 400, 1_200 + i * 400, &[(i as usize) % 8]))
            .collect();
        let repr = Representation::AssignmentOriented;
        let initial = [Time::ZERO; 8];
        let p = params(&batch, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        // Full fanout = no heuristic cut: the screen only drops shards whose
        // *best* processor already misses the deadline, so the search still
        // covers every viable task.
        assert!(out.covers_viable());
        for a in &out.assignments {
            assert!(batch.tasks()[a.task].meets_deadline(a.completion));
        }
    }

    /// The full-arena formulation of the sibling lookup: every other node
    /// with the same parent and task, in arena order.
    fn siblings_full_scan(
        comm: &CommModel,
        arena: &[Node],
        node_costs: &[(Time, Time)],
        id: usize,
    ) -> Vec<PlacementProbe> {
        let node = arena[id];
        arena
            .iter()
            .enumerate()
            .filter(|&(sid, sib)| sid != id && sib.parent == node.parent && sib.task == node.task)
            .map(|(sid, sib)| {
                placement_probe(comm, sib.processor(), node_costs[sid].0, node_costs[sid].1)
            })
            .collect()
    }

    /// Every node of `arena` finds the same siblings in its block as the
    /// full-arena filter does.
    fn assert_sibling_blocks(comm: &CommModel, arena: &[Node], node_costs: &[(Time, Time)]) {
        assert_eq!(arena.len(), node_costs.len());
        for id in 0..arena.len() {
            assert_eq!(
                rejected_siblings(comm, arena, node_costs, id),
                siblings_full_scan(comm, arena, node_costs, id),
                "arena node {id}"
            );
        }
    }

    #[test]
    fn sibling_block_lookup_matches_the_full_arena_filter() {
        use paragon_des::SimRng;
        use rt_task::TopologySpec;
        let workers = 8;
        let comms = [
            CommModel::constant(Duration::from_micros(700)),
            CommModel::hierarchical(TopologySpec::new(8, 4, 2, 0, 500, 1_500)),
        ];
        let reprs = [
            Representation::AssignmentOriented,
            Representation::sequence_oriented(),
        ];
        let mut rng = SimRng::seed_from(2024);
        let mut scratch = SearchScratch::new();
        let (mut decisions, mut alternatives) = (0, 0);
        for comm in &comms {
            for repr in &reprs {
                for _ in 0..60 {
                    let n = rng.uniform_u64(1..12);
                    let batch: Batch = (0..n)
                        .map(|i| {
                            let affinity: Vec<usize> = (0..rng.uniform_usize(0..3))
                                .map(|_| rng.uniform_usize(0..workers))
                                .collect();
                            let p_us = rng.uniform_u64(100..900);
                            mk_task(i, p_us, rng.uniform_u64(500..3_000), &affinity)
                        })
                        .collect();
                    let initial: Vec<Time> = (0..workers)
                        .map(|_| Time::from_micros(rng.uniform_u64(0..800)))
                        .collect();
                    let mut p = params(&batch, comm, &initial, repr, ChildOrder::LoadBalance);
                    p.input.provenance = true;
                    p.input.vertex_cap = Some(rng.uniform_u64(20..400));

                    let out = search_schedule_with(&p, &mut free_meter(), &mut scratch);
                    let prov = out.provenance.as_ref().expect("provenance requested");
                    assert_eq!(prov.decisions.len(), out.assignments.len());
                    if !out.assignments.is_empty() {
                        // The delivered vertex's root path is what the state
                        // was left on.
                        for (d, &id) in prov.decisions.iter().zip(scratch.work.path.iter()) {
                            assert_eq!(
                                d.rejected,
                                siblings_full_scan(
                                    comm,
                                    &scratch.work.arena,
                                    &scratch.work.node_costs,
                                    id
                                )
                            );
                        }
                    }
                    decisions += prov.decisions.len();
                    alternatives += prov
                        .decisions
                        .iter()
                        .map(|d| d.rejected.len())
                        .sum::<usize>();
                    assert_sibling_blocks(comm, &scratch.work.arena, &scratch.work.node_costs);
                    scratch.recycle(out.assignments);
                }
            }
        }
        assert!(
            decisions > 500 && alternatives > 500,
            "random phases must deliver paths with alternatives: {decisions} decisions, \
             {alternatives} alternatives"
        );
    }

    /// The all-probes formulation of the screen: a P-wide probe list for
    /// every batch task, the verdict read off those probes, and the probes
    /// of the rejected tasks kept as evidence.
    fn screen_all_probes(input: &PhaseInput<'_>) -> (Vec<bool>, Vec<ScreenEvidence>) {
        let mut viable = Vec::new();
        let mut evidence = Vec::new();
        for (idx, t) in input.tasks().iter().enumerate() {
            let probes: Vec<ScreenProbe> = ProcessorId::all(input.initial_finish.len())
                .map(|p| {
                    let available = input.initial_finish[p.index()];
                    let demand = input.comm.demand(t, p);
                    ScreenProbe {
                        processor: p.index(),
                        available_us: available.as_micros(),
                        demand_us: demand.as_micros(),
                        completion_us: (available + demand).as_micros(),
                    }
                })
                .collect();
            let ok = probes
                .iter()
                .any(|pr| t.meets_deadline(Time::from_micros(pr.completion_us)));
            if !ok {
                evidence.push(ScreenEvidence { task: idx, probes });
            }
            viable.push(ok);
        }
        (viable, evidence)
    }

    #[test]
    fn screen_matches_the_all_probes_formulation() {
        use paragon_des::SimRng;
        use paragon_platform::UNAVAILABLE;
        use rt_task::{MeshSpec, TopologySpec};
        // Every comm model and each arm's edge cases: the flat constant and
        // free models (one node), the mesh (per-processor thresholds), a
        // 1-node topology, zero and non-zero intra-node cost, and P = 130 on
        // 6 nodes of 22 and 21 processors, so affinity spans three words and
        // node edges fall off word edges. Each batch draws its tasks'
        // affinities from a pool of 1 to 4 sets, so classes repeat within a
        // batch. The pools hold empty sets and (outside the mesh, whose
        // geometry rejects them in both formulations) bits at or above P;
        // a sixth of the workers are down at `UNAVAILABLE`, and the ranges
        // give some tasks `p > d`.
        let models = [
            (CommModel::constant(Duration::from_micros(700)), 16),
            (CommModel::free(), 16),
            (CommModel::mesh(MeshSpec::new(4, 4, 300, 150)), 16),
            (
                CommModel::hierarchical(TopologySpec::flat(16, Duration::from_micros(700))),
                16,
            ),
            (
                CommModel::hierarchical(TopologySpec::new(16, 4, 2, 0, 500, 1_500)),
                16,
            ),
            (
                CommModel::hierarchical(TopologySpec::new(16, 4, 2, 300, 700, 1_500)),
                16,
            ),
            (
                CommModel::hierarchical(TopologySpec::new(130, 6, 2, 200, 600, 1_200)),
                130,
            ),
            (CommModel::constant(Duration::from_micros(900)), 130),
        ];
        let repr = Representation::AssignmentOriented;
        let mut rng = SimRng::seed_from(1998);
        let (mut node_min, mut costs, mut theta) = (Vec::new(), CostTable::default(), Vec::new());
        // Asserts the screen against the all-probes formulation, with and
        // without provenance, and returns the verdicts.
        let mut check = |batch: &Batch, comm: &CommModel, initial: &[Time]| -> Vec<bool> {
            let mut p = params(batch, comm, initial, &repr, ChildOrder::LoadBalance);
            let (want_viable, want_evidence) = screen_all_probes(&p.input);
            for provenance in [false, true] {
                p.input.provenance = provenance;
                let mut viable = Vec::new();
                node_min.clear();
                costs.clear();
                theta.clear();
                let evidence =
                    screen_batch(&p.input, &mut node_min, &mut costs, &mut theta, &mut viable);
                assert_eq!(viable, want_viable, "verdicts under {comm:?}");
                if provenance {
                    assert_eq!(evidence, want_evidence);
                } else {
                    assert!(evidence.is_empty());
                }
            }
            want_viable
        };
        for (comm, workers) in &models {
            let workers = *workers;
            let affinity_span = if matches!(comm, CommModel::Mesh { .. }) {
                workers
            } else {
                workers + 70
            };
            // One batch per model, refilled every phase as the driver's is,
            // so its classes also hold sets no task of the phase has.
            let mut batch = Batch::new(0);
            let (mut kept, mut rejected, mut shared) = (0, 0, 0);
            for _ in 0..300 {
                let pool: Vec<Vec<usize>> = (0..rng.uniform_usize(1..5))
                    .map(|_| {
                        (0..rng.uniform_usize(0..5))
                            .map(|_| rng.uniform_usize(0..affinity_span))
                            .collect()
                    })
                    .collect();
                let scheduled: Vec<usize> = (0..batch.len()).collect();
                batch.remove_sorted(&scheduled);
                batch.advance_phase();
                for i in 0..rng.uniform_u64(0..24) {
                    let affinity = &pool[rng.uniform_usize(0..pool.len())];
                    let p_us = rng.uniform_u64(50..2_000);
                    batch.push(mk_task(i, p_us, rng.uniform_u64(100..4_000), affinity));
                }
                let initial: Vec<Time> = (0..workers)
                    .map(|_| {
                        if rng.uniform_usize(0..6) == 0 {
                            UNAVAILABLE
                        } else {
                            Time::from_micros(rng.uniform_u64(0..2_000))
                        }
                    })
                    .collect();
                let verdicts = check(&batch, comm, &initial);
                let k = verdicts.iter().filter(|&&ok| ok).count();
                kept += k;
                rejected += verdicts.len() - k;
                let mut classes = batch.class_ids().to_vec();
                classes.sort_unstable();
                classes.dedup();
                shared += batch.len() - classes.len();
            }
            assert!(
                rejected > 100 && kept > 100 && shared > 1_000,
                "random batches under {comm:?} must mix verdicts and share classes: \
                 {kept} viable, {rejected} rejected, {shared} tasks in a shared class"
            );
        }

        // The node-level terms of θ in isolation, on 8 processors in 2
        // nodes of 4 (intra-node 800, inter-node 1000) and on the constant
        // model (C = 1000). Node 0's earliest finish (P1 at 0) is not
        // affine; its affine processor P2 finishes at 500; node 1 is down.
        let topo = CommModel::hierarchical(TopologySpec::new(8, 2, 1, 800, 1_000, 1_000));
        let constant = CommModel::constant(Duration::from_micros(1_000));
        let mut initial = vec![Time::from_micros(900), Time::ZERO, Time::from_micros(500)];
        initial.push(Time::from_micros(900));
        initial.extend([UNAVAILABLE; 4]);
        let cases = [
            // θ({2}) = 500 through the affine P2, below node 0's 0 + 800:
            // viable, as 500 < e = 601.
            (mk_task(0, 100, 700, &[2]), true),
            // The same class against e = 451: rejected although node 0's
            // earliest finish alone would fit (0 + 100 <= 550).
            (mk_task(1, 100, 550, &[2]), false),
            // Affinity only on the down node and above P: θ = 0 + 1000,
            // through node 0's non-affine class, against e = 901.
            (mk_task(2, 100, 1_000, &[5, 40]), false),
            // No affinity: every processor pays the worst class, θ = 1000.
            (mk_task(3, 100, 1_100, &[]), true),
            (mk_task(4, 100, 1_099, &[]), false),
        ];
        let batch: Batch = cases.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(batch.class_ids(), [0, 0, 1, 2, 2]);
        let want: Vec<bool> = cases.iter().map(|&(_, ok)| ok).collect();
        for comm in [&topo, &constant] {
            assert_eq!(check(&batch, comm, &initial), want, "under {comm:?}");
        }
        let (a, finish) = (&batch.affinity_classes()[0], &initial[..]);
        let node_min = [Time::ZERO, UNAVAILABLE];
        for (comm, node_min) in [(&topo, &node_min[..]), (&constant, &node_min[..1])] {
            costs.clear();
            costs.fill(comm, std::slice::from_ref(a), finish.len());
            assert_eq!(
                class_threshold(comm, finish, node_min, costs.row(0), a),
                Time::from_micros(500),
                "under {comm:?}"
            );
        }
    }

    #[test]
    fn cost_table_prices_each_class_on_each_node() {
        // Every (class, node) entry against `TopologySpec::non_affine_cost`,
        // the floor the shard ranking adds against `min_node_cost`, and the
        // demand the column fill builds from an entry against
        // `CommModel::demand` on each processor of the node. P = 130, so
        // sets span three words, on 1 to 3 racks, with equal and unequal
        // node sizes and zero and non-zero intra-node cost; the classes
        // hold the empty set, sets whose only bits are at or above P,
        // single processors, and sets that span nodes and racks.
        use rt_task::TopologySpec;
        let workers = 130;
        let topologies = [
            TopologySpec::new(130, 5, 1, 0, 400, 400),
            TopologySpec::new(130, 6, 2, 50, 600, 1_200),
            TopologySpec::new(130, 7, 3, 0, 300, 900),
            TopologySpec::new(130, 4, 3, 50, 50, 800),
            TopologySpec::new(130, 1, 1, 700, 700, 700),
        ];
        let sets: [&[usize]; 9] = [
            &[],
            &[130],
            &[131, 200, 255],
            &[0],
            &[64],
            &[129],
            &[3, 70],
            &[10, 128, 140],
            &[1, 2, 3, 30, 31],
        ];
        let batch: Batch = sets
            .iter()
            .enumerate()
            .map(|(i, aff)| mk_task(i as u64, 100 + i as u64, 10_000, aff))
            .collect();
        let classes = batch.affinity_classes();
        assert_eq!(classes.len(), sets.len());
        let mut table = CostTable::default();
        for topo in &topologies {
            let comm = CommModel::hierarchical(*topo);
            table.clear();
            table.fill(&comm, classes, workers);
            for (task, t) in batch.tasks().iter().enumerate() {
                let a = t.affinity();
                let row = table.row(batch.class_ids()[task] as usize);
                assert_eq!(row.len(), topo.nodes());
                for (n, &cost) in row.iter().enumerate() {
                    assert_eq!(
                        cost.non_affine,
                        topo.non_affine_cost(a, n),
                        "{a} on node {n}"
                    );
                    assert_eq!(cost.floor, topo.min_node_cost(a, n), "{a} on node {n}");
                    let demand = node_demand(t, cost);
                    let (lo, hi) = topo.node_range(n);
                    for k in lo..hi {
                        assert_eq!(
                            demand(k),
                            comm.demand(t, ProcessorId::new(k)),
                            "{a} on P{k}"
                        );
                    }
                }
            }
        }
        // The constant model is one node: `C` off the set, and a floor of
        // zero only when a member lies below P.
        let c = Duration::from_micros(900);
        let comm = CommModel::constant(c);
        table.clear();
        table.fill(&comm, classes, workers);
        for (task, t) in batch.tasks().iter().enumerate() {
            let a = t.affinity();
            let &[cost] = table.row(batch.class_ids()[task] as usize) else {
                panic!("the constant model is one node");
            };
            let least = ProcessorId::all(workers)
                .map(|k| comm.cost(t, k))
                .min()
                .expect("processors");
            assert_eq!((cost.non_affine, cost.floor), (c, least), "{a}");
            let demand = node_demand(t, cost);
            for k in ProcessorId::all(workers) {
                assert_eq!(demand(k.index()), comm.demand(t, k), "{a} on {k}");
            }
        }
        // The mesh keeps no rows.
        let mesh = CommModel::mesh(rt_task::MeshSpec::new(4, 4, 300, 150));
        table.clear();
        table.fill(&mesh, classes, 16);
        assert!((0..classes.len()).all(|class| table.row(class).is_empty()));
    }

    #[test]
    fn successor_keys_sort_like_each_child_order_tuple() {
        // The packed key against each child order's full comparison tuple
        // over (task, processor) pairs, on random expansions of both
        // layouts: one coordinate fixed, the other (the key's member)
        // distinct, and completions and deadlines drawn from small ranges
        // so ties are common.
        use paragon_des::SimRng;
        let comm = CommModel::free();
        let initial = [Time::ZERO];
        let mut rng = SimRng::seed_from(1998);
        let mut saturated = 0;
        for round in 0..2_000 {
            // Odd rounds space the deadlines 2^31 µs apart, so most of their
            // tasks lie 2^32 µs or more past the anchor and share the
            // saturated deadline rank that `order_keys` re-sorts.
            let step = if round % 2 == 0 { 100 } else { 1 << 31 };
            let batch: Batch = (0..16)
                .map(|i| mk_task(i, 1, step * rng.uniform_u64(1..6), &[]))
                .collect();
            let fixed = rng.uniform_usize(0..16);
            let base = Time::from_micros(rng.uniform_u64(0..400));
            // Generation order: ascending members, as every source emits.
            let mut cands: Vec<(usize, Time)> = Vec::new();
            for m in 0..16 {
                if rng.bernoulli(0.6) {
                    cands.push((m, Time::from_micros(rng.uniform_u64(0..500))));
                }
            }
            for repr in [
                Representation::AssignmentOriented,
                Representation::sequence_oriented(),
            ] {
                let pair = |m: usize| {
                    if repr.is_assignment_oriented() {
                        (fixed, m)
                    } else {
                        (m, fixed)
                    }
                };
                for order in [
                    ChildOrder::LoadBalance,
                    ChildOrder::EarliestCompletion,
                    ChildOrder::EarliestDeadline,
                    ChildOrder::None,
                ] {
                    let mut want = cands.clone();
                    match order {
                        ChildOrder::LoadBalance => want.sort_by_key(|&(m, c)| {
                            let (t, p) = pair(m);
                            (base.max(c), c, p, t)
                        }),
                        ChildOrder::EarliestCompletion => want.sort_by_key(|&(m, c)| {
                            let (t, p) = pair(m);
                            (c, p, t)
                        }),
                        ChildOrder::EarliestDeadline => want.sort_by_key(|&(m, c)| {
                            let (t, p) = pair(m);
                            (batch.tasks()[t].deadline(), c, t, p)
                        }),
                        ChildOrder::None => {}
                    }
                    let p = params(&batch, &comm, &initial, &repr, order);
                    let rank = KeyRank::new(&p);
                    let mut keys: Vec<u128> = cands
                        .iter()
                        .enumerate()
                        .map(|(g, &(m, c))| {
                            let deadline = batch.tasks()[pair(m).0].deadline();
                            successor_key(rank.of(deadline, g), c, m)
                        })
                        .collect();
                    let tail = keys.iter().filter(|&&k| (k >> 96) as u32 == u32::MAX);
                    saturated += usize::from(tail.count() >= 2);
                    order_keys(&mut keys, rank, batch.tasks());
                    let got: Vec<(usize, Time)> = keys.into_iter().map(unpack_key).collect();
                    assert_eq!(got, want, "round {round}, {repr:?}, {order:?}");
                }
            }
        }
        assert!(
            saturated > 500,
            "the saturated tail must be exercised: {saturated} expansions"
        );
    }

    #[test]
    fn level_order_prefix_grows_into_the_full_sort() {
        // The on-demand level order of packed keys against the full sort by
        // `(deadline, batch index)`, over batches of up to ~600 tasks (far
        // past the first chunk) and random viable masks. A narrow deadline
        // range makes many deadlines tie, so the batch index in the key's
        // low word must break them as the full sort does.
        use paragon_des::SimRng;

        let mut rng = SimRng::seed_from(1998);
        let mut level = LevelOrder::default();
        let mut full = Vec::new();
        for case in 0..160 {
            let n = rng.uniform_usize(0..600);
            let tasks: Vec<Task> = (0..n as u64)
                .map(|i| mk_task(i, rng.uniform_u64(1..40), rng.uniform_u64(0..400), &[]))
                .collect();
            let density = *rng.choose(&[0.0, 0.05, 0.5, 0.95, 1.0]);
            let viable: Vec<bool> = (0..n).map(|_| rng.bernoulli(density)).collect();
            full.clear();
            full.extend((0..n).filter(|&t| viable[t]));
            full.sort_unstable_by_key(|&t| (tasks[t].deadline(), t));
            let tasks_of = |keys: &[u128]| -> Vec<usize> {
                keys.iter().map(|&k| LevelOrder::task(k)).collect()
            };

            // Random growth requests: every prefix equals the full sort's.
            level.reset(&viable, &tasks);
            assert_eq!(level.sorted, 0);
            while level.sorted < full.len() {
                for _ in 0..rng.uniform_usize(1..4) {
                    level.grow();
                }
                assert_eq!(tasks_of(&level.keys[..level.sorted]), full[..level.sorted]);
            }
            assert!(!level.grow());
            assert_eq!(tasks_of(&level.keys), full, "case {case}");
            for &k in &level.keys {
                let t = LevelOrder::task(k);
                assert_eq!(
                    (k >> 64) as u64,
                    tasks[t].deadline().as_micros(),
                    "deadline word"
                );
            }

            // The expansion scan grows the prefix itself. With a random
            // set of tasks assigned, it yields exactly the unassigned
            // ones in full-sort order, resuming from its cursor.
            let mut state = PathState::new(vec![Time::ZERO; 2], n);
            let comm = CommModel::free();
            for &t in &full {
                if rng.bernoulli(0.3) {
                    state.apply(&tasks, &comm, t, ProcessorId::new(0));
                }
            }
            level.reset(&viable, &tasks);
            let mut cursor = 0;
            let mut scanned = Vec::new();
            while let Some(t) = level.next_unassigned(&mut cursor, &state) {
                scanned.push(t);
            }
            let want: Vec<usize> = full
                .iter()
                .copied()
                .filter(|&t| !state.is_assigned(t))
                .collect();
            assert_eq!(scanned, want, "case {case}");
        }
    }

    #[test]
    fn quantum_cut_long_sequence_oriented_rounds_are_pinned() {
        // A sequence-oriented root round over a batch of hundreds of viable
        // tasks, cut by the quantum after 1 charge, after 50, and one short
        // of the full round, under the EDF and generation child orders and
        // both processor-skip variants. The differential instances hold at
        // most 24 tasks, so only this case stops a round with hundreds of
        // candidates still unevaluated. The digest was first recorded from
        // the engine that evaluated a round's every candidate before
        // charging the first, and re-recorded when the depth-prune counter
        // left the fold; evaluating candidates as the quantum pays for them
        // must leave stats, termination and assignments unchanged.
        use paragon_des::SimRng;

        fn fold(digest: &mut u64, w: u64) {
            for b in w.to_le_bytes() {
                *digest ^= u64::from(b);
                *digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        }

        let workers = 4;
        let mut rng = SimRng::seed_from(1998);
        let batch: Batch = (0..400)
            .map(|i| {
                let p = rng.uniform_u64(50..500);
                let d = if rng.bernoulli(0.3) {
                    p + rng.uniform_u64(0..600)
                } else {
                    rng.uniform_u64(1_000..50_000)
                };
                let affinity: Vec<usize> = (0..workers).filter(|_| rng.bernoulli(0.4)).collect();
                mk_task(i, p, d, &affinity)
            })
            .collect();
        let comm = CommModel::constant(Duration::from_micros(300));
        let initial = [400, 0, 150, 900].map(Time::from_micros);
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for skip_processors in [false, true] {
            let repr = Representation::SequenceOriented {
                processor_order: ProcessorOrder::RoundRobin,
                skip_processors,
            };
            for order in [ChildOrder::EarliestDeadline, ChildOrder::None] {
                let p = params(&batch, &comm, &initial, &repr, order);
                let n_viable = search_schedule(&p, &mut free_meter()).n_viable as u64;
                assert!(n_viable >= 300, "the round must be long: {n_viable}");
                for quantum in [1, 50, n_viable - 1] {
                    let mut meter = SchedulingMeter::new(
                        HostParams::new(Duration::from_micros(1)),
                        Duration::from_micros(quantum),
                    );
                    let out = search_schedule(&p, &mut meter);
                    assert_eq!(out.termination, Termination::QuantumExhausted);
                    assert_eq!(out.stats.expansions, 1, "the first round is cut");
                    assert_eq!(out.stats.vertices_generated, quantum + 1);
                    fold(&mut digest, out.assignments.len() as u64);
                    for a in &out.assignments {
                        fold(&mut digest, a.task as u64);
                        fold(&mut digest, a.processor.index() as u64);
                        fold(&mut digest, a.completion.as_micros());
                    }
                    let s = out.stats;
                    for w in [
                        s.vertices_generated,
                        s.expansions,
                        s.backtracks,
                        s.infeasible_children,
                        s.feasible_children,
                        s.deepest as u64,
                        s.level_skips,
                        s.screened_tasks,
                        s.undos,
                        s.replay_avoided,
                        s.shard_screens,
                        s.shards_pruned,
                    ] {
                        fold(&mut digest, w);
                    }
                }
            }
        }
        assert_eq!(digest, 0x2d39_32ca_1197_fab1, "digest {digest:#018x}");
    }
}
