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

use paragon_des::trace::PhaseProfile;
use paragon_des::{Duration, Time};
use rt_task::{CommModel, ProcessorId, ResourceEats, Task, TopologySpec};

use paragon_platform::SchedulingMeter;
use rt_telemetry::{Stage, StageProfiler};
use serde::{Deserialize, Serialize};

use crate::policy::ChildOrder;
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
    /// A pruning bound (backtrack limit) cut the search short.
    Pruned,
}

/// The search-space pruning heuristics Section 3 of the paper lists as what
/// "dynamic algorithms are forced to use … to reduce the scheduling
/// complexity": a limit on backtracking and a limit on the depth of search.
/// The defaults disable both (the quantum is then the only bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pruning {
    /// Expansions stop below this depth; the tree is explored only down to
    /// `depth_bound` assignments. `None` = full depth.
    pub depth_bound: Option<usize>,
    /// The phase ends ([`Termination::Pruned`]) after this many backtracks.
    /// `None` = unlimited.
    pub backtrack_limit: Option<u64>,
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
    /// Expansion attempts refused by the Section-3 depth bound.
    pub depth_prunes: u64,
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

/// One feasibility probe from the phase-level viability screen: the
/// operands of the paper's test for one candidate processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenProbe {
    /// The candidate processor.
    pub processor: ProcessorId,
    /// The processor's initial finish time `max(busy_k, t_s + Q_s(j))`.
    pub available: Time,
    /// The demand `p_l + c_lk` the assignment would add.
    pub demand: Duration,
    /// The resulting completion `se_lk`; the probe fails when it exceeds the
    /// task's deadline.
    pub completion: Time,
}

/// Why one batch task failed the phase-level viability screen: one failed
/// probe per candidate processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenEvidence {
    /// Batch index of the screened task.
    pub task: usize,
    /// The failed feasibility probes, one per processor.
    pub probes: Vec<ScreenProbe>,
}

/// A candidate placement the search evaluated at the same expansion as a
/// delivered assignment but ranked lower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementAlternative {
    /// The rejected processor.
    pub processor: ProcessorId,
    /// Predicted completion on it.
    pub completion: Time,
    /// Its cost-function value `ce_k` (the partial schedule's makespan had
    /// it been chosen).
    pub cost: Time,
}

/// Why a delivered assignment picked the processor it did: the chosen
/// placement's cost next to every sibling alternative for the same task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementEvidence {
    /// Batch index of the placed task.
    pub task: usize,
    /// The chosen processor.
    pub processor: ProcessorId,
    /// Predicted completion on the chosen processor.
    pub completion: Time,
    /// The chosen placement's cost `ce_k`.
    pub cost: Time,
    /// Same-task alternatives evaluated at the same expansion and ranked
    /// lower (empty under sequence-oriented layouts, where siblings differ
    /// by task rather than processor).
    pub rejected: Vec<PlacementAlternative>,
}

/// Decision evidence for one scheduling phase, collected only when
/// [`SearchParams::provenance`] is set: which tasks the viability screen
/// rejected (with the actual test operands) and why each delivered
/// assignment chose its processor. Collection is record-only — it never
/// alters the search order, the delivered schedule, or the stats.
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
    /// Decision evidence, present only when [`SearchParams::provenance`]
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

    /// Number of distinct processors the schedule uses.
    #[must_use]
    pub fn processors_used(&self) -> usize {
        let mut procs: Vec<ProcessorId> = self.assignments.iter().map(|a| a.processor).collect();
        procs.sort();
        procs.dedup();
        procs.len()
    }
}

/// Inputs of one scheduling phase.
#[derive(Debug, Clone)]
pub struct SearchParams<'a> {
    /// The batch being scheduled.
    pub tasks: &'a [Task],
    /// The interconnect cost model.
    pub comm: &'a CommModel,
    /// Per-processor earliest start for new work:
    /// `max(busy_until_k, t_s + Q_s(j))` (see [`PathState::new`]).
    pub initial_finish: &'a [Time],
    /// Tree layout (assignment- vs sequence-oriented).
    pub representation: &'a Representation,
    /// Heuristic ordering of feasible successors.
    pub child_order: ChildOrder,
    /// Reference instant for slack-based task ordering (`t_s`).
    pub now: Time,
    /// Hard cap on generated vertices, guarding unbounded searches when the
    /// host's vertex cost is zero. `None` = rely on the meter alone.
    pub vertex_cap: Option<u64>,
    /// Optional Section-3 pruning heuristics (depth bound, backtrack
    /// limit).
    pub pruning: Pruning,
    /// The machine's resource earliest-available times at phase start
    /// (empty for the paper's independent tasks).
    pub resources: ResourceEats,
    /// Collect decision evidence ([`SearchOutcome::provenance`]). Off by
    /// default: collection allocates per expansion, and the flight recorder
    /// must be free when tracing is disabled.
    pub provenance: bool,
}

/// Arena node: enough to reconstruct the partial schedule by walking
/// parents, plus its depth so the incremental engine can find the common
/// ancestor of two vertices in O(branch distance).
#[derive(Debug, Clone, Copy)]
struct Node {
    parent: Option<usize>,
    /// 1-based: the number of assignments on the root-to-here path.
    depth: usize,
    task: usize,
    processor: ProcessorId,
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
    /// Viable tasks in level order (assignment-oriented layouts).
    level_task: Vec<usize>,
    /// Per-task verdict of the phase-level viability screen.
    viable: Vec<bool>,
    /// Earliest initial finish of each node under a hierarchical topology,
    /// written once per phase by the viability screen.
    node_min: Vec<Time>,
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
    /// Raw (task, processor) candidates of one sequence-oriented skip round.
    raw: Vec<(usize, ProcessorId)>,
    /// Completions of `raw`, index-aligned (one batched evaluation pass
    /// before the accounting loop consumes them).
    comp: Vec<Time>,
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
        self.raw.clear();
        self.comp.clear();
        self.shard_rank.clear();
        let n = params.tasks.len();
        let state = self
            .state
            .get_or_insert_with(|| PathState::new(params.initial_finish.to_vec(), n));
        state.reset(params.initial_finish, n, &params.resources);
        if let Some(topo) = shards {
            self.shard_ends.clear();
            self.shard_ends
                .extend((0..topo.nodes()).map(|s| topo.node_range(s).1));
            state.configure_shards(&self.shard_ends);
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
/// pop). Used by the differential property tests and the deep-dive
/// benchmark; never by the production schedulers.
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
/// parameters plus the phase-level screen verdicts, level order and key
/// rank, fixed once per phase.
struct Ctx<'a, 'b> {
    params: &'b SearchParams<'a>,
    viable: &'b [bool],
    level_task: &'b [usize],
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
                let anchor = params.initial_finish.iter().copied().min();
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
    let topo = params.comm.topology()?;
    if topo.nodes() < 2 || !params.representation.is_assignment_oriented() {
        return None;
    }
    assert_eq!(
        topo.workers(),
        params.initial_finish.len(),
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

impl Ctx<'_, '_> {
    /// Reconstructs the PathState of a vertex by replaying root->vertex —
    /// the O(depth) oracle path, taken only when `use_replay` is set.
    /// Allocates freely: the oracle is never on the production hot path.
    fn replay(&self, arena: &[Node], id: Option<usize>) -> PathState {
        let params = self.params;
        let mut chain = Vec::new();
        let mut cursor = id;
        while let Some(i) = cursor {
            chain.push(i);
            cursor = arena[i].parent;
        }
        let mut state = PathState::with_resources(
            params.initial_finish.to_vec(),
            params.tasks.len(),
            params.resources.clone(),
        );
        for &i in chain.iter().rev() {
            let node = &arena[i];
            state.apply(params.tasks, params.comm, node.task, node.processor);
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
            let node = &work.arena[i];
            if work.path.get(node.depth - 1) == Some(&i) {
                break node.depth;
            }
            work.chain.push(i);
            cursor = node.parent;
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
            *state = self.replay(&work.arena, Some(cv));
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
                    self.params.tasks,
                    self.params.comm,
                    node.task,
                    node.processor,
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
        let state = work.state.as_mut().expect("walk state initialized");
        // Depth bound (Section 3 pruning): do not expand below the bound.
        if params
            .pruning
            .depth_bound
            .is_some_and(|bound| state.depth() >= bound)
        {
            stats.depth_prunes += 1;
            return false;
        }
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
        for skip in 0..=max_skips {
            let in_budget = if assignment {
                let Some(off) = self.level_task[cursor..]
                    .iter()
                    .position(|&t| !state.is_assigned(t))
                else {
                    break; // no unassigned task remains at all
                };
                let task = self.level_task[cursor + off];
                cursor += off + 1;
                fixed = task;
                // The task is fixed for the round, so its deadline is too.
                let deadline = params.tasks[task].deadline();
                // The round's candidates are one row of the task's
                // persistent candidate column, synced in O(Δ) from the
                // journal: under shard-first generation only the winning
                // shards' segments, otherwise the whole row.
                if let Some(topo) = self.shards {
                    // Like the batch screen, the per-shard bounds cost no
                    // quantum — the saving the sharded bench point measures.
                    let t_shard = work.prof.start();
                    self.rank_shards(topo, state, &mut work.shard_rank, task, stats);
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
                    for &(_, s) in &work.shard_rank {
                        state.ensure_candidate_segment(params.tasks, params.comm, task, s);
                    }
                    work.prof.stop(Stage::Fill, t_fill);
                    let col = state.comp_column(task);
                    let segments = work.shard_rank.iter().flat_map(|&(_, s)| {
                        let (lo, hi) = topo.node_range(s);
                        (lo..hi).zip(&col[lo..hi])
                    });
                    self.classify(
                        segments,
                        |_| deadline,
                        &mut work.ckeys,
                        &mut work.prof,
                        meter,
                        stats,
                    )
                } else {
                    let t_fill = work.prof.start();
                    let col = state.candidate_column(params.tasks, params.comm, task);
                    work.prof.stop(Stage::Fill, t_fill);
                    self.classify(
                        col.iter().enumerate(),
                        |_| deadline,
                        &mut work.ckeys,
                        &mut work.prof,
                        meter,
                        stats,
                    )
                }
            } else {
                // Sequence-oriented levels fix a processor and branch over
                // tasks, so the per-task column does not apply: the round
                // evaluates its raw candidates in one batched pass.
                // Screened (phase-infeasible) tasks are invisible to the
                // search and cost no quantum; an empty round means no viable
                // task is left at all — skipping further cannot help.
                params.representation.raw_candidates_into(
                    state,
                    self.level_task,
                    skip,
                    &mut work.raw,
                );
                work.raw.retain(|&(t, _)| self.viable[t]);
                let Some(&(_, p)) = work.raw.first() else {
                    break;
                };
                fixed = p.index();
                let t_fill = work.prof.start();
                state.completions_into(params.tasks, params.comm, &work.raw, &mut work.comp);
                work.prof.stop(Stage::Fill, t_fill);
                let tasks = work.raw.iter().map(|&(t, _)| t);
                let deadline = |t: usize| params.tasks[t].deadline();
                self.classify(
                    tasks.zip(&work.comp),
                    deadline,
                    &mut work.ckeys,
                    &mut work.prof,
                    meter,
                    stats,
                )
            };
            if !in_budget || !work.ckeys.is_empty() {
                break;
            }
            stats.level_skips += 1;
        }

        // Select: order the keys and push the children lowest-priority
        // first, so the highest-priority child is popped next (CL front).
        let t_select = work.prof.start();
        order_keys(&mut work.ckeys, self.rank, params.tasks);
        let depth = state.depth() + 1;
        // The cost function ce compares each candidate's completion against
        // the partial schedule's makespan, which the state maintains
        // incrementally — an O(1) read per expansion.
        let base_makespan = state.makespan();
        let base_id = work.arena.len();
        let mut last = None;
        for (id, &key) in (base_id..).zip(work.ckeys.iter().rev()) {
            let (member, completion) = unpack_key(key);
            let (task, processor) = if assignment {
                (fixed, member)
            } else {
                (member, fixed)
            };
            work.arena.push(Node {
                parent: cv,
                depth,
                task,
                processor: ProcessorId::new(processor),
            });
            work.cl.push(id);
            let makespan = base_makespan.max(completion);
            if params.provenance {
                work.node_costs.push((completion, makespan));
            }
            // Every generated feasible vertex is a candidate "best".
            if depth > best.0 || (depth == best.0 && makespan < best.1) {
                *best = (depth, makespan, Some(id));
            }
            last = Some((id, makespan));
        }
        work.prof.stop(Stage::Select, t_select);
        let Some((id, makespan)) = last else {
            return false;
        };
        stats.deepest = stats.deepest.max(depth);
        // A leaf overrides the best so far: this expansion's
        // highest-priority child, the one pushed last.
        let leaf = depth == self.n_viable;
        if leaf {
            *best = (depth, makespan, Some(id));
        }
        leaf
    }

    /// The one cap/charge/classify loop behind every candidate source — the
    /// flat column, the shard segments and the sequence-oriented batch —
    /// fed `(member, completion)` pairs in generation order. Each feasible
    /// candidate becomes a [`successor_key`]. Returns `false` when a budget
    /// broke the round off.
    ///
    /// Per-candidate accounting order (pinned by the
    /// `vertex_cap_break_classifies_every_counted_vertex` and
    /// `quantum_break_counts_the_uncharged_vertex` tests):
    ///   1. vertex cap — checked *before* generating, so a cap break
    ///      counts nothing: every cap-counted vertex is classified.
    ///   2. quantum charge — counted whether or not it succeeds, so
    ///      `vertices_generated == meter.vertices()` always; but a *failed*
    ///      charge never reaches classification, so a mid-round quantum
    ///      break leaves exactly one counted, unclassified vertex.
    ///   3. feasibility classification — only for charged vertices.
    #[inline]
    fn classify<'c>(
        &self,
        source: impl IntoIterator<Item = (usize, &'c Time)>,
        deadline: impl Fn(usize) -> Time,
        ckeys: &mut Vec<u128>,
        prof: &mut StageProfiler,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
    ) -> bool {
        let t_cost = prof.start();
        // Hoisted: the cap compare degenerates to an always-false branch
        // when uncapped (`vertices_generated` cannot reach `u64::MAX`).
        let cap = self.params.vertex_cap.unwrap_or(u64::MAX);
        let mut in_budget = true;
        for (member, &completion) in source {
            if stats.vertices_generated >= cap {
                in_budget = false;
                break;
            }
            let charged = meter.charge_vertex();
            stats.vertices_generated += 1;
            if !charged {
                in_budget = false;
                break;
            }
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

    /// The shard-first screen: tests every shard of the topology against
    /// the level's task with an aggregate feasibility bound and leaves the
    /// best-ranked feasible shards (up to the topology's fanout) in
    /// `shard_rank`. The expansion then enumerates processors only inside
    /// those winners, reading completions from the task's candidate column.
    ///
    /// The screen bound for shard `s` is
    /// `max(shard_min(s), earliest_resource_start) + p + min_node_cost(s)`,
    /// a lower bound on the completion of the task on *every* processor of
    /// the shard, so a screened-out shard truly has no feasible member.
    /// `min_node_cost` is exact on cost alone, but the sum of two minima is
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
        task: usize,
        stats: &mut SearchStats,
    ) {
        let t = &self.params.tasks[task];
        stats.shard_screens += 1;
        shard_rank.clear();
        let earliest = state.earliest_resource_start(t);
        let mut pruned = 0u64;
        for s in 0..topo.nodes() {
            let start = state.shard_min(s).max(earliest);
            let bound = start + t.processing_time() + topo.min_node_cost(t.affinity(), s);
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
    /// a pruning bound: the engine's main loop.
    fn dfs_loop(
        &self,
        work: &mut Work,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
        best: &mut Best,
    ) -> Termination {
        let params = self.params;
        let mut last_expanded = None;
        loop {
            if meter.exhausted()
                || params
                    .vertex_cap
                    .is_some_and(|cap| stats.vertices_generated >= cap)
            {
                return Termination::QuantumExhausted;
            }
            let Some(cv) = work.cl.pop() else {
                return Termination::DeadEnd;
            };
            if work.arena[cv].parent != last_expanded {
                stats.backtracks += 1;
                if params
                    .pruning
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
    /// fixes the level order and the key rank, resets the state behind the
    /// shard gate, and sets up the walk. A phase with nothing to search — an
    /// empty batch, or no task survives the screen — skips everything past
    /// the screen.
    fn open(
        params: &'b SearchParams<'a>,
        use_replay: bool,
        scratch: &'b mut SearchScratch,
    ) -> Self {
        let SearchScratch {
            work,
            level_task,
            viable,
            node_min,
            out,
        } = scratch;
        level_task.clear();
        viable.clear();
        node_min.clear();
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
        let n = params.tasks.len();
        let screened = if n == 0 {
            Vec::new()
        } else {
            let t_screen = work.prof.start();
            let screened = screen_batch(params, node_min, viable);
            work.prof.stop(Stage::Screen, t_screen);
            screened
        };
        let viable: &[bool] = viable;
        let n_viable = viable.iter().filter(|&&v| v).count();
        let stats = SearchStats {
            screened_tasks: (n - n_viable) as u64,
            ..SearchStats::default()
        };

        let mut shards = None;
        if n_viable > 0 {
            if let Representation::AssignmentOriented { task_order } = params.representation {
                task_order.order_into(params.tasks, params.now, level_task);
                level_task.retain(|&t| viable[t]);
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
            .initial_finish
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO);
        Phase {
            ctx: Ctx {
                params,
                viable,
                level_task,
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
            if self.ctx.params.tasks.is_empty() {
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
        let provenance = self
            .ctx
            .params
            .provenance
            .then(|| phase_provenance(self.work, self.best.2, self.screened));
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
/// [`SearchParams::provenance`] are the rejected tasks' probes then built
/// with the test's operands (viable tasks never need theirs).
///
/// The verdict is the paper's test on the initial finish times — some
/// processor `k` with `finish_k + p + c_k <= d` — decided per node rather
/// than per processor wherever the comm model allows (DESIGN.md §6,
/// decision 2). Each node's earliest initial finish `m_n` is taken once per
/// phase (into the empty `node_min` under a topology; the constant model
/// is one node spanning the machine), and [`node_viable`] decides a node
/// from `m_n`, the class `c_n` its non-affine processors pay, and its
/// affine members only. The mesh charges each processor by its own
/// distance, so it keeps the per-processor test.
fn screen_batch(
    params: &SearchParams<'_>,
    node_min: &mut Vec<Time>,
    viable: &mut Vec<bool>,
) -> Vec<ScreenEvidence> {
    let finish = params.initial_finish;
    let processors = finish.len();
    match params.comm {
        CommModel::Constant { c } => {
            let m = finish.iter().copied().min();
            viable.extend(
                params
                    .tasks
                    .iter()
                    .map(|t| m.is_some_and(|m| node_viable(t, finish, m, || *c, 0, processors))),
            );
        }
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
            viable.extend(params.tasks.iter().map(|t| {
                node_min.iter().enumerate().any(|(n, &m)| {
                    let (lo, hi) = spec.node_range(n);
                    node_viable(
                        t,
                        finish,
                        m,
                        || spec.non_affine_cost(t.affinity(), n),
                        lo,
                        hi,
                    )
                })
            }));
        }
        CommModel::Mesh { .. } => {
            viable.extend(params.tasks.iter().map(|t| {
                ProcessorId::all(processors)
                    .any(|p| t.meets_deadline(finish[p.index()] + params.comm.demand(t, p)))
            }));
        }
    }
    if !params.provenance {
        return Vec::new();
    }
    viable
        .iter()
        .enumerate()
        .filter(|&(_, &ok)| !ok)
        .map(|(idx, _)| {
            let t = &params.tasks[idx];
            let probes = ProcessorId::all(processors)
                .map(|p| {
                    let available = finish[p.index()];
                    let demand = params.comm.demand(t, p);
                    ScreenProbe {
                        processor: p,
                        available,
                        demand,
                        completion: available + demand,
                    }
                })
                .collect();
            ScreenEvidence { task: idx, probes }
        })
        .collect()
}

/// Whether task `t` meets its deadline on some processor of the node
/// spanning `[lo, hi)`, whose earliest initial finish is `m` and whose
/// non-affine processors all pay `non_affine` (computed only if needed).
/// Exact, because completion `finish_k + p + c_k` is monotone in both
/// terms: every member finishes at or after `m` and pays at least zero, so
/// `m + p > d` rules the node out; the member finishing at `m` pays zero
/// or `non_affine`, so `m + p + non_affine <= d` rules it in; otherwise
/// every non-affine member misses and only the affine members, which pay
/// nothing, are left to test.
#[inline]
fn node_viable(
    t: &Task,
    finish: &[Time],
    m: Time,
    non_affine: impl FnOnce() -> Duration,
    lo: usize,
    hi: usize,
) -> bool {
    let p = t.processing_time();
    if !t.meets_deadline(m + p) {
        return false;
    }
    if t.meets_deadline(m + (p + non_affine())) {
        return true;
    }
    t.affinity()
        .members_in(lo, hi)
        .any(|a| t.meets_deadline(finish[a.index()] + p))
}

/// Same-expansion alternatives for arena node `id`: its siblings with the
/// same task, in generation order. An expansion pushes all its children as
/// one contiguous arena block and no vertex is expanded twice, so the
/// siblings are exactly the run of equal-parent nodes around `id`.
fn rejected_siblings(
    arena: &[Node],
    node_costs: &[(Time, Time)],
    id: usize,
) -> Vec<PlacementAlternative> {
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
        .map(|sid| PlacementAlternative {
            processor: arena[sid].processor,
            completion: node_costs[sid].0,
            cost: node_costs[sid].1,
        })
        .collect()
}

/// Decision evidence for the delivered path of `work`'s arena: each
/// assignment's chosen cost next to its same-task siblings (the rejected
/// alternatives of the same expansion). Reconstructed after the fact so
/// collection cannot perturb the search.
fn phase_provenance(
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
            task: node.task,
            processor: node.processor,
            completion,
            cost,
            rejected: rejected_siblings(&work.arena, &work.node_costs, id),
        });
        cursor = node.parent;
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

    fn params<'a>(
        tasks: &'a [Task],
        comm: &'a CommModel,
        initial: &'a [Time],
        repr: &'a Representation,
        order: ChildOrder,
    ) -> SearchParams<'a> {
        SearchParams {
            tasks,
            comm,
            initial_finish: initial,
            representation: repr,
            child_order: order,
            now: Time::ZERO,
            vertex_cap: Some(100_000),
            pruning: Pruning::default(),
            resources: ResourceEats::new(),
            provenance: false,
        }
    }

    #[test]
    fn empty_batch_is_a_trivial_leaf() {
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&[], &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.assignments.is_empty());
        assert!(out.is_complete(0));
    }

    #[test]
    fn assignment_oriented_schedules_everything_feasible() {
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 3];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(6));
        // load balancing spreads 6 equal tasks over 3 processors, 2 each
        assert_eq!(out.processors_used(), 3);
        let max_done = out.assignments.iter().map(|a| a.completion).max().unwrap();
        assert_eq!(max_done, Time::from_micros(200));
    }

    #[test]
    fn all_scheduled_tasks_meet_deadlines() {
        // Mixed feasibility: generous and impossible deadlines.
        let tasks = vec![
            mk_task(0, 100, 150, &[]),
            mk_task(1, 100, 90, &[]), // infeasible: p=100 > d=90
            mk_task(2, 100, 300, &[]),
        ];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
    }

    #[test]
    fn quantum_exhaustion_returns_partial_schedule() {
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 4];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 4];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 4];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.vertex_cap = Some(6);
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
    fn reused_scratch_matches_fresh_runs() {
        // One scratch carried across phases of very different shapes (sizes,
        // layouts, pruning, quantum pressure) must reproduce every fresh-run
        // outcome bit for bit — the clearing invariant of DESIGN.md §8.
        let comm_free = CommModel::free();
        let comm_slow = CommModel::constant(Duration::from_micros(1_000));
        let asg = Representation::assignment_oriented();
        let seq = Representation::sequence_oriented();
        let big: Vec<Task> = (0..30).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let tight: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let affine = vec![mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])];
        type Scenario<'a> = (
            &'a [Task],
            &'a CommModel,
            &'a Representation,
            usize,
            Pruning,
            bool,
        );
        let scenarios: Vec<Scenario> = vec![
            (&big, &comm_free, &asg, 3, Pruning::default(), false),
            (&tight, &comm_free, &asg, 2, Pruning::default(), true),
            (&affine, &comm_slow, &asg, 2, Pruning::default(), true),
            (&big, &comm_free, &seq, 2, Pruning::default(), false),
            (
                &tight,
                &comm_free,
                &asg,
                2,
                Pruning {
                    depth_bound: Some(4),
                    backtrack_limit: Some(2),
                },
                false,
            ),
            // shrink back down: stale capacity must not leak into a small phase
            (&affine, &comm_free, &asg, 2, Pruning::default(), true),
        ];
        let mut scratch = SearchScratch::new();
        for (tasks, comm, repr, procs, pruning, provenance) in scenarios {
            let initial = vec![Time::ZERO; procs];
            let mut p = params(tasks, comm, &initial, repr, ChildOrder::LoadBalance);
            p.pruning = pruning;
            p.provenance = provenance;
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
        let tasks = vec![mk_task(0, 100, 120, &[]), mk_task(1, 100, 120, &[])];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 1]; // single processor
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks = vec![mk_task(0, 100, 250, &[1]), mk_task(1, 100, 250, &[1])];
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let initial = [Time::ZERO; 2];

        let seq = Representation::sequence_oriented();
        let p = params(&tasks, &comm, &initial, &seq, ChildOrder::EarliestDeadline);
        let out_seq = search_schedule(&p, &mut free_meter());
        assert_eq!(out_seq.termination, Termination::DeadEnd);
        assert!(out_seq.assignments.is_empty());

        let asg = Representation::assignment_oriented();
        let p = params(&tasks, &comm, &initial, &asg, ChildOrder::LoadBalance);
        let out_asg = search_schedule(&p, &mut free_meter());
        assert_eq!(out_asg.termination, Termination::Leaf);
        assert!(out_asg.is_complete(2));
        assert!(out_asg.assignments.iter().all(|a| a.processor.index() == 1));
    }

    #[test]
    fn sequence_oriented_completes_balanced_feasible_case() {
        let tasks: Vec<Task> = (0..4).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::sequence_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::EarliestDeadline);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(4));
        // round-robin: levels 0,2 on P0 and 1,3 on P1
        assert_eq!(out.processors_used(), 2);
    }

    #[test]
    fn backtracking_recovers_from_greedy_mistake() {
        // Task A (earliest deadline, considered first) fits on either
        // processor; task B only fits on P0 *and only if A is not there*.
        // Greedy load-balance puts A on P0 first (both empty, tie broken by
        // processor index), B then fails everywhere, and the search must
        // backtrack to try A on P1.
        let tasks = vec![
            mk_task(0, 100, 150, &[0, 1]), // A: local everywhere, must start immediately
            mk_task(1, 100, 150, &[0]),    // B: affine P0 only; comm 1000 -> infeasible elsewhere
        ];
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.vertex_cap = Some(500);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert!(out.stats.vertices_generated <= 501);
    }

    #[test]
    fn depth_bound_limits_schedule_length() {
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: Some(4),
            backtrack_limit: None,
        };
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.assignments.len(), 4, "bounded at depth 4");
        assert!(
            out.stats.depth_prunes > 0,
            "the bound actually refused expansions"
        );
        assert_ne!(out.termination, Termination::Leaf);
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
    }

    #[test]
    fn backtrack_limit_prunes_the_search() {
        // Force heavy backtracking: 10 equal tasks, capacity for 8.
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: None,
            backtrack_limit: Some(3),
        };
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Pruned);
        assert!(out.stats.backtracks <= 4);
        assert!(!out.assignments.is_empty(), "best partial still delivered");
    }

    #[test]
    fn zero_backtrack_limit_is_one_dive() {
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: None,
            backtrack_limit: Some(0),
        };
        let out = search_schedule(&p, &mut free_meter());
        // one straight dive schedules the 8 that fit, then stops at the
        // first backtrack
        assert_eq!(out.termination, Termination::Pruned);
        assert_eq!(out.assignments.len(), 8);
    }

    #[test]
    fn pruning_defaults_do_not_bind() {
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        assert_eq!(p.pruning, Pruning::default());
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
    }

    #[test]
    fn stats_are_consistent() {
        let tasks: Vec<Task> = (0..5).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks = vec![mk_task(0, 100, 100_000, &[])];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        // P0 busy until 5_000, P1 until 200
        let initial = [Time::from_micros(5_000), Time::from_micros(200)];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.assignments[0].processor.index(), 1);
        assert_eq!(out.assignments[0].completion, Time::from_micros(300));
    }

    #[test]
    fn leaf_outcome_reports_real_makespan() {
        // Six equal 100us tasks balanced over three processors finish at
        // 200us; the outcome must carry that makespan, not a sentinel.
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 3];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks: Vec<Task> = (0..n as u64)
            .map(|i| mk_task(i, 100, 100_000, &[]))
            .collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.pruning = Pruning {
            depth_bound: None,
            backtrack_limit: Some(0),
        };
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
        let asg = Representation::assignment_oriented();
        let seq = Representation::sequence_oriented();
        let scenarios: Vec<(Vec<Task>, &CommModel, &Representation, usize, Pruning)> = vec![
            // backtracking-heavy: 10 tasks, capacity 8
            (
                (0..10).map(|i| mk_task(i, 100, 400, &[])).collect(),
                &comm_free,
                &asg,
                2,
                Pruning::default(),
            ),
            // affinity forces a greedy mistake + recovery
            (
                vec![mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])],
                &comm_slow,
                &asg,
                2,
                Pruning::default(),
            ),
            // sequence-oriented with skips
            (
                (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect(),
                &comm_free,
                &seq,
                3,
                Pruning::default(),
            ),
            // mixed feasibility under a depth bound
            (
                (0..8)
                    .map(|i| mk_task(i, 100, if i % 3 == 0 { 90 } else { 100_000 }, &[]))
                    .collect(),
                &comm_free,
                &asg,
                2,
                Pruning {
                    depth_bound: Some(3),
                    backtrack_limit: None,
                },
            ),
            // backtrack-limited dead-end hunt
            (
                (0..10).map(|i| mk_task(i, 100, 400, &[])).collect(),
                &comm_free,
                &asg,
                2,
                Pruning {
                    depth_bound: None,
                    backtrack_limit: Some(3),
                },
            ),
        ];
        for (tasks, comm, repr, procs, pruning) in scenarios {
            let initial = vec![Time::ZERO; procs];
            let mut p = params(&tasks, comm, &initial, repr, ChildOrder::LoadBalance);
            p.pruning = pruning;
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
        let tasks = vec![
            mk_task(0, 100, 150, &[]),
            mk_task(1, 100, 90, &[]),
            mk_task(2, 100, 300, &[]),
        ];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.provenance = true;
        let out = search_schedule(&p, &mut free_meter());
        let prov = out.provenance.as_ref().expect("provenance requested");
        assert_eq!(prov.screened.len(), 1);
        assert_eq!(prov.screened[0].task, 1);
        assert_eq!(prov.screened[0].probes.len(), 2);
        for probe in &prov.screened[0].probes {
            assert_eq!(probe.completion, probe.available + probe.demand);
            assert!(!tasks[1].meets_deadline(probe.completion));
        }
        assert_eq!(prov.decisions.len(), out.assignments.len());
        for (d, a) in prov.decisions.iter().zip(&out.assignments) {
            assert_eq!(d.task, a.task);
            assert_eq!(d.processor, a.processor);
            assert_eq!(d.completion, a.completion);
            for r in &d.rejected {
                assert_ne!(r.processor, d.processor);
            }
        }

        // Collection is record-only: schedule and stats are bit-identical
        // with provenance off.
        let p2 = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks = vec![mk_task(0, 100, 500, &[])];
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::from_micros(450)];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::DeadEnd);
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn one_node_topology_is_bit_identical_to_constant() {
        use rt_task::TopologySpec;
        let c = Duration::from_micros(2_000);
        let tasks: Vec<Task> = (0..12)
            .map(|i| mk_task(i, 200 + i * 37, 40_000, &[(i as usize) % 4]))
            .collect();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 8];

        let flat_comm = CommModel::constant(c);
        let topo_comm = CommModel::hierarchical(TopologySpec::flat(8, c));
        let pf = params(&tasks, &flat_comm, &initial, &repr, ChildOrder::LoadBalance);
        let pt = params(&tasks, &topo_comm, &initial, &repr, ChildOrder::LoadBalance);
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
        let tasks: Vec<Task> = (0..20)
            .map(|i| mk_task(i, 300, 200_000, &[(i as usize) % 16]))
            .collect();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 16];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert!(out.is_complete(20));
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
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
        let tasks: Vec<Task> = (0..10)
            .map(|i| mk_task(i, 400, 1_200 + i * 400, &[(i as usize) % 8]))
            .collect();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 8];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let out = search_schedule(&p, &mut free_meter());
        // Full fanout = no heuristic cut: the screen only drops shards whose
        // *best* processor already misses the deadline, so the search still
        // covers every viable task.
        assert!(out.covers_viable());
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
    }

    /// The full-arena formulation of the sibling lookup: every other node
    /// with the same parent and task, in arena order.
    fn siblings_full_scan(
        arena: &[Node],
        node_costs: &[(Time, Time)],
        id: usize,
    ) -> Vec<PlacementAlternative> {
        let node = arena[id];
        arena
            .iter()
            .enumerate()
            .filter(|&(sid, sib)| sid != id && sib.parent == node.parent && sib.task == node.task)
            .map(|(sid, sib)| PlacementAlternative {
                processor: sib.processor,
                completion: node_costs[sid].0,
                cost: node_costs[sid].1,
            })
            .collect()
    }

    /// Every node of `arena` finds the same siblings in its block as the
    /// full-arena filter does.
    fn assert_sibling_blocks(arena: &[Node], node_costs: &[(Time, Time)]) {
        assert_eq!(arena.len(), node_costs.len());
        for id in 0..arena.len() {
            assert_eq!(
                rejected_siblings(arena, node_costs, id),
                siblings_full_scan(arena, node_costs, id),
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
            Representation::assignment_oriented(),
            Representation::sequence_oriented(),
        ];
        let mut rng = SimRng::seed_from(2024);
        let mut scratch = SearchScratch::new();
        let (mut decisions, mut alternatives) = (0, 0);
        for comm in &comms {
            for repr in &reprs {
                for _ in 0..60 {
                    let n = rng.uniform_u64(1..12);
                    let tasks: Vec<Task> = (0..n)
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
                    let mut p = params(&tasks, comm, &initial, repr, ChildOrder::LoadBalance);
                    p.provenance = true;
                    p.vertex_cap = Some(rng.uniform_u64(20..400));

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
                    assert_sibling_blocks(&scratch.work.arena, &scratch.work.node_costs);
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
    fn screen_all_probes(params: &SearchParams<'_>) -> (Vec<bool>, Vec<ScreenEvidence>) {
        let mut viable = Vec::new();
        let mut evidence = Vec::new();
        for (idx, t) in params.tasks.iter().enumerate() {
            let probes: Vec<ScreenProbe> = ProcessorId::all(params.initial_finish.len())
                .map(|p| {
                    let available = params.initial_finish[p.index()];
                    let demand = params.comm.demand(t, p);
                    ScreenProbe {
                        processor: p,
                        available,
                        demand,
                        completion: available + demand,
                    }
                })
                .collect();
            let ok = probes.iter().any(|pr| t.meets_deadline(pr.completion));
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
        // free models (one node), the mesh (per-processor arm), a 1-node
        // topology, zero and non-zero intra-node cost, and P = 130 on 6
        // nodes of 22 and 21 processors, so affinity spans three words and
        // node edges fall off word edges. Batches draw empty affinities and
        // (outside the mesh, whose geometry rejects them in both
        // formulations) affinity bits at or above P; a sixth of the workers
        // are down at `UNAVAILABLE`.
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
        let repr = Representation::assignment_oriented();
        let mut rng = SimRng::seed_from(1998);
        let mut node_min = Vec::new();
        // Asserts the screen against the all-probes formulation, with and
        // without provenance, and returns the verdicts.
        let mut check = |tasks: &[Task], comm: &CommModel, initial: &[Time]| -> Vec<bool> {
            let mut p = params(tasks, comm, initial, &repr, ChildOrder::LoadBalance);
            let (want_viable, want_evidence) = screen_all_probes(&p);
            for provenance in [false, true] {
                p.provenance = provenance;
                let mut viable = Vec::new();
                node_min.clear();
                let evidence = screen_batch(&p, &mut node_min, &mut viable);
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
            let (mut kept, mut rejected) = (0, 0);
            for _ in 0..300 {
                let n = rng.uniform_u64(0..24);
                let tasks: Vec<Task> = (0..n)
                    .map(|i| {
                        let affinity: Vec<usize> = (0..rng.uniform_usize(0..5))
                            .map(|_| rng.uniform_usize(0..affinity_span))
                            .collect();
                        let p_us = rng.uniform_u64(50..2_000);
                        mk_task(i, p_us, rng.uniform_u64(100..4_000), &affinity)
                    })
                    .collect();
                let initial: Vec<Time> = (0..workers)
                    .map(|_| {
                        if rng.uniform_usize(0..6) == 0 {
                            UNAVAILABLE
                        } else {
                            Time::from_micros(rng.uniform_u64(0..2_000))
                        }
                    })
                    .collect();
                let verdicts = check(&tasks, comm, &initial);
                let k = verdicts.iter().filter(|&&ok| ok).count();
                kept += k;
                rejected += verdicts.len() - k;
            }
            assert!(
                rejected > 100 && kept > 100,
                "random batches under {comm:?} must mix verdicts: {kept} viable, {rejected} rejected"
            );
        }

        // The node-level shortcuts in isolation, on 8 processors in 2 nodes
        // of 4 (intra-node 800, inter-node 1000) and on the constant model
        // (C = 1000). Node 0's earliest finish (P1 at 0) is not affine;
        // its affine processor P2 finishes at 500; node 1 is down.
        let topo = CommModel::hierarchical(TopologySpec::new(8, 2, 1, 800, 1_000, 1_000));
        let constant = CommModel::constant(Duration::from_micros(1_000));
        let mut initial = vec![Time::from_micros(900), Time::ZERO, Time::from_micros(500)];
        initial.push(Time::from_micros(900));
        initial.extend([UNAVAILABLE; 4]);
        let cases = [
            // The affine P2 meets the deadline (500 + 100 <= 700) while the
            // node's minimum P1 pays the non-affine class: viable only
            // through the affine scan.
            (mk_task(0, 100, 700, &[2]), true),
            // m + p = 100 fits, the non-affine class does not, and the
            // affine P2 misses (600 > 550): rejected although the node
            // holds an affine processor.
            (mk_task(1, 100, 550, &[2]), false),
            // Affinity only on the down node and above P.
            (mk_task(2, 100, 1_000, &[5, 40]), false),
            // No affinity: every processor pays the worst class.
            (mk_task(3, 100, 1_100, &[]), true),
            (mk_task(4, 100, 1_099, &[]), false),
        ];
        let tasks: Vec<Task> = cases.iter().map(|(t, _)| t.clone()).collect();
        let want: Vec<bool> = cases.iter().map(|&(_, ok)| ok).collect();
        for comm in [&topo, &constant] {
            assert_eq!(check(&tasks, comm, &initial), want, "under {comm:?}");
        }
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
            let tasks: Vec<Task> = (0..16)
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
                Representation::assignment_oriented(),
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
                            (tasks[t].deadline(), c, t, p)
                        }),
                        ChildOrder::None => {}
                    }
                    let p = params(&tasks, &comm, &initial, &repr, order);
                    let rank = KeyRank::new(&p);
                    let mut keys: Vec<u128> = cands
                        .iter()
                        .enumerate()
                        .map(|(g, &(m, c))| {
                            let deadline = tasks[pair(m).0].deadline();
                            successor_key(rank.of(deadline, g), c, m)
                        })
                        .collect();
                    let tail = keys.iter().filter(|&&k| (k >> 96) as u32 == u32::MAX);
                    saturated += usize::from(tail.count() >= 2);
                    order_keys(&mut keys, rank, &tasks);
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
}
