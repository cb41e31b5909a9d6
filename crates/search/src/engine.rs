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

use paragon_des::trace::{PhaseProfile, WalkProfile};
use paragon_des::{Duration, Time};
use rt_task::{CommModel, ProcessorId, ResourceEats, Task};

use paragon_platform::{HostParams, SchedulingMeter};
use rt_telemetry::{Stage, StageProfiler};
use serde::{Deserialize, Serialize};

use crate::policy::{Candidate, ChildOrder};
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
/// phase *clears* them on entry (clear-don't-drop) and leaves their capacity
/// behind for the next phase. Once capacities have reached the workload's
/// steady state, [`search_schedule_with`] performs **zero** heap allocations
/// per phase (provenance off) — asserted by the counting-allocator test in
/// `crates/bench/tests/zero_alloc.rs` and pinned against behavioral drift by
/// the `replay-oracle` differential suite.
#[derive(Debug, Default)]
pub struct SearchScratch {
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
    /// Feasible successors of one expansion, before ordering.
    children: Vec<Candidate>,
    /// Packed successors of one expansion — `completion(64) |
    /// processor(32) | task(32)` in one `u128` — used instead of
    /// `children` when the child order reduces to the packed key's integer
    /// order (see the select stage in `expand`).
    ckeys: Vec<u128>,
    /// Raw (task, processor) candidates of one skip round.
    raw: Vec<(usize, ProcessorId)>,
    /// Dense completion column of one skip round, index-aligned with `raw`
    /// (the struct-of-arrays candidate evaluation writes all completions in
    /// one batched pass before the accounting loop consumes them).
    comp: Vec<Time>,
    /// Viable tasks in level order (assignment-oriented layouts).
    level_task: Vec<usize>,
    /// Per-task verdict of the phase-level viability screen.
    viable: Vec<bool>,
    /// Earliest initial finish of each node under a hierarchical topology,
    /// written once per phase by the viability screen.
    node_min: Vec<Time>,
    /// Cumulative shard end indices under a hierarchical topology (the
    /// node partition handed to [`PathState::configure_shards`]).
    shard_ends: Vec<usize>,
    /// (screen bound, shard) ranking buffer of one shard-first skip round.
    shard_rank: Vec<(Time, usize)>,
    /// The incremental path state, lazily created on first use and reset
    /// (not rebuilt) on later phases.
    state: Option<PathState>,
    /// Backing storage handed out as [`SearchOutcome::assignments`]; refill
    /// it via [`SearchScratch::recycle`] to keep the hot path allocation-free.
    out: Vec<Assignment>,
    /// Stage-scoped self-profiler (disabled by default — two branches per
    /// span, no clock reads, no allocations; see `rt_telemetry::profile`).
    prof: StageProfiler,
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
        self.prof.set_enabled(on);
    }

    /// Whether stage-level self-profiling is currently enabled.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.prof.enabled()
    }

    /// Drains the stage times and subtree-walk telemetry accumulated by the
    /// last phase into a wire-format [`PhaseProfile`], resetting the
    /// accumulators. Returns an all-zero record when profiling is off.
    pub fn take_profile(&mut self) -> PhaseProfile {
        self.prof.take()
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
    let mut scratch = SearchScratch::new();
    search_core(params, meter, false, &mut scratch)
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
    search_core(params, meter, false, scratch)
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
    let mut scratch = SearchScratch::new();
    search_core(params, meter, true, &mut scratch)
}

fn search_core(
    params: &SearchParams<'_>,
    meter: &mut SchedulingMeter,
    use_replay: bool,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    // Clear-don't-drop: every buffer is emptied on entry and refilled below,
    // so a warmed scratch runs the whole phase without touching the
    // allocator. Clearing here (rather than on phase exit) also makes a
    // fresh scratch and a reused one indistinguishable.
    let SearchScratch {
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        level_task,
        viable,
        node_min,
        shard_ends,
        shard_rank,
        state: state_slot,
        out,
        prof,
    } = scratch;
    arena.clear();
    node_costs.clear();
    cl.clear();
    path.clear();
    chain.clear();
    children.clear();
    ckeys.clear();
    raw.clear();
    comp.clear();
    level_task.clear();
    viable.clear();
    node_min.clear();
    shard_ends.clear();
    shard_rank.clear();
    out.clear();
    prof.reset();

    let n = params.tasks.len();
    let mut stats = SearchStats::default();
    // Root makespan: the latest initial finish time (the empty schedule's CE).
    let root_makespan = params
        .initial_finish
        .iter()
        .copied()
        .max()
        .unwrap_or(Time::ZERO);

    if n == 0 {
        return SearchOutcome {
            assignments: Vec::new(),
            termination: Termination::Leaf,
            n_viable: 0,
            makespan: root_makespan,
            stats,
            provenance: params.provenance.then(PhaseProvenance::default),
        };
    }

    // Phase-level viability screen: processor finish times only grow along
    // any path of `G`, so a task that cannot meet its deadline even against
    // the *initial* finish times is infeasible in the entire phase tree.
    // Screening it out once keeps expansions from re-evaluating it at every
    // level. (Like the paper's per-phase batch expiry test, this screen is
    // not charged against the quantum; screened tasks stay in the batch.)
    // Under provenance a screen rejection also carries the test's operands.
    let t_screen = prof.start();
    let screened_evidence = screen_batch(params, node_min, viable);
    prof.stop(Stage::Screen, t_screen);
    let viable: &[bool] = viable;
    let n_viable = viable.iter().filter(|&&v| v).count();
    stats.screened_tasks = (n - n_viable) as u64;
    if n_viable == 0 {
        return SearchOutcome {
            assignments: Vec::new(),
            termination: Termination::DeadEnd,
            n_viable: 0,
            makespan: root_makespan,
            stats,
            provenance: params.provenance.then(|| PhaseProvenance {
                screened: screened_evidence,
                decisions: Vec::new(),
            }),
        };
    }

    if let Representation::AssignmentOriented { task_order } = params.representation {
        task_order.order_into(params.tasks, params.now, level_task);
        level_task.retain(|&t| viable[t]);
    }
    let level_task: &[usize] = level_task;

    // The incremental state is part of the scratch: reset in place when a
    // previous phase left one behind, built fresh only on first use.
    match state_slot.as_mut() {
        Some(s) => s.reset(params.initial_finish, n, &params.resources),
        None => {
            *state_slot = Some(PathState::with_resources(
                params.initial_finish.to_vec(),
                n,
                params.resources.clone(),
            ));
        }
    }
    let state = state_slot.as_mut().expect("state initialized above");

    // Shard-first gate: active only under a multi-node hierarchical
    // topology with the assignment-oriented layout. Everything else —
    // constant, mesh, 1-node topology, sequence-oriented — takes the flat
    // candidate path untouched (the 1-node bit-identity contract).
    let shards = shard_gate(params);
    if let Some(topo) = shards {
        node_ends_into(topo, shard_ends);
        state.configure_shards(shard_ends);
    }

    // Best feasible vertex so far: the root (empty schedule, makespan =
    // root_makespan) is the fallback.
    let mut best: Best = (0, root_makespan, None);
    let ctx = Ctx {
        params,
        viable,
        level_task,
        n_viable,
        use_replay,
        shards,
        vertex_cap: params.vertex_cap,
        backtrack_limit: params.pruning.backtrack_limit,
    };
    let mut work = Work {
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        shard_rank,
        state,
        prof,
    };
    let termination;

    // Expand the root, then walk the candidate list with one incrementally
    // maintained state.
    if let Some((leaf_id, leaf_makespan)) =
        ctx.expand(&mut work, None, meter, &mut stats, &mut best)
    {
        best = (n_viable, leaf_makespan, Some(leaf_id));
        termination = Termination::Leaf;
    } else {
        termination = ctx
            .dfs_loop(&mut work, meter, &mut stats, &mut best, None)
            .termination;
    }

    // Deliver the best vertex's schedule. Untracked: the extraction switch
    // is not part of the search, so it must not skew the per-pop counters.
    // The assignments are copied into the pooled `out` buffer (the state
    // itself stays in the scratch for the next phase); callers return the
    // vector via [`SearchScratch::recycle`] to close the reuse loop.
    let assignments = match best.2 {
        Some(id) => {
            ctx.switch_to(&mut work, &mut stats, id, false);
            out.extend_from_slice(work.state.assignments());
            std::mem::take(out)
        }
        None => Vec::new(),
    };
    let provenance = params
        .provenance
        .then(|| phase_provenance(work.arena, work.node_costs, best.2, screened_evidence));
    SearchOutcome {
        assignments,
        termination,
        n_viable,
        makespan: best.1,
        stats,
        provenance,
    }
}

/// Best feasible vertex so far: `(depth, makespan, arena id)`; a `None` id
/// means "deliver nothing" (the empty root schedule).
type Best = (usize, Time, Option<usize>);

/// The read-only context of one candidate-list walk: the caller's
/// parameters plus the phase-level screen verdicts and level order
/// (computed once per phase) and the budget this particular walk runs
/// under. The serial engine uses the caller's budget verbatim; the
/// parallel engine hands each subtree a slice of it.
struct Ctx<'a, 'b> {
    params: &'b SearchParams<'a>,
    viable: &'b [bool],
    level_task: &'b [usize],
    n_viable: usize,
    use_replay: bool,
    /// `Some` when the shard-first candidate generator is active (multi-node
    /// hierarchical topology, assignment-oriented layout).
    shards: Option<&'a rt_task::TopologySpec>,
    /// Generated-vertex budget of this walk (the phase cap, or one
    /// subtree's slice of it).
    vertex_cap: Option<u64>,
    /// Backtrack budget of this walk (the phase limit, or one subtree's
    /// slice of it).
    backtrack_limit: Option<u64>,
}

/// The mutable working set of one walk — disjoint borrows of one
/// [`SearchScratch`]'s buffers plus its incremental state, bundled so the
/// expansion/switch/loop steps can be methods shared between the serial
/// engine and the per-subtree walks of the parallel engine.
struct Work<'s> {
    arena: &'s mut Vec<Node>,
    node_costs: &'s mut Vec<(Time, Time)>,
    cl: &'s mut Vec<usize>,
    path: &'s mut Vec<usize>,
    chain: &'s mut Vec<usize>,
    children: &'s mut Vec<Candidate>,
    ckeys: &'s mut Vec<u128>,
    raw: &'s mut Vec<(usize, ProcessorId)>,
    comp: &'s mut Vec<Time>,
    shard_rank: &'s mut Vec<(Time, usize)>,
    state: &'s mut PathState,
    prof: &'s mut StageProfiler,
}

impl<'s> Work<'s> {
    /// Borrows every buffer of `scratch` (plus its state, which the caller
    /// must have initialized) as one working set.
    fn over(scratch: &'s mut SearchScratch) -> Self {
        let SearchScratch {
            arena,
            node_costs,
            cl,
            path,
            chain,
            children,
            ckeys,
            raw,
            comp,
            level_task: _,
            viable: _,
            node_min: _,
            shard_ends: _,
            shard_rank,
            state,
            out: _,
            prof,
        } = scratch;
        Work {
            arena,
            node_costs,
            cl,
            path,
            chain,
            children,
            ckeys,
            raw,
            comp,
            shard_rank,
            state: state.as_mut().expect("scratch state initialized"),
            prof,
        }
    }
}

/// Whether this phase runs the shard-first candidate generator: only under
/// a hierarchical topology with more than one node, and only for the
/// assignment-oriented layout (sequence-oriented levels fix a processor, so
/// there is no per-level shard choice to make). The topology must span
/// exactly the phase's processors.
fn shard_gate<'a>(params: &SearchParams<'a>) -> Option<&'a rt_task::TopologySpec> {
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

/// Writes the cumulative node end indices of `topo` into `ends` (the shard
/// partition [`PathState::configure_shards`] consumes).
fn node_ends_into(topo: &rt_task::TopologySpec, ends: &mut Vec<usize>) {
    ends.clear();
    ends.extend((0..topo.nodes()).map(|s| topo.node_range(s).1));
}

/// Packs one feasible candidate into a single integer whose natural order
/// is `(completion, processor, task)` — the layout the select stage's raw
/// `u128` sort relies on. `Time` is transparently its microsecond count, so
/// the round-trip through the key is exact.
#[inline]
fn pack_candidate(completion: Time, processor: usize, task: usize) -> u128 {
    debug_assert!(processor < (1 << 32) && task < (1 << 32));
    ((completion.as_micros() as u128) << 64) | ((processor as u128) << 32) | task as u128
}

/// How one candidate-list walk ended: the termination reason plus the exit
/// telemetry the parallel merge needs (`end_depth` = length of the current
/// path at exit, `pops` = vertices popped from `CL`).
struct LoopOut {
    termination: Termination,
    end_depth: usize,
    pops: u64,
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
    fn switch_to(&self, work: &mut Work<'_>, stats: &mut SearchStats, cv: usize, track: bool) {
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
        if self.use_replay {
            work.prof.stop(Stage::Undo, t_undo);
            let t_apply = work.prof.start();
            work.path.truncate(common_depth);
            work.path.extend(work.chain.iter().rev());
            *work.state = self.replay(work.arena, Some(cv));
            work.prof.stop(Stage::Apply, t_apply);
        } else {
            while work.path.len() > common_depth {
                work.state.undo();
                work.path.pop();
            }
            work.prof.stop(Stage::Undo, t_undo);
            let t_apply = work.prof.start();
            for &i in work.chain.iter().rev() {
                let node = work.arena[i];
                work.state.apply(
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

    /// Expands `cv` (`None` = the root): generates, filters, orders and
    /// pushes its successors. Returns `Some((leaf id, leaf makespan))` if a
    /// schedule covering every viable task was generated.
    fn expand(
        &self,
        work: &mut Work<'_>,
        cv: Option<usize>,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
        best: &mut Best,
    ) -> Option<(usize, Time)> {
        let params = self.params;
        // Depth bound (Section 3 pruning): do not expand below the bound.
        if params
            .pruning
            .depth_bound
            .is_some_and(|bound| work.state.depth() >= bound)
        {
            stats.depth_prunes += 1;
            return None;
        }
        stats.expansions += 1;
        let max_skips = params.representation.max_skips(work.state);
        // The cost function ce compares each candidate's completion against
        // the partial schedule's makespan, which the state maintains
        // incrementally — an O(1) read per expansion.
        let base_makespan = work.state.makespan();
        work.children.clear();
        work.ckeys.clear();
        // The two default-ish child orders reduce to the integer order of a
        // packed `completion(64) | processor(32) | task(32)` key (see the
        // select stage below), so their candidates skip the `Candidate`
        // struct entirely: 16-byte pushes in the cost loop and a raw `u128`
        // sort instead of a 40-byte-element comparator sort.
        let packable = matches!(
            params.child_order,
            ChildOrder::LoadBalance | ChildOrder::EarliestCompletion
        );
        // Budget hoists: both are constant for the whole expansion, and the
        // cap compare degenerates to an always-false branch when uncapped
        // (`vertices_generated` cannot reach `u64::MAX`).
        let cap = self.vertex_cap.unwrap_or(u64::MAX);
        // Profiling: the cost span may be cut short by a `break
        // 'skip_rounds` inside the accounting loop; the pending slot carries
        // the open span across the jump so the stop after the loop closes
        // it (stop with `None` is a no-op).
        let mut t_cost = None;
        // Per-candidate accounting order in every branch below (pinned by
        // the `vertex_cap_break_classifies_every_counted_vertex` and
        // `quantum_break_counts_the_uncharged_vertex` tests):
        //   1. vertex cap — checked *before* generating, so a cap break
        //      counts nothing: every cap-counted vertex is classified.
        //   2. quantum charge — counted whether or not it succeeds, so
        //      `vertices_generated == meter.vertices()` always; but a
        //      *failed* charge never reaches classification, so a
        //      mid-round quantum break leaves exactly one counted,
        //      unclassified vertex.
        //   3. feasibility classification — only for charged vertices.
        if params.representation.is_assignment_oriented() {
            // Assignment-oriented levels fix one task, so the round's
            // candidates are exactly one row of the persistent candidate
            // column: sync it in O(Δ) from the journal and read completions
            // straight out of it — no raw candidate list, no O(P) refill.
            // Round `skip` expands the (skip+1)-th unassigned task of the
            // level order. The assigned set is constant for the whole
            // expansion (charges never assign), so consecutive rounds can
            // resume one forward scan instead of re-running `nth(skip)`
            // from the front — O(n) total across all rounds, not O(n²).
            let mut cursor = 0usize;
            'skip_rounds: for _skip in 0..=max_skips {
                let task = {
                    let mut found = None;
                    while let Some(&t) = self.level_task.get(cursor) {
                        cursor += 1;
                        if !work.state.is_assigned(t) {
                            found = Some(t);
                            break;
                        }
                    }
                    match found {
                        Some(t) => t,
                        None => break, // no unassigned task remains at all
                    }
                };
                // The task is fixed for the round, so its deadline is too.
                let deadline = params.tasks[task].deadline();
                if let Some(topo) = self.shards {
                    // Shard-first: screen the nodes against the level's task
                    // and enumerate processors only inside the winning
                    // shards. Like the batch screen, the per-shard bounds
                    // cost no quantum — the saving the sharded bench point
                    // measures.
                    let t_shard = work.prof.start();
                    self.rank_shards(topo, work, task, stats);
                    work.prof.stop(Stage::Shard, t_shard);
                    if work.shard_rank.is_empty() {
                        // The task exists but no shard can meet its
                        // deadline: move on to the next task, as the flat
                        // path would after evaluating (and charging) every
                        // processor.
                        stats.level_skips += 1;
                        continue;
                    }
                    // Sync only the winning shards' column segments — the
                    // losing shards stay stale and unpaid-for.
                    let t_fill = work.prof.start();
                    for i in 0..work.shard_rank.len() {
                        let s = work.shard_rank[i].1;
                        work.state
                            .ensure_candidate_segment(params.tasks, params.comm, task, s);
                    }
                    work.prof.stop(Stage::Fill, t_fill);
                    t_cost = work.prof.start();
                    let col = work.state.comp_column(task);
                    for &(_, s) in work.shard_rank.iter() {
                        let (lo, hi) = topo.node_range(s);
                        for (off, &completion) in col[lo..hi].iter().enumerate() {
                            let p = lo + off;
                            if stats.vertices_generated >= cap {
                                break 'skip_rounds; // cap reached mid-expansion
                            }
                            let charged = meter.charge_vertex();
                            stats.vertices_generated += 1;
                            if !charged {
                                break 'skip_rounds; // quantum ran out mid-expansion
                            }
                            if completion <= deadline {
                                stats.feasible_children += 1;
                                if packable {
                                    work.ckeys.push(pack_candidate(completion, p, task));
                                } else {
                                    work.children.push(Candidate {
                                        task,
                                        processor: p,
                                        completion,
                                        makespan: base_makespan.max(completion),
                                        deadline,
                                    });
                                }
                            } else {
                                stats.infeasible_children += 1;
                            }
                        }
                    }
                    work.prof.stop(Stage::Cost, t_cost.take());
                } else {
                    let t_fill = work.prof.start();
                    let col = work.state.candidate_column(params.tasks, params.comm, task);
                    work.prof.stop(Stage::Fill, t_fill);
                    t_cost = work.prof.start();
                    for (p, &completion) in col.iter().enumerate() {
                        if stats.vertices_generated >= cap {
                            break 'skip_rounds; // cap reached mid-expansion
                        }
                        let charged = meter.charge_vertex();
                        stats.vertices_generated += 1;
                        if !charged {
                            break 'skip_rounds; // quantum ran out mid-expansion
                        }
                        if completion <= deadline {
                            stats.feasible_children += 1;
                            if packable {
                                work.ckeys.push(pack_candidate(completion, p, task));
                            } else {
                                work.children.push(Candidate {
                                    task,
                                    processor: p,
                                    completion,
                                    makespan: base_makespan.max(completion),
                                    deadline,
                                });
                            }
                        } else {
                            stats.infeasible_children += 1;
                        }
                    }
                    work.prof.stop(Stage::Cost, t_cost.take());
                }
                if !work.children.is_empty() || !work.ckeys.is_empty() {
                    break;
                }
                stats.level_skips += 1;
            }
        } else {
            // Sequence-oriented levels fix a processor and branch over
            // tasks: the candidates span many tasks, so the per-task
            // column does not apply and the round keeps the batched
            // completions_into evaluation.
            'skip_rounds: for skip in 0..=max_skips {
                params.representation.raw_candidates_into(
                    work.state,
                    self.level_task,
                    skip,
                    work.raw,
                );
                // Screened (phase-infeasible) tasks are invisible to the
                // search and cost no quantum. An empty round means no viable
                // task is left at all — skipping further cannot help.
                work.raw.retain(|&(t, _)| self.viable[t]);
                if work.raw.is_empty() {
                    break;
                }
                let t_fill = work.prof.start();
                work.state
                    .completions_into(params.tasks, params.comm, work.raw, work.comp);
                work.prof.stop(Stage::Fill, t_fill);
                t_cost = work.prof.start();
                for (i, &(task, p)) in work.raw.iter().enumerate() {
                    if stats.vertices_generated >= cap {
                        break 'skip_rounds; // cap reached mid-expansion
                    }
                    let charged = meter.charge_vertex();
                    stats.vertices_generated += 1;
                    if !charged {
                        break 'skip_rounds; // quantum ran out mid-expansion
                    }
                    let completion = work.comp[i];
                    if params.tasks[task].meets_deadline(completion) {
                        stats.feasible_children += 1;
                        if packable {
                            work.ckeys.push(pack_candidate(completion, p.index(), task));
                        } else {
                            work.children.push(Candidate {
                                task,
                                processor: p.index(),
                                completion,
                                makespan: base_makespan.max(completion),
                                deadline: params.tasks[task].deadline(),
                            });
                        }
                    } else {
                        stats.infeasible_children += 1;
                    }
                }
                work.prof.stop(Stage::Cost, t_cost.take());
                if !work.children.is_empty() || !work.ckeys.is_empty() {
                    break;
                }
                stats.level_skips += 1;
            }
        }
        // Closes the span a mid-loop budget break left open; ordering and
        // pushing the children is its own `select` stage from here on.
        work.prof.stop(Stage::Cost, t_cost);
        let t_select = work.prof.start();
        let depth = work.state.depth() + 1;
        // Push lowest-priority first so the highest-priority child is popped
        // next (CL front). Bulk-extend the arena and CL rather than pushing
        // per child: the capacity checks amortise and the Node construction
        // stays in one tight loop.
        let base_id = work.arena.len();
        let mut leaf = None;
        if packable {
            // The packed key's integer order is `(completion, processor,
            // task)`. For `EarliestCompletion` that *is* the policy key;
            // for `LoadBalance` — `(makespan, completion, processor, task)`
            // — it is equivalent because every makespan here is
            // `base_makespan.max(completion)` for the one shared
            // `base_makespan`: `max` is monotone in `completion`, so
            // distinct completions order the makespans identically, and
            // equal completions give equal makespans, falling through to
            // the same `(processor, task)` tiebreak. A raw `u128` sort
            // replaces a 40-byte-element comparator sort — on wide sharded
            // expansions this is most of the select stage.
            work.ckeys.sort_unstable();
            work.arena.extend(work.ckeys.iter().rev().map(|&k| Node {
                parent: cv,
                depth,
                task: k as u32 as usize,
                processor: ProcessorId::new((k >> 32) as u32 as usize),
            }));
            if params.provenance {
                work.node_costs.extend(work.ckeys.iter().rev().map(|&k| {
                    let completion = Time::from_micros((k >> 64) as u64);
                    (completion, base_makespan.max(completion))
                }));
            }
            work.cl.extend(base_id..base_id + work.ckeys.len());
            if !work.ckeys.is_empty() {
                stats.deepest = stats.deepest.max(depth);
            }
            for (i, &k) in work.ckeys.iter().rev().enumerate() {
                let id = base_id + i;
                let makespan = base_makespan.max(Time::from_micros((k >> 64) as u64));
                // Every generated feasible vertex is a candidate "best".
                let key = (depth, makespan);
                if key.0 > best.0 || (key.0 == best.0 && key.1 < best.1) {
                    *best = (depth, makespan, Some(id));
                }
                if depth == self.n_viable {
                    // Prefer the highest-priority leaf of this expansion:
                    // since we iterate lowest-priority first, keep
                    // overwriting.
                    leaf = Some((id, makespan));
                }
            }
        } else {
            params.child_order.sort(work.children);
            work.arena
                .extend(work.children.iter().rev().map(|child| Node {
                    parent: cv,
                    depth,
                    task: child.task,
                    processor: ProcessorId::new(child.processor),
                }));
            if params.provenance {
                work.node_costs.extend(
                    work.children
                        .iter()
                        .rev()
                        .map(|c| (c.completion, c.makespan)),
                );
            }
            work.cl.extend(base_id..base_id + work.children.len());
            if !work.children.is_empty() {
                stats.deepest = stats.deepest.max(depth);
            }
            for (i, child) in work.children.iter().rev().enumerate() {
                let id = base_id + i;
                // Every generated feasible vertex is a candidate "best".
                let key = (depth, child.makespan);
                if key.0 > best.0 || (key.0 == best.0 && key.1 < best.1) {
                    *best = (depth, child.makespan, Some(id));
                }
                if depth == self.n_viable {
                    // Prefer the highest-priority leaf of this expansion:
                    // since we iterate lowest-priority first, keep
                    // overwriting.
                    leaf = Some((id, child.makespan));
                }
            }
        }
        work.prof.stop(Stage::Select, t_select);
        leaf
    }

    /// The shard-first screen: tests every shard of the topology against
    /// the level's task with an aggregate feasibility bound and leaves the
    /// best-ranked feasible shards (up to the topology's fanout) in
    /// `work.shard_rank`. The expansion then enumerates processors only
    /// inside those winners, reading completions from the task's candidate
    /// column.
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
        topo: &rt_task::TopologySpec,
        work: &mut Work<'_>,
        task: usize,
        stats: &mut SearchStats,
    ) {
        let t = &self.params.tasks[task];
        stats.shard_screens += 1;
        work.shard_rank.clear();
        let earliest = work.state.earliest_resource_start(t);
        let mut pruned = 0u64;
        for s in 0..topo.nodes() {
            let start = work.state.shard_min(s).max(earliest);
            let bound = start + t.processing_time() + topo.min_node_cost(t.affinity(), s);
            if t.meets_deadline(bound) {
                work.shard_rank.push((bound, s));
            } else {
                pruned += 1;
            }
        }
        work.shard_rank.sort_unstable();
        let fanout = topo.fanout().min(work.shard_rank.len());
        pruned += (work.shard_rank.len() - fanout) as u64;
        stats.shards_pruned += pruned;
        work.shard_rank.truncate(fanout);
    }

    /// Walks the candidate list until a leaf, a dead-end, a budget break or
    /// a pruning bound: the serial engine's main loop, also run per subtree
    /// by the parallel engine (against that subtree's own budget slices).
    fn dfs_loop(
        &self,
        work: &mut Work<'_>,
        meter: &mut SchedulingMeter,
        stats: &mut SearchStats,
        best: &mut Best,
        mut last_expanded: Option<usize>,
    ) -> LoopOut {
        let mut pops = 0u64;
        let termination = loop {
            if meter.exhausted()
                || self
                    .vertex_cap
                    .is_some_and(|cap| stats.vertices_generated >= cap)
            {
                break Termination::QuantumExhausted;
            }
            let Some(cv) = work.cl.pop() else {
                break Termination::DeadEnd;
            };
            pops += 1;
            if work.arena[cv].parent != last_expanded {
                stats.backtracks += 1;
                if self
                    .backtrack_limit
                    .is_some_and(|limit| stats.backtracks > limit)
                {
                    break Termination::Pruned;
                }
            }
            self.switch_to(work, stats, cv, true);
            last_expanded = Some(cv);
            if let Some((leaf_id, leaf_makespan)) = self.expand(work, Some(cv), meter, stats, best)
            {
                *best = (self.n_viable, leaf_makespan, Some(leaf_id));
                break Termination::Leaf;
            }
        };
        LoopOut {
            termination,
            end_depth: work.path.len(),
            pops,
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

/// Decision evidence for the delivered path: each assignment's chosen cost
/// next to its same-task siblings (the rejected alternatives of the same
/// expansion). Reconstructed after the fact so collection cannot perturb
/// the search.
fn phase_provenance(
    arena: &[Node],
    node_costs: &[(Time, Time)],
    best_id: Option<usize>,
    screened: Vec<ScreenEvidence>,
) -> PhaseProvenance {
    let mut decisions = Vec::new();
    if let Some(best_id) = best_id {
        let mut path_ids = Vec::new();
        let mut cursor = Some(best_id);
        while let Some(i) = cursor {
            path_ids.push(i);
            cursor = arena[i].parent;
        }
        path_ids.reverse();
        for &id in &path_ids {
            let node = &arena[id];
            let (completion, cost) = node_costs[id];
            decisions.push(PlacementEvidence {
                task: node.task,
                processor: node.processor,
                completion,
                cost,
                rejected: rejected_siblings(arena, node_costs, id),
            });
        }
    }
    PhaseProvenance {
        screened,
        decisions,
    }
}

/// Wire label of a walk termination for [`WalkProfile::termination`] (the
/// strings the Perfetto exporter and `rtsads_sim profile` group by).
fn termination_label(t: Termination) -> &'static str {
    match t {
        Termination::Leaf => "leaf",
        Termination::DeadEnd => "dead_end",
        Termination::QuantumExhausted => "budget",
        Termination::Pruned => "pruned",
    }
}

/// Adds one subtree walk's counters into the merged phase counters.
/// Everything is additive except `deepest` (a max) — `screened_tasks` is
/// additive too, but subtree walks never screen, so only the shared
/// prologue contributes.
fn merge_stats(acc: &mut SearchStats, sub: &SearchStats) {
    acc.vertices_generated += sub.vertices_generated;
    acc.expansions += sub.expansions;
    acc.backtracks += sub.backtracks;
    acc.infeasible_children += sub.infeasible_children;
    acc.feasible_children += sub.feasible_children;
    acc.deepest = acc.deepest.max(sub.deepest);
    acc.level_skips += sub.level_skips;
    acc.depth_prunes += sub.depth_prunes;
    acc.screened_tasks += sub.screened_tasks;
    acc.undos += sub.undos;
    acc.replay_avoided += sub.replay_avoided;
    acc.shard_screens += sub.shard_screens;
    acc.shards_pruned += sub.shards_pruned;
}

/// Per-subtree scratch pool for the deterministic parallel engine: one
/// [`SearchScratch`] per root subtree, grown on demand and reused across
/// phases exactly like the serial scratch.
#[derive(Debug, Default)]
pub struct ParallelScratch {
    subs: Vec<SearchScratch>,
}

impl ParallelScratch {
    /// An empty pool; per-subtree scratches grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Telemetry of one subtree walk of a parallel phase (report only — the
/// merged [`SearchOutcome`] is the authoritative result).
#[derive(Debug, Clone)]
pub struct SubReport {
    /// How this subtree's walk ended.
    pub termination: Termination,
    /// The subtree's own counters. Its depth-1 root vertex was generated
    /// and charged by the shared root expansion, so it is *not* counted
    /// here.
    pub stats: SearchStats,
    /// Vertices popped from the subtree's candidate list.
    pub pops: u64,
    /// Length of the subtree's current path when the walk ended.
    pub end_depth: usize,
    /// Whether the merge committed this subtree. Subtrees after the first
    /// leaf are discarded, exactly as the serial engine never reaches them.
    pub committed: bool,
    /// Vertices charged against the subtree's private meter slice.
    pub vertices: u64,
    /// Scheduling time consumed from the subtree's private meter slice.
    pub consumed: Duration,
}

/// How a parallel phase executed: whether it split, how the subtree walks
/// ended, and the shared-prologue counters the merge started from.
#[derive(Debug, Clone, Default)]
pub struct ParallelReport {
    /// Whether the phase actually split (two or more subtrees and budget
    /// left after the root expansion). When false the phase ran the serial
    /// loop and `subs` is empty.
    pub split: bool,
    /// Number of root subtrees (feasible root children).
    pub subtrees: usize,
    /// Subtrees the merge committed (`<= subtrees`; the rest were discarded
    /// because an earlier subtree reached a leaf).
    pub committed: usize,
    /// Counters after the shared root expansion, before any subtree ran —
    /// the merge's starting point.
    pub stage_stats: SearchStats,
    /// Per-subtree telemetry, in root-priority order (index 0 = the
    /// highest-priority root child, the branch the serial engine dives
    /// first).
    pub subs: Vec<SubReport>,
}

/// One root subtree handed to a worker: its root child (already in the
/// stage arena) and the budget slices its walk runs under.
#[derive(Debug, Clone, Copy)]
struct SubSpec {
    /// Arena id of the subtree's root child in the *stage* arena.
    root_id: usize,
    task: usize,
    processor: ProcessorId,
    completion: Time,
    makespan: Time,
    vertex_cap: Option<u64>,
    backtrack_limit: Option<u64>,
    quantum: Duration,
}

/// What one subtree walk produced ([`SubReport`] is the public
/// projection).
struct SubRun {
    termination: Termination,
    stats: SearchStats,
    best: Best,
    pops: u64,
    end_depth: usize,
    vertices: u64,
    consumed: Duration,
    exhausted: bool,
}

/// Runs one subtree walk on its own scratch and private meter slice: seeds
/// the scratch with the subtree's root child (depth 1 — the vertex the
/// shared root expansion already generated and charged), then runs the same
/// candidate-list loop as the serial engine.
fn run_sub(
    ctx: &Ctx<'_, '_>,
    spec: &SubSpec,
    scratch: &mut SearchScratch,
    host: HostParams,
) -> SubRun {
    let params = ctx.params;
    let SearchScratch {
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        level_task: _,
        viable: _,
        node_min: _,
        shard_ends,
        shard_rank,
        state: state_slot,
        out: _,
        prof,
    } = scratch;
    arena.clear();
    node_costs.clear();
    cl.clear();
    path.clear();
    chain.clear();
    children.clear();
    ckeys.clear();
    raw.clear();
    comp.clear();
    shard_ends.clear();
    shard_rank.clear();
    prof.reset();
    match state_slot.as_mut() {
        Some(s) => s.reset(params.initial_finish, params.tasks.len(), &params.resources),
        None => {
            *state_slot = Some(PathState::with_resources(
                params.initial_finish.to_vec(),
                params.tasks.len(),
                params.resources.clone(),
            ));
        }
    }
    let state = state_slot.as_mut().expect("state initialized above");
    if let Some(topo) = ctx.shards {
        node_ends_into(topo, shard_ends);
        state.configure_shards(shard_ends);
    }
    arena.push(Node {
        parent: None,
        depth: 1,
        task: spec.task,
        processor: spec.processor,
    });
    if params.provenance {
        node_costs.push((spec.completion, spec.makespan));
    }
    cl.push(0);
    let sub_ctx = Ctx {
        params,
        viable: ctx.viable,
        level_task: ctx.level_task,
        n_viable: ctx.n_viable,
        use_replay: false,
        shards: ctx.shards,
        vertex_cap: spec.vertex_cap,
        backtrack_limit: spec.backtrack_limit,
    };
    let mut meter = SchedulingMeter::new(host, spec.quantum);
    let mut stats = SearchStats::default();
    let mut best: Best = (1, spec.makespan, Some(0));
    let mut work = Work {
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        shard_rank,
        state,
        prof,
    };
    let walk = sub_ctx.dfs_loop(&mut work, &mut meter, &mut stats, &mut best, None);
    SubRun {
        termination: walk.termination,
        stats,
        best,
        pops: walk.pops,
        end_depth: walk.end_depth,
        vertices: meter.vertices(),
        consumed: meter.consumed(),
        // A slice meter that filled up exactly as the walk finished on its
        // own (dead-end/leaf) is a slicing artifact, not phase exhaustion —
        // the serial engine, holding the undivided quantum, would not be
        // exhausted there. Only a walk the budget actually cut short
        // carries the flag up (the merged meter still re-derives exact-fill
        // exhaustion from its own totals in `SchedulingMeter::absorb`).
        exhausted: meter.exhausted() && walk.termination == Termination::QuantumExhausted,
    }
}

/// The deterministic parallel engine: [`search_schedule_with`] whose
/// exploration below the root is split across `threads` worker threads.
///
/// The root is expanded once, on the caller's meter, identically to the
/// serial engine; each feasible root child then seeds an independent
/// subtree walk with its own scratch and a private meter carrying `1/k` of
/// the remaining quantum, plus `1/k` slices of the vertex cap and backtrack
/// limit. The split is by *subtree*, never by thread: `threads` only sets
/// how many OS threads drain the `k` walks, so the outcome is bit-identical
/// at any thread count (including 1). Whenever no subtree budget slice
/// binds, the merged outcome is also bit-identical to the serial engine's
/// (see DESIGN.md — the deterministic-reduction invariant).
#[must_use]
pub fn search_schedule_parallel(
    params: &SearchParams<'_>,
    threads: usize,
    meter: &mut SchedulingMeter,
    scratch: &mut SearchScratch,
    par: &mut ParallelScratch,
) -> SearchOutcome {
    search_parallel_core(params, threads, meter, scratch, par).0
}

/// [`search_schedule_parallel`] returning the per-subtree execution report
/// next to the merged outcome (differential tests and diagnostics).
#[must_use]
pub fn search_schedule_parallel_with_report(
    params: &SearchParams<'_>,
    threads: usize,
    meter: &mut SchedulingMeter,
    scratch: &mut SearchScratch,
    par: &mut ParallelScratch,
) -> (SearchOutcome, ParallelReport) {
    search_parallel_core(params, threads, meter, scratch, par)
}

/// The parallel phase: the serial prologue and root expansion, a
/// deterministic subtree split, and the stats/meter/best/provenance merge.
fn search_parallel_core(
    params: &SearchParams<'_>,
    threads: usize,
    meter: &mut SchedulingMeter,
    scratch: &mut SearchScratch,
    par: &mut ParallelScratch,
) -> (SearchOutcome, ParallelReport) {
    let SearchScratch {
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        level_task,
        viable,
        node_min,
        shard_ends,
        shard_rank,
        state: state_slot,
        out,
        prof,
    } = scratch;
    arena.clear();
    node_costs.clear();
    cl.clear();
    path.clear();
    chain.clear();
    children.clear();
    ckeys.clear();
    raw.clear();
    comp.clear();
    level_task.clear();
    viable.clear();
    node_min.clear();
    shard_ends.clear();
    shard_rank.clear();
    out.clear();
    prof.reset();

    let n = params.tasks.len();
    let mut stats = SearchStats::default();
    let root_makespan = params
        .initial_finish
        .iter()
        .copied()
        .max()
        .unwrap_or(Time::ZERO);
    let mut report = ParallelReport::default();

    if n == 0 {
        return (
            SearchOutcome {
                assignments: Vec::new(),
                termination: Termination::Leaf,
                n_viable: 0,
                makespan: root_makespan,
                stats,
                provenance: params.provenance.then(PhaseProvenance::default),
            },
            report,
        );
    }

    let t_screen = prof.start();
    let screened_evidence = screen_batch(params, node_min, viable);
    prof.stop(Stage::Screen, t_screen);
    let viable: &[bool] = viable;
    let n_viable = viable.iter().filter(|&&v| v).count();
    stats.screened_tasks = (n - n_viable) as u64;
    if n_viable == 0 {
        return (
            SearchOutcome {
                assignments: Vec::new(),
                termination: Termination::DeadEnd,
                n_viable: 0,
                makespan: root_makespan,
                stats,
                provenance: params.provenance.then(|| PhaseProvenance {
                    screened: screened_evidence,
                    decisions: Vec::new(),
                }),
            },
            report,
        );
    }

    if let Representation::AssignmentOriented { task_order } = params.representation {
        task_order.order_into(params.tasks, params.now, level_task);
        level_task.retain(|&t| viable[t]);
    }
    let level_task: &[usize] = level_task;

    match state_slot.as_mut() {
        Some(s) => s.reset(params.initial_finish, n, &params.resources),
        None => {
            *state_slot = Some(PathState::with_resources(
                params.initial_finish.to_vec(),
                n,
                params.resources.clone(),
            ));
        }
    }
    let state = state_slot.as_mut().expect("state initialized above");

    let shards = shard_gate(params);
    if let Some(topo) = shards {
        node_ends_into(topo, shard_ends);
        state.configure_shards(shard_ends);
    }

    let mut best: Best = (0, root_makespan, None);
    let ctx = Ctx {
        params,
        viable,
        level_task,
        n_viable,
        use_replay: false,
        shards,
        vertex_cap: params.vertex_cap,
        backtrack_limit: params.pruning.backtrack_limit,
    };
    let mut work = Work {
        arena,
        node_costs,
        cl,
        path,
        chain,
        children,
        ckeys,
        raw,
        comp,
        shard_rank,
        state,
        prof,
    };

    // Stage: the shared root expansion, charged against the caller's meter
    // exactly like the serial engine.
    let leaf = ctx.expand(&mut work, None, meter, &mut stats, &mut best);
    let k = work.cl.len();
    report.subtrees = k;
    report.stage_stats = stats;

    // Serial fallbacks: a root leaf, fewer than two subtrees, or a budget
    // already dead at the root. Each continues on the serial engine's exact
    // code path (and is therefore bit-identical to it).
    let budget_dead = meter.exhausted()
        || ctx
            .vertex_cap
            .is_some_and(|cap| stats.vertices_generated >= cap);
    if leaf.is_some() || k < 2 || budget_dead {
        let termination = if let Some((leaf_id, leaf_makespan)) = leaf {
            best = (n_viable, leaf_makespan, Some(leaf_id));
            Termination::Leaf
        } else {
            ctx.dfs_loop(&mut work, meter, &mut stats, &mut best, None)
                .termination
        };
        let assignments = match best.2 {
            Some(id) => {
                ctx.switch_to(&mut work, &mut stats, id, false);
                out.extend_from_slice(work.state.assignments());
                std::mem::take(out)
            }
            None => Vec::new(),
        };
        let provenance = params
            .provenance
            .then(|| phase_provenance(work.arena, work.node_costs, best.2, screened_evidence));
        return (
            SearchOutcome {
                assignments,
                termination,
                n_viable,
                makespan: best.1,
                stats,
                provenance,
            },
            report,
        );
    }
    report.split = true;

    // Deterministic subtree specs, highest root priority first. `CL` is a
    // stack (end = front), so subtree 0 — the branch the serial engine
    // dives first — owns the last `CL` entry. Budget slices: each subtree
    // gets 1/k of the remaining quantum, vertex cap and backtrack limit
    // (the first `cap % k` subtrees absorb the vertex-cap remainder).
    let quantum_slice = meter.remaining() / (k as u64);
    let cap_left = ctx
        .vertex_cap
        .map(|cap| cap.saturating_sub(stats.vertices_generated));
    let bt_slice = ctx.backtrack_limit.map(|limit| limit / (k as u64));
    let specs: Vec<SubSpec> = (0..k)
        .map(|i| {
            let root_id = work.cl[k - 1 - i];
            let node = work.arena[root_id];
            // The state still sits at the root, so this recomputes exactly
            // the completion the root expansion evaluated.
            let completion =
                work.state
                    .completion_if(params.tasks, params.comm, node.task, node.processor);
            SubSpec {
                root_id,
                task: node.task,
                processor: node.processor,
                completion,
                makespan: root_makespan.max(completion),
                vertex_cap: cap_left
                    .map(|c| c / (k as u64) + u64::from((i as u64) < c % (k as u64))),
                backtrack_limit: bt_slice,
                quantum: quantum_slice,
            }
        })
        .collect();

    // Drain the k walks on `threads` OS threads (contiguous chunks of the
    // per-subtree scratch pool). The thread count affects scheduling only —
    // each walk's result is keyed by its subtree index, so the merge below
    // sees the same inputs at any width.
    if par.subs.len() < k {
        par.subs.resize_with(k, SearchScratch::default);
    }
    // Each subtree walk profiles into its own scratch's profiler; the flag
    // mirrors the phase profiler's so a disabled phase stays clock-free on
    // every worker thread.
    let prof_on = work.prof.enabled();
    for sub in par.subs[..k].iter_mut() {
        sub.prof.set_enabled(prof_on);
    }
    let host = meter.host_params();
    let width = threads.max(1).min(k);
    let mut runs: Vec<Option<SubRun>> = Vec::with_capacity(k);
    runs.resize_with(k, || None);
    if width == 1 {
        for (slot, (sub_scratch, spec)) in runs.iter_mut().zip(par.subs[..k].iter_mut().zip(&specs))
        {
            *slot = Some(run_sub(&ctx, spec, sub_scratch, host));
        }
    } else {
        let chunk = k.div_ceil(width);
        let ctx_ref = &ctx;
        std::thread::scope(|scope| {
            let handles: Vec<_> = par.subs[..k]
                .chunks_mut(chunk)
                .zip(specs.chunks(chunk))
                .map(|(scratches, chunk_specs)| {
                    scope.spawn(move || {
                        scratches
                            .iter_mut()
                            .zip(chunk_specs)
                            .map(|(s, spec)| run_sub(ctx_ref, spec, s, host))
                            .collect::<Vec<SubRun>>()
                    })
                })
                .collect();
            for (ci, handle) in handles.into_iter().enumerate() {
                let walks = handle.join().expect("subtree search thread panicked");
                for (j, walk) in walks.into_iter().enumerate() {
                    runs[ci * chunk + j] = Some(walk);
                }
            }
        });
    }
    let runs: Vec<SubRun> = runs
        .into_iter()
        .map(|r| r.expect("every subtree ran"))
        .collect();

    // Commit rule: the serial engine stops at the first leaf, so only the
    // subtrees up to and including the lowest-index Leaf are "real" — later
    // subtrees would never have run serially and are discarded wholesale.
    let t_merge = work.prof.start();
    let leaf_sub = runs.iter().position(|r| r.termination == Termination::Leaf);
    let committed = leaf_sub.map_or(k, |l| l + 1);
    report.committed = committed;

    // Merge counters and meters in subtree-priority order, then add the
    // cross-subtree bookkeeping the serial engine charges when hopping from
    // the end of one exhausted subtree to the next root child: one
    // backtrack per entered subtree after the first, and an undo of the
    // previous subtree's final path (the common ancestor is the root, so
    // no replay is avoided).
    let mut entered_depths: Vec<u64> = Vec::new();
    for run in &runs[..committed] {
        merge_stats(&mut stats, &run.stats);
        meter.absorb(run.vertices, run.consumed, run.exhausted);
        if run.pops > 0 {
            entered_depths.push(run.end_depth as u64);
        }
    }
    stats.backtracks += (entered_depths.len() as u64).saturating_sub(1);
    if entered_depths.len() >= 2 {
        stats.undos += entered_depths[..entered_depths.len() - 1]
            .iter()
            .sum::<u64>();
    }

    // Best-vertex reduction. The stage fold over the root children already
    // reproduces the serial engine's depth-1 ordering (lowest priority
    // folded first), so only *interior* subtree bests (depth >= 2) compete:
    // folding them in priority order under the same strict-improvement rule
    // recovers exactly the serial "first optimum in exploration order". A
    // leaf overrides unconditionally, as in the serial loop.
    let mut owner: Option<usize> = None; // best's subtree; None = stage arena
    let termination = if let Some(l) = leaf_sub {
        best = runs[l].best;
        owner = Some(l);
        Termination::Leaf
    } else {
        for (i, run) in runs[..committed].iter().enumerate() {
            let cand = run.best;
            if cand.0 >= 2 && (cand.0 > best.0 || (cand.0 == best.0 && cand.1 < best.1)) {
                best = cand;
                owner = Some(i);
            }
        }
        if runs[..committed]
            .iter()
            .any(|r| r.termination == Termination::QuantumExhausted)
        {
            Termination::QuantumExhausted
        } else if runs[..committed]
            .iter()
            .any(|r| r.termination == Termination::Pruned)
        {
            Termination::Pruned
        } else {
            Termination::DeadEnd
        }
    };
    work.prof.stop(Stage::Merge, t_merge);

    // Deliver the best vertex's schedule from whichever arena owns it.
    let assignments = match owner {
        None => match best.2 {
            Some(id) => {
                ctx.switch_to(&mut work, &mut stats, id, false);
                out.extend_from_slice(work.state.assignments());
                std::mem::take(out)
            }
            None => Vec::new(),
        },
        Some(i) => {
            let mut sub_work = Work::over(&mut par.subs[i]);
            let id = best.2.expect("a subtree best always names a vertex");
            ctx.switch_to(&mut sub_work, &mut stats, id, false);
            out.extend_from_slice(sub_work.state.assignments());
            std::mem::take(out)
        }
    };

    // Provenance merge: the screen evidence comes from the shared prologue;
    // the decision path from the owning arena. A subtree's depth-1 node
    // repeats a stage root child, so its rejected alternatives are the
    // *other* root children (stage arena); deeper nodes find their siblings
    // in the subtree's own arena. The values match the serial engine's —
    // only arena ids differ, and evidence carries none.
    let provenance = params.provenance.then(|| match owner {
        None => phase_provenance(work.arena, work.node_costs, best.2, screened_evidence),
        Some(i) => {
            let sub = &par.subs[i];
            let id = best.2.expect("a subtree best always names a vertex");
            let mut path_ids = Vec::new();
            let mut cursor = Some(id);
            while let Some(nid) = cursor {
                path_ids.push(nid);
                cursor = sub.arena[nid].parent;
            }
            path_ids.reverse();
            let mut decisions = Vec::new();
            for &nid in &path_ids {
                let node = &sub.arena[nid];
                let (completion, cost) = sub.node_costs[nid];
                let rejected = if node.parent.is_none() {
                    rejected_siblings(work.arena, work.node_costs, specs[i].root_id)
                } else {
                    rejected_siblings(&sub.arena, &sub.node_costs, nid)
                };
                decisions.push(PlacementEvidence {
                    task: node.task,
                    processor: node.processor,
                    completion,
                    cost,
                    rejected,
                });
            }
            PhaseProvenance {
                screened: screened_evidence,
                decisions,
            }
        }
    });

    // Fold every walk's stage times into the phase profiler (all k walks
    // ran and burned wall time, committed or not) and record one walk entry
    // each for the imbalance diagnostics. Both are no-ops when profiling is
    // off; the enabled guard keeps the label allocation off the hot path.
    if work.prof.enabled() {
        for (i, run) in runs.iter().enumerate() {
            work.prof.absorb(&par.subs[i].prof);
            work.prof.record_walk(WalkProfile {
                termination: termination_label(run.termination).to_string(),
                vertices: run.vertices,
                end_depth: run.end_depth,
                pops: run.pops,
                committed: i < committed,
            });
        }
    }

    report.subs = runs
        .iter()
        .enumerate()
        .map(|(i, run)| SubReport {
            termination: run.termination,
            stats: run.stats,
            pops: run.pops,
            end_depth: run.end_depth,
            committed: i < committed,
            vertices: run.vertices,
            consumed: run.consumed,
        })
        .collect();

    (
        SearchOutcome {
            assignments,
            termination,
            n_viable,
            makespan: best.1,
            stats,
            provenance,
        },
        report,
    )
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

    /// Runs the parallel engine at `threads` and asserts the outcome equals
    /// `expected` field by field (plus the meter tallies).
    fn assert_parallel_matches(
        p: &SearchParams<'_>,
        threads: usize,
        mk_meter: &dyn Fn() -> SchedulingMeter,
        expected: &SearchOutcome,
        expected_meter: &SchedulingMeter,
    ) -> ParallelReport {
        let mut meter = mk_meter();
        let mut scratch = SearchScratch::new();
        let mut par = ParallelScratch::new();
        let (out, report) =
            search_schedule_parallel_with_report(p, threads, &mut meter, &mut scratch, &mut par);
        assert_eq!(out.assignments, expected.assignments, "threads={threads}");
        assert_eq!(out.termination, expected.termination, "threads={threads}");
        assert_eq!(out.n_viable, expected.n_viable, "threads={threads}");
        assert_eq!(out.makespan, expected.makespan, "threads={threads}");
        assert_eq!(out.stats, expected.stats, "threads={threads}");
        assert_eq!(out.provenance, expected.provenance, "threads={threads}");
        assert_eq!(meter.vertices(), expected_meter.vertices());
        assert_eq!(meter.consumed(), expected_meter.consumed());
        assert_eq!(meter.exhausted(), expected_meter.exhausted());
        report
    }

    #[test]
    fn parallel_leaf_matches_serial_at_every_width() {
        // Balanced feasible case: every subtree dead-ends or leafs without
        // hitting a budget slice, so the merge must be bit-identical to the
        // serial engine at any width.
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 3];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.provenance = true;
        let mut serial_meter = free_meter();
        let serial = search_schedule(&p, &mut serial_meter);
        assert_eq!(serial.termination, Termination::Leaf);
        for threads in [1, 2, 8] {
            let report = assert_parallel_matches(&p, threads, &free_meter, &serial, &serial_meter);
            assert!(report.split, "three root children should split");
            assert_eq!(report.subtrees, 3);
        }
    }

    #[test]
    fn parallel_backtracking_case_matches_serial() {
        // The greedy-mistake scenario: subtree 0 (A on P0) dead-ends, the
        // serial engine backtracks into subtree 1 (A on P1) and completes.
        // The parallel merge must reproduce the cross-subtree backtrack and
        // undo accounting exactly.
        let tasks = vec![mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])];
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.provenance = true;
        let mut serial_meter = free_meter();
        let serial = search_schedule(&p, &mut serial_meter);
        assert_eq!(serial.termination, Termination::Leaf);
        assert!(serial.stats.backtracks > 0);
        for threads in [1, 2, 8] {
            let report = assert_parallel_matches(&p, threads, &free_meter, &serial, &serial_meter);
            assert!(report.split);
            assert_eq!(report.committed, 2, "leaf in subtree 1 commits both");
            assert_eq!(report.subs[0].termination, Termination::DeadEnd);
            assert_eq!(report.subs[1].termination, Termination::Leaf);
        }
    }

    #[test]
    fn parallel_dead_end_matches_serial() {
        // 5 equal tasks, 2 processors, only 4 fit by the deadline: the
        // exhaustive search dead-ends. Every subtree dead-ends too, so
        // parallel == serial.
        let tasks: Vec<Task> = (0..5).map(|i| mk_task(i, 100, 250, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        p.provenance = true;
        let mut serial_meter = free_meter();
        let serial = search_schedule(&p, &mut serial_meter);
        assert_eq!(serial.termination, Termination::DeadEnd);
        for threads in [1, 2, 8] {
            assert_parallel_matches(&p, threads, &free_meter, &serial, &serial_meter);
        }
    }

    #[test]
    fn parallel_is_width_invariant_under_budget_slicing() {
        // A tight meter makes the subtree quantum slices bind, so the
        // outcome legitimately differs from serial — but it must still be
        // bit-identical across widths, and the counters must stay coherent.
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 400, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let mk_meter = || {
            SchedulingMeter::new(
                HostParams::new(Duration::from_micros(1)),
                Duration::from_micros(97),
            )
        };
        let mut meter = mk_meter();
        let mut scratch = SearchScratch::new();
        let mut par = ParallelScratch::new();
        let (base, report) =
            search_schedule_parallel_with_report(&p, 1, &mut meter, &mut scratch, &mut par);
        assert!(report.split);
        assert_eq!(
            meter.vertices(),
            base.stats.vertices_generated,
            "accounting invariant survives the merge"
        );
        for threads in [2, 3, 8, 16] {
            assert_parallel_matches(&p, threads, &mk_meter, &base, &meter);
        }
    }

    #[test]
    fn parallel_reuses_scratches_across_phases() {
        let tasks: Vec<Task> = (0..6).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 3];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let mut scratch = SearchScratch::new();
        let mut par = ParallelScratch::new();
        let mut meter = free_meter();
        let first = search_schedule_parallel(&p, 4, &mut meter, &mut scratch, &mut par);
        for _ in 0..3 {
            let mut meter = free_meter();
            let again = search_schedule_parallel(&p, 4, &mut meter, &mut scratch, &mut par);
            assert_eq!(again.assignments, first.assignments);
            assert_eq!(again.stats, first.stats);
        }
    }

    #[test]
    fn parallel_trivial_and_degenerate_batches() {
        let comm = CommModel::free();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 2];
        let mut scratch = SearchScratch::new();
        let mut par = ParallelScratch::new();

        // Empty batch: trivial leaf, no split.
        let empty: Vec<Task> = Vec::new();
        let p = params(&empty, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let (out, report) =
            search_schedule_parallel_with_report(&p, 8, &mut free_meter(), &mut scratch, &mut par);
        assert_eq!(out.termination, Termination::Leaf);
        assert!(!report.split);

        // Single task: one subtree, serial fallback path.
        let one = vec![mk_task(0, 100, 100_000, &[])];
        let p = params(&one, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let (out, report) =
            search_schedule_parallel_with_report(&p, 8, &mut free_meter(), &mut scratch, &mut par);
        assert_eq!(out.termination, Termination::Leaf);
        assert!(!report.split, "k < 2 never splits");
        assert_eq!(out.assignments.len(), 1);
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
    fn sharded_parallel_matches_serial() {
        use rt_task::TopologySpec;
        let topo = TopologySpec::new(12, 3, 1, 0, 1_000, 1_000);
        let comm = CommModel::hierarchical(topo);
        let tasks: Vec<Task> = (0..15)
            .map(|i| mk_task(i, 250 + i * 11, 150_000, &[(i as usize) % 12]))
            .collect();
        let repr = Representation::assignment_oriented();
        let initial = [Time::ZERO; 12];
        let p = params(&tasks, &comm, &initial, &repr, ChildOrder::LoadBalance);
        let serial = search_schedule(&p, &mut free_meter());
        let mut scratch = SearchScratch::new();
        let mut par = ParallelScratch::new();
        for threads in [1, 4] {
            let out =
                search_schedule_parallel(&p, threads, &mut free_meter(), &mut scratch, &mut par);
            assert_eq!(out.assignments, serial.assignments, "threads={threads}");
            assert_eq!(out.makespan, serial.makespan);
            assert_eq!(out.stats, serial.stats);
        }
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
        let mut par_scratch = SearchScratch::new();
        let mut par = ParallelScratch::new();
        let (mut decisions, mut alternatives, mut splits) = (0, 0, 0);
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
                        for (d, &id) in prov.decisions.iter().zip(scratch.path.iter()) {
                            assert_eq!(
                                d.rejected,
                                siblings_full_scan(&scratch.arena, &scratch.node_costs, id)
                            );
                        }
                    }
                    decisions += prov.decisions.len();
                    alternatives += prov
                        .decisions
                        .iter()
                        .map(|d| d.rejected.len())
                        .sum::<usize>();
                    assert_sibling_blocks(&scratch.arena, &scratch.node_costs);
                    scratch.recycle(out.assignments);

                    let (out, report) = search_schedule_parallel_with_report(
                        &p,
                        2,
                        &mut free_meter(),
                        &mut par_scratch,
                        &mut par,
                    );
                    assert_sibling_blocks(&par_scratch.arena, &par_scratch.node_costs);
                    if report.split {
                        splits += 1;
                        for sub in &par.subs[..report.subtrees] {
                            assert_sibling_blocks(&sub.arena, &sub.node_costs);
                        }
                    }
                    par_scratch.recycle(out.assignments);
                }
            }
        }
        assert!(
            decisions > 500 && alternatives > 500 && splits > 50,
            "random phases must deliver paths with alternatives and split: {decisions} \
             decisions, {alternatives} alternatives, {splits} splits"
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
}
