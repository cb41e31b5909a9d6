//! Property tests of the persistent candidate columns: after an arbitrary
//! interleaving of `apply`/`undo`, with column reads forced at arbitrary
//! points in between (so segments synchronise at different journal
//! positions), every column entry must be bit-equal to the from-scratch
//! evaluation (`completion_if`, which prices through `CommModel::demand`)
//! against the live state — and the incrementally maintained `makespan` and
//! per-shard `shard_min` must equal their from-scratch recomputations over
//! the finish array. The columns are priced as the search prices them, by
//! affinity class and node.

use proptest::prelude::*;

use paragon_des::{Duration, Time};
use rt_task::{
    AffinitySet, CommModel, ProcessorId, ResourceEats, ResourceRequest, Task, TaskId, TopologySpec,
};
use sched_search::PathState;

/// One step of the random walk over the search tree.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Assign the `t`-th (mod remaining) unassigned task to processor
    /// `p` (mod P); no-op when the path is complete.
    Apply(usize, usize),
    /// Pop the deepest assignment; no-op at the root.
    Undo,
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..5, 0usize..64, 0usize..64).prop_map(
        |(kind, t, p)| {
            if kind < 3 {
                Op::Apply(t, p)
            } else {
                Op::Undo
            }
        },
    )
}

#[derive(Debug, Clone)]
struct TaskSpec {
    p_us: u64,
    laxity_x10: u64,
    resource: Option<(usize, bool)>,
    /// Affinity members; some lie at or above P, and the set may be empty.
    affinity: Vec<usize>,
}

fn task_spec() -> impl Strategy<Value = TaskSpec> {
    (
        1u64..2_000,
        10u64..60,
        any::<bool>(),
        0usize..3,
        any::<bool>(),
        prop::collection::vec(0usize..24, 0..4),
    )
        .prop_map(
            |(p_us, laxity_x10, has_resource, r, exclusive, affinity)| TaskSpec {
                p_us,
                laxity_x10,
                resource: has_resource.then_some((r, exclusive)),
                affinity,
            },
        )
}

fn tasks_from(specs: &[TaskSpec]) -> Vec<Task> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let p = Duration::from_micros(s.p_us);
            let resources = match s.resource {
                Some((r, true)) => vec![ResourceRequest::exclusive(r)],
                Some((r, false)) => vec![ResourceRequest::shared(r)],
                None => Vec::new(),
            };
            Task::builder(TaskId::new(i as u64))
                .processing_time(p)
                .deadline(Time::ZERO + p.mul_f64(s.laxity_x10 as f64 / 10.0))
                .resources(resources)
                .affinity(
                    s.affinity
                        .iter()
                        .map(|&k| ProcessorId::new(k))
                        .collect::<AffinitySet>(),
                )
                .build()
        })
        .collect()
}

/// Segment `seg`'s demands for `t` as the search builds them from its
/// per-phase cost table: `p` on an affine processor, and elsewhere `p` plus
/// the class's cost on the segment's node — `C` on the constant model's one
/// node, `TopologySpec::non_affine_cost` on a topology's node `seg`.
fn class_demand<'a>(comm: &CommModel, t: &'a Task, seg: usize) -> impl Fn(usize) -> Duration + 'a {
    let remote = match comm.topology() {
        Some(spec) => spec.non_affine_cost(t.affinity(), seg),
        None => comm.constant_cost(),
    };
    let p = t.processing_time();
    move |k| {
        if t.affinity().contains(ProcessorId::new(k)) {
            p
        } else {
            p + remote
        }
    }
}

/// Checks every incremental structure of `state` against its from-scratch
/// definition. Each column segment is synchronised with
/// `ensure_candidate_segment`, priced by [`class_demand`], and read through
/// `candidate_segment`, exactly the production read path.
fn check_state(
    tasks: &[Task],
    comm: &CommModel,
    state: &mut PathState,
) -> Result<(), TestCaseError> {
    let procs = state.processors();
    // Incremental makespan == max finish.
    let max_finish = (0..procs)
        .map(|p| state.finish_of(ProcessorId::new(p)))
        .max()
        .unwrap_or(Time::ZERO);
    prop_assert_eq!(state.makespan(), max_finish, "makespan != max finish");
    // Incremental shard minima == per-segment min finish.
    if let Some(topo) = comm.topology() {
        for s in 0..topo.nodes() {
            let (lo, hi) = topo.node_range(s);
            let min_finish = (lo..hi)
                .map(|p| state.finish_of(ProcessorId::new(p)))
                .min()
                .expect("non-empty shard");
            prop_assert_eq!(state.shard_min(s), min_finish, "shard_min({}) stale", s);
        }
    }
    // Every entry of every column segment == the from-scratch completion
    // for that pair, and the segments cover the processors in order.
    for t in 0..tasks.len() {
        let mut col = Vec::with_capacity(procs);
        for seg in 0..state.column_segments() {
            state.ensure_candidate_segment(tasks, t, seg, class_demand(comm, &tasks[t], seg));
            col.extend(state.candidate_segment(t, seg));
        }
        prop_assert_eq!(col.len(), procs);
        for (i, &(p, got)) in col.iter().enumerate() {
            prop_assert_eq!(p, i, "segments out of processor order");
            let want = state.completion_if(tasks, comm, t, ProcessorId::new(p));
            prop_assert_eq!(
                got,
                want,
                "column[task={}][p={}] diverged from completion_if",
                t,
                p
            );
        }
    }
    Ok(())
}

fn run_walk(
    tasks: &[Task],
    comm: &CommModel,
    procs: usize,
    shard_ends: &[usize],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let initial: Vec<Time> = (0..procs)
        .map(|p| Time::from_micros((p as u64 * 137) % 1_000))
        .collect();
    let mut state = PathState::with_resources(initial, tasks.len(), ResourceEats::new());
    if !shard_ends.is_empty() {
        state.configure_shards(shard_ends);
    }
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Apply(t, p) => {
                let unassigned: Vec<usize> = state.unassigned().collect();
                if let Some(&task) = unassigned.get(t % unassigned.len().max(1)) {
                    state.apply(tasks, comm, task, ProcessorId::new(p % procs));
                }
            }
            Op::Undo => {
                if state.depth() > 0 {
                    state.undo();
                }
            }
        }
        // Force column reads at varying interleaving points so segments
        // synchronise at different journal positions; every third step
        // keeps the walk cheap while still exercising stale replays.
        if i % 3 == 0 {
            check_state(tasks, comm, &mut state)?;
        }
    }
    check_state(tasks, comm, &mut state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat (single-segment) columns under a constant-cost model stay
    /// bit-equal to from-scratch evaluation through any apply/undo
    /// interleaving.
    #[test]
    fn flat_columns_match_rebuild(
        specs in prop::collection::vec(task_spec(), 1..10),
        ops in prop::collection::vec(op(), 1..40),
        c_us in 0u64..500,
        procs in 1usize..12,
    ) {
        let tasks = tasks_from(&specs);
        let comm = CommModel::constant(Duration::from_micros(c_us));
        run_walk(&tasks, &comm, procs, &[], &ops)?;
    }

    /// Sharded (multi-segment) columns under a hierarchical model — the
    /// shard-first read path syncs segments independently, so the journal
    /// replay positions differ per segment. 1 to 3 racks, intra-node cost
    /// 0 or 50, and worker counts that leave the nodes unequal in size.
    #[test]
    fn sharded_columns_match_rebuild(
        specs in prop::collection::vec(task_spec(), 1..10),
        ops in prop::collection::vec(op(), 1..40),
        nodes in 2u32..5,
        per_node in 1u32..5,
        extra in 0u32..4,
        racks in 1u32..4,
        intra_us in prop::sample::select(vec![0u64, 50]),
    ) {
        let tasks = tasks_from(&specs);
        let workers = nodes * per_node + extra % nodes;
        let topo = TopologySpec::new(workers, nodes, racks.min(nodes), intra_us, 400, 900);
        let comm = CommModel::hierarchical(topo);
        let shard_ends: Vec<usize> = (0..topo.nodes()).map(|s| topo.node_range(s).1).collect();
        run_walk(&tasks, &comm, workers as usize, &shard_ends, &ops)?;
    }
}
