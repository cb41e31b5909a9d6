//! The scheduling algorithms: RT-SADS, D-COLS, and sanity baselines.

use paragon_des::{SimRng, Time};
use paragon_platform::SchedulingMeter;
use rt_task::{Batch, CommModel, ProcessorId, ResourceEats, Task};
use sched_search::{
    placement_probe, search_schedule_with, Assignment, ChildOrder, PathState, PhaseProvenance,
    PlacementEvidence, ProcessorOrder, Pruning, Representation, SearchOutcome, SearchParams,
    SearchScratch, SearchStats, TaskOrder, Termination,
};
use serde::{Deserialize, Serialize};

/// Reusable working storage for the phase loop: the search engine's
/// [`SearchScratch`] plus the buffers the one-pass baselines and the myopic
/// scheduler need. One lives per driver run; every scheduling phase clears
/// and refills it (clear-don't-drop), so steady-state phases perform no heap
/// allocation. Behavior is identical whether the scratch is fresh or reused
/// — pinned by the replay-oracle differential suite.
#[derive(Debug, Default)]
pub struct PhaseScratch {
    /// The tree-search engine's per-phase buffers.
    pub search: SearchScratch,
    /// Path state for the non-search schedulers, reset per phase.
    pub(crate) state: Option<PathState>,
    /// Task-order index buffer.
    pub(crate) order: Vec<usize>,
    /// Feasible (processor, completion) candidates of one task.
    pub(crate) feasible: Vec<(usize, Time)>,
}

impl PhaseScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a consumed [`SearchOutcome::assignments`] vector to the pool
    /// so the next phase reuses its capacity.
    pub fn recycle(&mut self, assignments: Vec<Assignment>) {
        self.search.recycle(assignments);
    }
}

/// Which scheduler runs the phases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's contribution: assignment-oriented search (Figure 2) with
    /// a per-level task ordering and heuristic successor ordering.
    RtSads {
        /// Which task each tree level considers.
        task_order: TaskOrder,
        /// Successor ordering (the load-balancing cost function by default).
        child_order: ChildOrder,
    },
    /// The sequence-oriented baseline (Figure 1), Distributed Continuous
    /// On-Line Scheduling, reconstructed from the paper's description: same
    /// quantum formula and feasibility test, different representation.
    DCols {
        /// Which processor each tree level serves.
        processor_order: ProcessorOrder,
        /// Successor ordering (EDF over the remaining tasks by default).
        child_order: ChildOrder,
        /// Whether a blocked level may advance to the next processor
        /// (ablation variant; the paper's D-COLS dead-ends instead).
        skip_processors: bool,
    },
    /// Greedy earliest-deadline-first list scheduling without backtracking:
    /// each task goes to the feasible processor with the earliest
    /// completion. A classical non-search baseline.
    GreedyEdf,
    /// The myopic algorithm of Ramamritham, Stankovic and Zhao (the paper's
    /// references \[3\]/\[6\]): feasibility window, integrating heuristic
    /// `H = d + W·EST`, limited backtracking. See [`Algorithm::myopic`].
    Myopic {
        /// Feasibility-window size `K`.
        window: usize,
        /// Heuristic weight `W`, in percent (100 = 1.0).
        weight_pct: u32,
        /// Backtracks allowed per phase.
        max_backtracks: u32,
    },
    /// Each task goes to a uniformly random *feasible* processor. The floor
    /// any informed scheduler must beat.
    RandomAssign,
}

impl Algorithm {
    /// Canonical RT-SADS: EDF task order, load-balancing cost function.
    #[must_use]
    pub fn rt_sads() -> Self {
        Algorithm::RtSads {
            task_order: TaskOrder::EarliestDeadline,
            child_order: ChildOrder::LoadBalance,
        }
    }

    /// Canonical D-COLS: round-robin processors, EDF successor ordering, no
    /// processor skipping.
    #[must_use]
    pub fn d_cols() -> Self {
        Algorithm::DCols {
            processor_order: ProcessorOrder::RoundRobin,
            child_order: ChildOrder::EarliestDeadline,
            skip_processors: false,
        }
    }

    /// The D-COLS ablation variant that may advance past a blocked
    /// processor instead of dead-ending.
    #[must_use]
    pub fn d_cols_skipping() -> Self {
        Algorithm::DCols {
            processor_order: ProcessorOrder::RoundRobin,
            child_order: ChildOrder::EarliestDeadline,
            skip_processors: true,
        }
    }

    /// The classical myopic configuration: window of 7 tasks, unit
    /// heuristic weight, 8 backtracks per phase.
    #[must_use]
    pub fn myopic() -> Self {
        Algorithm::Myopic {
            window: 7,
            weight_pct: 100,
            max_backtracks: 8,
        }
    }

    /// A short human-readable name for tables and figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::RtSads { child_order, .. } => match child_order {
                ChildOrder::LoadBalance => "RT-SADS",
                ChildOrder::EarliestCompletion => "RT-SADS/greedy-order",
                ChildOrder::EarliestDeadline => "RT-SADS/edf-order",
                ChildOrder::None => "RT-SADS/no-cost",
            },
            Algorithm::DCols {
                processor_order,
                skip_processors,
                ..
            } => match (processor_order, skip_processors) {
                (ProcessorOrder::RoundRobin, false) => "D-COLS",
                (ProcessorOrder::RoundRobin, true) => "D-COLS/skip",
                (ProcessorOrder::FillFirst, false) => "D-COLS/fill-first",
                (ProcessorOrder::FillFirst, true) => "D-COLS/fill-first-skip",
            },
            Algorithm::GreedyEdf => "Greedy-EDF",
            Algorithm::Myopic { .. } => "Myopic",
            Algorithm::RandomAssign => "Random",
        }
    }

    /// Runs one scheduling phase over `batch` and returns the (partial)
    /// schedule, whose assignments name tasks by batch position.
    /// `initial_finish[k]` is `max(busy_until_k, t_s + Q_s(j))`;
    /// `meter` charges and bounds the scheduling time; `pruning` applies the
    /// Section-3 bounds to the search-based algorithms (the one-pass
    /// baselines ignore it); `rng` is only used by
    /// [`Algorithm::RandomAssign`]; `provenance` asks for decision evidence
    /// ([`SearchOutcome::provenance`] — record-only, never alters the
    /// schedule; the myopic baseline does not produce any). `scratch` holds
    /// the reusable working buffers — pass a fresh one for a one-off call, or
    /// carry one across phases to keep the hot path allocation-free.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn schedule_phase(
        &self,
        batch: &Batch,
        comm: &CommModel,
        initial_finish: &[Time],
        now: Time,
        vertex_cap: Option<u64>,
        pruning: Pruning,
        resources: &ResourceEats,
        provenance: bool,
        meter: &mut SchedulingMeter,
        rng: &mut SimRng,
        scratch: &mut PhaseScratch,
    ) -> SearchOutcome {
        // The two search algorithms differ only in their tree layout and
        // successor order; everything else is one engine call.
        let tasks = batch.tasks();
        let (representation, child_order) = match self {
            Algorithm::RtSads {
                task_order,
                child_order,
            } => (
                Representation::AssignmentOriented {
                    task_order: *task_order,
                },
                *child_order,
            ),
            Algorithm::DCols {
                processor_order,
                child_order,
                skip_processors,
            } => (
                Representation::SequenceOriented {
                    processor_order: *processor_order,
                    skip_processors: *skip_processors,
                },
                *child_order,
            ),
            Algorithm::GreedyEdf => {
                return greedy_edf(
                    tasks,
                    comm,
                    initial_finish,
                    now,
                    resources,
                    provenance,
                    meter,
                    scratch,
                )
            }
            Algorithm::Myopic {
                window,
                weight_pct,
                max_backtracks,
            } => {
                return crate::myopic::myopic_phase(
                    tasks,
                    comm,
                    initial_finish,
                    now,
                    resources,
                    *window,
                    *weight_pct,
                    *max_backtracks,
                    meter,
                    scratch,
                )
            }
            Algorithm::RandomAssign => {
                return random_assign(
                    tasks,
                    comm,
                    initial_finish,
                    resources,
                    provenance,
                    meter,
                    rng,
                    scratch,
                )
            }
        };
        let params = SearchParams {
            batch,
            comm,
            initial_finish,
            representation: &representation,
            child_order,
            now,
            vertex_cap,
            pruning,
            resources: resources.clone(),
            provenance,
        };
        search_schedule_with(&params, meter, &mut scratch.search)
    }
}

/// List scheduling: EDF order, each task to its feasible
/// earliest-completion processor, never undone.
#[allow(clippy::too_many_arguments)]
fn greedy_edf(
    tasks: &[Task],
    comm: &CommModel,
    initial_finish: &[Time],
    now: Time,
    resources: &ResourceEats,
    provenance: bool,
    meter: &mut SchedulingMeter,
    scratch: &mut PhaseScratch,
) -> SearchOutcome {
    TaskOrder::EarliestDeadline.order_into(tasks, now, &mut scratch.order);
    one_pass(
        tasks,
        comm,
        initial_finish,
        resources,
        provenance,
        meter,
        scratch,
        |cands| {
            cands
                .iter()
                .min_by_key(|&&(_, completion)| completion)
                .copied()
        },
    )
}

/// Each task to a uniformly random feasible processor.
#[allow(clippy::too_many_arguments)]
fn random_assign(
    tasks: &[Task],
    comm: &CommModel,
    initial_finish: &[Time],
    resources: &ResourceEats,
    provenance: bool,
    meter: &mut SchedulingMeter,
    rng: &mut SimRng,
    scratch: &mut PhaseScratch,
) -> SearchOutcome {
    scratch.order.clear();
    scratch.order.extend(0..tasks.len());
    one_pass(
        tasks,
        comm,
        initial_finish,
        resources,
        provenance,
        meter,
        scratch,
        |cands| {
            if cands.is_empty() {
                None
            } else {
                Some(*rng.choose(cands))
            }
        },
    )
}

/// Shared single-pass (no-backtracking) scheduler skeleton for the two
/// baselines; the caller has filled `scratch.order` with the task order, and
/// `pick` chooses among the feasible `(processor, completion)` candidates of
/// one task.
#[allow(clippy::too_many_arguments)]
fn one_pass(
    tasks: &[Task],
    comm: &CommModel,
    initial_finish: &[Time],
    resources: &ResourceEats,
    provenance: bool,
    meter: &mut SchedulingMeter,
    scratch: &mut PhaseScratch,
    mut pick: impl FnMut(&[(usize, Time)]) -> Option<(usize, Time)>,
) -> SearchOutcome {
    let PhaseScratch {
        search,
        state: state_slot,
        order,
        feasible,
    } = scratch;
    match state_slot.as_mut() {
        Some(s) => s.reset(initial_finish, tasks.len(), resources),
        None => {
            *state_slot = Some(PathState::with_resources(
                initial_finish.to_vec(),
                tasks.len(),
                resources.clone(),
            ));
        }
    }
    let state = state_slot.as_mut().expect("state initialized above");
    let mut stats = SearchStats::default();
    let mut skipped_any = false;
    let mut exhausted = false;
    let mut decisions: Vec<PlacementEvidence> = Vec::new();

    'outer: for &t in order.iter() {
        stats.expansions += 1;
        feasible.clear();
        for p in ProcessorId::all(state.processors()) {
            // Same accounting contract as the search engine: a failed charge
            // still counts the vertex (stats equal `meter.vertices()`), and
            // only charged vertices are classified feasible/infeasible.
            if !meter.charge_vertex() {
                stats.vertices_generated += 1;
                exhausted = true;
                break 'outer;
            }
            stats.vertices_generated += 1;
            let completion = state.completion_if(tasks, comm, t, p);
            if tasks[t].meets_deadline(completion) {
                stats.feasible_children += 1;
                feasible.push((p.index(), completion));
            } else {
                stats.infeasible_children += 1;
            }
        }
        if let Some((p, completion)) = pick(feasible) {
            if provenance {
                // Record-only: cost ce_k is the makespan had the candidate
                // been chosen, computed against the pre-apply state for the
                // chosen and rejected placements alike.
                let probe = |q, c: Time| {
                    placement_probe(comm, ProcessorId::new(q), c, state.makespan().max(c))
                };
                decisions.push(PlacementEvidence {
                    task: t,
                    chosen: probe(p, completion),
                    rejected: feasible
                        .iter()
                        .filter(|&&(q, _)| q != p)
                        .map(|&(q, c)| probe(q, c))
                        .collect(),
                });
            }
            state.apply(tasks, comm, t, ProcessorId::new(p));
            stats.deepest = state.depth();
        } else {
            skipped_any = true;
        }
    }

    let termination = if exhausted {
        Termination::QuantumExhausted
    } else if skipped_any {
        Termination::DeadEnd
    } else {
        Termination::Leaf
    };
    // One-pass baselines do not screen: the whole batch counts as viable,
    // so `Leaf` only when every batch task was placed.
    let makespan = state.makespan();
    // Copy into the pooled buffer (the state stays in the scratch for the
    // next phase); the driver recycles the vector after consuming it.
    let mut assignments = search.take_assignment_buffer();
    assignments.extend_from_slice(state.assignments());
    SearchOutcome {
        assignments,
        termination,
        n_viable: tasks.len(),
        makespan,
        stats,
        // One-pass baselines do not screen, so provenance carries decisions
        // only; tasks without a feasible processor simply stay in the batch.
        provenance: provenance.then(|| PhaseProvenance {
            screened: Vec::new(),
            decisions,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;
    use paragon_platform::HostParams;
    use rt_task::{AffinitySet, TaskId};

    fn mk_task(id: u64, p_us: u64, d_us: u64, aff_all: usize) -> Task {
        Task::builder(TaskId::new(id))
            .processing_time(Duration::from_micros(p_us))
            .deadline(Time::from_micros(d_us))
            .affinity(AffinitySet::all(aff_all))
            .build()
    }

    fn free_meter() -> SchedulingMeter {
        SchedulingMeter::new(HostParams::free(), Duration::ZERO)
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Algorithm::rt_sads().name(),
            Algorithm::d_cols().name(),
            Algorithm::GreedyEdf.name(),
            Algorithm::RandomAssign.name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(Algorithm::rt_sads().name(), "RT-SADS");
        assert_eq!(Algorithm::d_cols().name(), "D-COLS");
    }

    #[test]
    fn rt_sads_balances_equal_tasks() {
        let batch: Batch = (0..4).map(|i| mk_task(i, 100, 100_000, 2)).collect();
        let comm = CommModel::free();
        let initial = [Time::ZERO; 2];
        let mut rng = SimRng::seed_from(0);
        let out = Algorithm::rt_sads().schedule_phase(
            &batch,
            &comm,
            &initial,
            Time::ZERO,
            Some(10_000),
            Pruning::default(),
            &ResourceEats::new(),
            false,
            &mut free_meter(),
            &mut rng,
            &mut PhaseScratch::new(),
        );
        assert_eq!(out.termination, Termination::Leaf);
        assert_eq!(out.processors_used(&mut Vec::new()), 2);
        // perfectly balanced: two tasks per processor, makespan 200
        let makespan = out.assignments.iter().map(|a| a.completion).max().unwrap();
        assert_eq!(makespan, Time::from_micros(200));
    }

    #[test]
    fn greedy_edf_schedules_in_deadline_order() {
        let batch = Batch::from_iter([
            mk_task(0, 100, 100_000, 1),
            mk_task(1, 100, 50_000, 1),
            mk_task(2, 100, 200_000, 1),
        ]);
        let comm = CommModel::free();
        let initial = [Time::ZERO];
        let mut rng = SimRng::seed_from(0);
        let out = Algorithm::GreedyEdf.schedule_phase(
            &batch,
            &comm,
            &initial,
            Time::ZERO,
            None,
            Pruning::default(),
            &ResourceEats::new(),
            false,
            &mut free_meter(),
            &mut rng,
            &mut PhaseScratch::new(),
        );
        assert_eq!(out.termination, Termination::Leaf);
        let order: Vec<usize> = out.assignments.iter().map(|a| a.task).collect();
        assert_eq!(order, vec![1, 0, 2], "EDF picks task 1 first");
    }

    #[test]
    fn greedy_edf_skips_infeasible_and_reports_dead_end() {
        let batch = Batch::from_iter([mk_task(0, 100, 50, 1), mk_task(1, 100, 100_000, 1)]);
        let comm = CommModel::free();
        let initial = [Time::ZERO];
        let mut rng = SimRng::seed_from(0);
        let out = Algorithm::GreedyEdf.schedule_phase(
            &batch,
            &comm,
            &initial,
            Time::ZERO,
            None,
            Pruning::default(),
            &ResourceEats::new(),
            false,
            &mut free_meter(),
            &mut rng,
            &mut PhaseScratch::new(),
        );
        assert_eq!(out.termination, Termination::DeadEnd);
        assert_eq!(out.assignments.len(), 1);
        assert_eq!(out.assignments[0].task, 1);
    }

    #[test]
    fn random_assign_is_deterministic_per_seed_and_feasible() {
        let batch: Batch = (0..8).map(|i| mk_task(i, 100, 100_000, 3)).collect();
        let comm = CommModel::free();
        let initial = [Time::ZERO; 3];
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            Algorithm::RandomAssign.schedule_phase(
                &batch,
                &comm,
                &initial,
                Time::ZERO,
                None,
                Pruning::default(),
                &ResourceEats::new(),
                false,
                &mut free_meter(),
                &mut rng,
                &mut PhaseScratch::new(),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.assignments, b.assignments);
        for asg in &a.assignments {
            assert!(batch.tasks()[asg.task].meets_deadline(asg.completion));
        }
        assert_eq!(a.termination, Termination::Leaf);
        // different seeds usually differ
        let c = run(8);
        assert!(
            a.assignments != c.assignments || a.assignments.len() == c.assignments.len(),
            "sanity"
        );
    }

    #[test]
    fn baselines_respect_the_meter() {
        let batch: Batch = (0..100).map(|i| mk_task(i, 100, 1_000_000, 2)).collect();
        let comm = CommModel::free();
        let initial = [Time::ZERO; 2];
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(1)),
            Duration::from_micros(9),
        );
        let mut rng = SimRng::seed_from(0);
        let out = Algorithm::GreedyEdf.schedule_phase(
            &batch,
            &comm,
            &initial,
            Time::ZERO,
            None,
            Pruning::default(),
            &ResourceEats::new(),
            false,
            &mut meter,
            &mut rng,
            &mut PhaseScratch::new(),
        );
        assert_eq!(out.termination, Termination::QuantumExhausted);
        // 9 vertex charges = 4 tasks fully evaluated (2 procs each) + 1 cut
        assert!(out.assignments.len() <= 5);
        assert!(!out.assignments.is_empty());
        // Accounting contract (matches the search engine): the failed charge
        // is counted but not classified.
        assert_eq!(out.stats.vertices_generated, meter.vertices());
        assert_eq!(
            out.stats.feasible_children + out.stats.infeasible_children,
            out.stats.vertices_generated - 1,
            "exactly the uncharged vertex goes unclassified"
        );
    }

    #[test]
    fn reused_phase_scratch_matches_fresh_runs() {
        // One scratch carried across every algorithm must reproduce each
        // fresh-scratch outcome exactly, including stats and provenance.
        let batch: Batch = (0..8)
            .map(|i| mk_task(i, 100 + (i % 3) * 40, 100_000, 2))
            .collect();
        let comm = CommModel::constant(Duration::from_micros(20));
        let initial = [Time::ZERO, Time::from_micros(150)];
        let algorithms = [
            Algorithm::rt_sads(),
            Algorithm::d_cols(),
            Algorithm::GreedyEdf,
            Algorithm::myopic(),
            Algorithm::RandomAssign,
        ];
        let mut scratch = PhaseScratch::new();
        for algorithm in &algorithms {
            let run = |scratch: &mut PhaseScratch| {
                let mut rng = SimRng::seed_from(11);
                algorithm.schedule_phase(
                    &batch,
                    &comm,
                    &initial,
                    Time::ZERO,
                    Some(10_000),
                    Pruning::default(),
                    &ResourceEats::new(),
                    true,
                    &mut free_meter(),
                    &mut rng,
                    scratch,
                )
            };
            let fresh = run(&mut PhaseScratch::new());
            let reused = run(&mut scratch);
            assert_eq!(fresh.assignments, reused.assignments);
            assert_eq!(fresh.termination, reused.termination);
            assert_eq!(fresh.makespan, reused.makespan);
            assert_eq!(fresh.stats, reused.stats);
            assert_eq!(fresh.provenance, reused.provenance);
            scratch.recycle(reused.assignments);
        }
    }

    #[test]
    fn d_cols_uses_sequence_representation() {
        let batch: Batch = (0..4).map(|i| mk_task(i, 100, 100_000, 2)).collect();
        let comm = CommModel::free();
        let initial = [Time::ZERO; 2];
        let mut rng = SimRng::seed_from(0);
        let out = Algorithm::d_cols().schedule_phase(
            &batch,
            &comm,
            &initial,
            Time::ZERO,
            Some(10_000),
            Pruning::default(),
            &ResourceEats::new(),
            false,
            &mut free_meter(),
            &mut rng,
            &mut PhaseScratch::new(),
        );
        assert_eq!(out.termination, Termination::Leaf);
        assert_eq!(
            out.processors_used(&mut Vec::new()),
            2,
            "round-robin spreads the tasks"
        );
    }
}
