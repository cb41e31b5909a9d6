//! The scheduling algorithms: RT-SADS, D-COLS, and sanity baselines.

use crate::myopic::MyopicScratch;
use paragon_des::{SimRng, Time};
use paragon_platform::SchedulingMeter;
use rt_task::{ProcessorId, Task};
use sched_search::{
    placement_probe, search_schedule_with, Assignment, ChildOrder, PathState, PhaseInput,
    PhaseProvenance, PlacementEvidence, ProcessorOrder, Representation, SearchOutcome,
    SearchParams, SearchScratch, SearchStats, Termination,
};

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
    /// The myopic scheduler's window, alternatives and decision stack.
    pub(crate) myopic: MyopicScratch,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's contribution: assignment-oriented search (Figure 2),
    /// whose levels fix tasks in deadline order, with heuristic successor
    /// ordering.
    RtSads {
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
    /// Canonical RT-SADS: the load-balancing cost function.
    #[must_use]
    pub fn rt_sads() -> Self {
        Algorithm::RtSads {
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

    /// Runs one scheduling phase over `input` and returns the (partial)
    /// schedule, whose assignments name tasks by batch position. `meter`
    /// charges and bounds the scheduling time; `rng` is only used by
    /// [`Algorithm::RandomAssign`]. Only the two searches read the vertex
    /// cap and the backtrack limit, and the myopic baseline records no
    /// provenance (which is record-only everywhere: it never alters the
    /// schedule). `scratch` holds the reusable working buffers — pass a
    /// fresh one for a one-off call, or carry one across phases to keep the
    /// hot path allocation-free.
    #[must_use]
    pub fn schedule_phase(
        &self,
        input: &PhaseInput<'_>,
        meter: &mut SchedulingMeter,
        rng: &mut SimRng,
        scratch: &mut PhaseScratch,
    ) -> SearchOutcome {
        // The two search algorithms differ only in their tree layout and
        // successor order; everything else is one engine call.
        let (representation, child_order) = match *self {
            Algorithm::RtSads { child_order } => (Representation::AssignmentOriented, child_order),
            Algorithm::DCols {
                processor_order,
                child_order,
                skip_processors,
            } => (
                Representation::SequenceOriented {
                    processor_order,
                    skip_processors,
                },
                child_order,
            ),
            Algorithm::GreedyEdf => return greedy_edf(input, meter, scratch),
            Algorithm::Myopic {
                window,
                weight_pct,
                max_backtracks,
            } => {
                return crate::myopic::myopic_phase(
                    input,
                    window,
                    weight_pct,
                    max_backtracks,
                    meter,
                    scratch,
                )
            }
            Algorithm::RandomAssign => return random_assign(input, meter, rng, scratch),
        };
        let params = SearchParams {
            input: *input,
            representation,
            child_order,
        };
        search_schedule_with(&params, meter, &mut scratch.search)
    }
}

/// Fills `order` with the batch indices of `tasks` by `(deadline, batch
/// index)`: the order in which RT-SADS levels fix tasks, and in which
/// greedy EDF and myopic consider them. The keys are unique, so the
/// unstable sort is deterministic.
pub(crate) fn edf_order(tasks: &[Task], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..tasks.len());
    order.sort_unstable_by_key(|&i| (tasks[i].deadline(), i));
}

/// `slot`'s path state, created on first use and reset to `input`'s phase
/// root: the working state of the schedulers outside the search engine.
pub(crate) fn phase_state<'s>(
    slot: &'s mut Option<PathState>,
    input: &PhaseInput<'_>,
) -> &'s mut PathState {
    let n = input.tasks().len();
    let state = slot.get_or_insert_with(|| PathState::new(input.initial_finish.to_vec(), n));
    state.reset(input.initial_finish, n, input.resources);
    state
}

/// Charges task `t`'s candidates, one per processor, as one round
/// ([`SearchStats::charge_round`], with no vertex cap: the schedulers
/// outside the search engine never read one) and classifies only the
/// charged prefix, passing each feasible `(processor, completion)` to
/// `feasible`. Returns `false` when the quantum broke the round off.
pub(crate) fn task_round(
    input: &PhaseInput<'_>,
    state: &PathState,
    t: usize,
    stats: &mut SearchStats,
    meter: &mut SchedulingMeter,
    mut feasible: impl FnMut(usize, Time),
) -> bool {
    let tasks = input.tasks();
    let (charged, in_budget) = stats.charge_round(state.processors(), None, meter);
    for p in ProcessorId::all(charged) {
        let completion = state.completion_if(tasks, input.comm, t, p);
        if tasks[t].meets_deadline(completion) {
            stats.feasible_children += 1;
            feasible(p.index(), completion);
        } else {
            stats.infeasible_children += 1;
        }
    }
    in_budget
}

/// List scheduling: EDF order, each task to its feasible
/// earliest-completion processor, never undone.
fn greedy_edf(
    input: &PhaseInput<'_>,
    meter: &mut SchedulingMeter,
    scratch: &mut PhaseScratch,
) -> SearchOutcome {
    edf_order(input.tasks(), &mut scratch.order);
    one_pass(input, meter, scratch, |cands| {
        cands
            .iter()
            .min_by_key(|&&(_, completion)| completion)
            .copied()
    })
}

/// Each task to a uniformly random feasible processor.
fn random_assign(
    input: &PhaseInput<'_>,
    meter: &mut SchedulingMeter,
    rng: &mut SimRng,
    scratch: &mut PhaseScratch,
) -> SearchOutcome {
    scratch.order.clear();
    scratch.order.extend(0..input.tasks().len());
    one_pass(input, meter, scratch, |cands| {
        if cands.is_empty() {
            None
        } else {
            Some(*rng.choose(cands))
        }
    })
}

/// Shared single-pass (no-backtracking) scheduler skeleton for the two
/// baselines; the caller has filled `scratch.order` with the task order, and
/// `pick` chooses among the feasible `(processor, completion)` candidates of
/// one task.
fn one_pass(
    input: &PhaseInput<'_>,
    meter: &mut SchedulingMeter,
    scratch: &mut PhaseScratch,
    mut pick: impl FnMut(&[(usize, Time)]) -> Option<(usize, Time)>,
) -> SearchOutcome {
    let PhaseScratch {
        search,
        state,
        order,
        feasible,
        ..
    } = scratch;
    let (tasks, comm, provenance) = (input.tasks(), input.comm, input.provenance);
    let state = phase_state(state, input);
    let mut stats = SearchStats::default();
    let mut skipped_any = false;
    let mut exhausted = false;
    let mut decisions: Vec<PlacementEvidence> = Vec::new();

    for &t in order.iter() {
        stats.expansions += 1;
        feasible.clear();
        if !task_round(input, state, t, &mut stats, meter, |p, c| {
            feasible.push((p, c))
        }) {
            exhausted = true;
            break;
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
    use rt_task::{AffinitySet, Batch, CommModel, ResourceEats, TaskId};

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

    static NO_RESOURCES: ResourceEats = ResourceEats::new();

    /// A phase over `batch` on `initial` under `comm`: no resources held,
    /// a vertex cap of 10,000, no backtrack limit, no provenance.
    fn input<'a>(batch: &'a Batch, comm: &'a CommModel, initial: &'a [Time]) -> PhaseInput<'a> {
        PhaseInput {
            batch,
            comm,
            initial_finish: initial,
            vertex_cap: Some(10_000),
            backtrack_limit: None,
            resources: &NO_RESOURCES,
            provenance: false,
        }
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
            &input(&batch, &comm, &initial),
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
            &input(&batch, &comm, &initial),
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
            &input(&batch, &comm, &initial),
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
                &input(&batch, &comm, &initial),
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
            &input(&batch, &comm, &initial),
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
    fn quantum_cut_baseline_rounds_are_pinned() {
        // Greedy EDF, random and myopic phases on P = 4 under C = 1000us,
        // where each task's round alternates feasible and infeasible
        // candidates with its affinity set. At 1us per vertex the quantum
        // cuts round r after its first charge (q = 1 cuts round 1),
        // mid-round (q = (r - 1)P + 2) and one charge short of its end
        // (q = rP - 1), then the phase runs uncut; the one-pass baselines
        // are cut in round 3, myopic (seven window tasks per expansion) in
        // round 9, its second expansion. The expected values were
        // recorded from the loops that charged one candidate at a time.
        let affine = |set: &[usize]| set.iter().map(|&k| ProcessorId::new(k)).collect();
        let specs: [(u64, u64, AffinitySet); 8] = [
            (100, 450, affine(&[0, 2])),
            (100, 300, affine(&[1])),
            (150, 2_000, AffinitySet::all(4)),
            (100, 250, affine(&[3])),
            (200, 1_500, affine(&[0, 1])),
            (100, 400, affine(&[2, 3])),
            (120, 5_000, AffinitySet::new()),
            (100, 180, affine(&[1, 3])),
        ];
        let batch: Batch = specs
            .into_iter()
            .enumerate()
            .map(|(i, (p, d, affinity))| {
                Task::builder(TaskId::new(i as u64))
                    .processing_time(Duration::from_micros(p))
                    .deadline(Time::from_micros(d))
                    .affinity(affinity)
                    .build()
            })
            .collect();
        let comm = CommModel::constant(Duration::from_micros(1_000));
        let initial = [0, 50, 0, 20].map(Time::from_micros);
        let p = 4;
        let qe = Termination::QuantumExhausted;
        type Want = (u64, u64, u64, Termination, &'static [(usize, usize, u64)]);
        // Per cut: (vertices, feasible, infeasible, termination,
        // assignments as (task, processor, completion us)).
        let greedy_all: &[(usize, usize, u64)] = &[
            (7, 3, 120),
            (3, 3, 220),
            (1, 1, 150),
            (5, 2, 100),
            (0, 0, 100),
            (4, 0, 300),
            (2, 2, 250),
            (6, 1, 1_270),
        ];
        let cases: [(Algorithm, u64, [Want; 4]); 3] = [
            (
                Algorithm::GreedyEdf,
                3,
                [
                    (2, 0, 1, qe, &[]),
                    (11, 4, 6, qe, &greedy_all[..2]),
                    (12, 4, 7, qe, &greedy_all[..2]),
                    (32, 20, 12, Termination::Leaf, greedy_all),
                ],
            ),
            (
                Algorithm::RandomAssign,
                3,
                [
                    (2, 1, 0, qe, &[]),
                    (11, 5, 5, qe, &[(0, 0, 100), (1, 1, 150)]),
                    (12, 6, 5, qe, &[(0, 0, 100), (1, 1, 150)]),
                    (
                        32,
                        17,
                        15,
                        Termination::DeadEnd,
                        &[
                            (0, 0, 100),
                            (1, 1, 150),
                            (2, 0, 250),
                            (3, 3, 120),
                            (4, 2, 1_200),
                            (5, 3, 220),
                            (6, 1, 1_270),
                        ],
                    ),
                ],
            ),
            (
                Algorithm::myopic(),
                9,
                [
                    (2, 0, 1, qe, &[]),
                    (35, 18, 16, qe, &[(7, 3, 120)]),
                    (36, 18, 17, qe, &[(7, 3, 120)]),
                    (
                        140,
                        105,
                        35,
                        Termination::Leaf,
                        &[
                            (7, 3, 120),
                            (1, 1, 150),
                            (3, 3, 220),
                            (5, 2, 100),
                            (0, 0, 100),
                            (4, 0, 300),
                            (2, 2, 250),
                            (6, 1, 1_270),
                        ],
                    ),
                ],
            ),
        ];
        for (algorithm, round, expected) in cases {
            let cuts = [
                Some(1),
                Some((round - 1) * p + 2),
                Some(round * p - 1),
                None,
            ];
            for (quantum, want) in cuts.into_iter().zip(expected) {
                let mut meter = match quantum {
                    Some(q) => SchedulingMeter::new(
                        HostParams::new(Duration::from_micros(1)),
                        Duration::from_micros(q),
                    ),
                    None => free_meter(),
                };
                let out = algorithm.schedule_phase(
                    &input(&batch, &comm, &initial),
                    &mut meter,
                    &mut SimRng::seed_from(5),
                    &mut PhaseScratch::new(),
                );
                let s = out.stats;
                let placed: Vec<(usize, usize, u64)> = out
                    .assignments
                    .iter()
                    .map(|a| (a.task, a.processor.index(), a.completion.as_micros()))
                    .collect();
                let got = (
                    s.vertices_generated,
                    s.feasible_children,
                    s.infeasible_children,
                    out.termination,
                );
                let at = format!("{} cut at {quantum:?}", algorithm.name());
                assert_eq!(got, (want.0, want.1, want.2, want.3), "{at}");
                assert_eq!(placed, want.4, "{at}");
                assert_eq!(s.vertices_generated, meter.vertices(), "{at}");
            }
        }
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
                    &PhaseInput {
                        provenance: true,
                        ..input(&batch, &comm, &initial)
                    },
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
            &input(&batch, &comm, &initial),
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
