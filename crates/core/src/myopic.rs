//! The myopic scheduling algorithm of Ramamritham, Stankovic and Zhao —
//! the classical dynamic real-time multiprocessor scheduler whose
//! techniques the paper says inspired D-COLS (references [3] and [6]).
//!
//! Myopic scheduling is a heuristic search with three signature mechanisms:
//!
//! 1. a **feasibility window**: only the `K` tightest-deadline remaining
//!    tasks are considered at each step (the search is "myopic"),
//! 2. an integrating **heuristic function** `H(T) = d_T + W · EST(T)`
//!    combining urgency (deadline) with resource availability (earliest
//!    start time),
//! 3. **limited backtracking**: when no task in the window fits, undo the
//!    most recent decision and try the next-best candidate, at most
//!    `max_backtracks` times per phase.
//!
//! This reproduction adapts it to the paper's phase/quantum regime: every
//! `(task, processor)` evaluation charges the scheduling meter, and a task
//! that ultimately cannot fit is left in the batch for a later phase rather
//! than aborting the schedule (the original algorithm's "reject" outcome
//! does not fit a soft real-time setting).

use crate::algorithm::{edf_order, phase_state, task_round, PhaseScratch};
use paragon_des::Time;
use paragon_platform::SchedulingMeter;
use rt_task::ProcessorId;
use sched_search::{PathState, PhaseInput, SearchOutcome, SearchStats, Termination};

/// One scored candidate inside the feasibility window.
#[derive(Debug, Clone, Copy)]
struct Scored {
    task: usize,
    processor: usize,
    completion: Time,
    h: u64,
}

/// One committed decision. Its window's scored alternatives, best first,
/// start at `start` in [`MyopicScratch::alternatives`] and run to the next
/// decision's start; `chosen` indexes the applied one among them (for
/// backtracking).
#[derive(Debug, Clone, Copy)]
struct Decision {
    start: usize,
    chosen: usize,
}

/// The myopic scheduler's working buffers, kept in [`PhaseScratch`] and
/// cleared every phase, so a warm phase allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct MyopicScratch {
    /// Batch tasks given up on this phase.
    skipped: Vec<bool>,
    /// The current feasibility window.
    window: Vec<usize>,
    /// Every live decision's alternatives, back to back in decision order.
    alternatives: Vec<Scored>,
    /// The decision stack.
    decisions: Vec<Decision>,
}

/// Runs one myopic scheduling phase over `input` with window `window`,
/// heuristic weight `weight_pct` and `max_backtracks` backtracks. See the
/// [module docs](self).
pub(crate) fn myopic_phase(
    input: &PhaseInput<'_>,
    window: usize,
    weight_pct: u32,
    max_backtracks: u32,
    meter: &mut SchedulingMeter,
    scratch: &mut PhaseScratch,
) -> SearchOutcome {
    let (tasks, comm) = (input.tasks(), input.comm);
    let mut stats = SearchStats::default();
    if tasks.is_empty() {
        return SearchOutcome {
            assignments: Vec::new(),
            termination: Termination::Leaf,
            n_viable: 0,
            makespan: input
                .initial_finish
                .iter()
                .copied()
                .max()
                .unwrap_or(Time::ZERO),
            stats,
            provenance: None,
        };
    }

    let PhaseScratch {
        search,
        state,
        order,
        myopic,
        ..
    } = scratch;
    edf_order(tasks, order);
    let order: &[usize] = order;
    let MyopicScratch {
        skipped,
        window: window_tasks,
        alternatives,
        decisions,
    } = myopic;
    skipped.clear();
    skipped.resize(tasks.len(), false);
    alternatives.clear();
    decisions.clear();
    let mut backtracks_left = max_backtracks;
    let mut exhausted = false;

    // Rebuilds, in place, the path state implied by the current decision
    // stack (reset + replay — backtracks are rare and shallow here, so the
    // simple rebuild beats carrying an undo log through the window logic).
    let rebuild = |state: &mut PathState, decisions: &[Decision], alternatives: &[Scored]| {
        state.reset(input.initial_finish, tasks.len(), input.resources);
        for d in decisions {
            let c = alternatives[d.start + d.chosen];
            state.apply(tasks, comm, c.task, ProcessorId::new(c.processor));
        }
    };

    let state = phase_state(state, input);
    loop {
        // The feasibility window: the first `window` unassigned, unskipped
        // tasks in deadline order.
        window_tasks.clear();
        window_tasks.extend(
            order
                .iter()
                .copied()
                .filter(|&t| !state.is_assigned(t) && !skipped[t])
                .take(window.max(1)),
        );
        if window_tasks.is_empty() {
            break;
        }

        // Score every (task, best processor) pair in the window, appending
        // to the flat alternatives buffer.
        let start = alternatives.len();
        for &t in window_tasks.iter() {
            let mut best: Option<(usize, Time)> = None;
            let in_budget = task_round(input, state, t, &mut stats, meter, |p, completion| {
                if best.is_none_or(|(_, c)| completion < c) {
                    best = Some((p, completion));
                }
            });
            if !in_budget {
                exhausted = true;
                break;
            }
            if let Some((p, completion)) = best {
                // H(T) = d + W * EST; EST expressed through the completion
                // (start + service) keeps the ordering and avoids a second
                // pass.
                let h = tasks[t].deadline().as_micros()
                    + u64::from(weight_pct) * completion.as_micros() / 100;
                alternatives.push(Scored {
                    task: t,
                    processor: p,
                    completion,
                    h,
                });
            }
        }
        if exhausted {
            break;
        }
        stats.expansions += 1;

        if alternatives.len() == start {
            // Not strongly feasible: backtrack if allowed, otherwise give
            // up on the tightest window task (it stays in the batch).
            if backtracks_left > 0 && !decisions.is_empty() {
                backtracks_left -= 1;
                stats.backtracks += 1;
                // undo decisions until one has an untried alternative; the
                // last decision's alternatives end the flat buffer
                while let Some(mut last) = decisions.pop() {
                    if last.start + last.chosen + 1 < alternatives.len() {
                        last.chosen += 1;
                        decisions.push(last);
                        break;
                    }
                    alternatives.truncate(last.start);
                }
                rebuild(state, decisions, alternatives);
            } else {
                skipped[window_tasks[0]] = true;
                stats.level_skips += 1;
            }
            continue;
        }

        let scored = &mut alternatives[start..];
        scored.sort_by_key(|s| (s.h, s.completion, s.task));
        let choice = scored[0];
        state.apply(tasks, comm, choice.task, ProcessorId::new(choice.processor));
        stats.deepest = state.depth();
        decisions.push(Decision { start, chosen: 0 });
    }

    let complete = state.depth() == tasks.len();
    let termination = if exhausted {
        Termination::QuantumExhausted
    } else if complete {
        Termination::Leaf
    } else {
        Termination::DeadEnd
    };
    // Myopic does not screen: every batch task counts as viable, so `Leaf`
    // here means the full batch is covered (see `SearchOutcome::n_viable`).
    let makespan = state.makespan();
    // Copy into the pooled buffer; the state stays in the scratch.
    let mut assignments = search.take_assignment_buffer();
    assignments.extend_from_slice(state.assignments());
    SearchOutcome {
        assignments,
        termination,
        n_viable: tasks.len(),
        makespan,
        stats,
        // The myopic baseline does not record decision evidence.
        provenance: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_des::Duration;
    use paragon_platform::HostParams;
    use rt_task::{AffinitySet, Batch, CommModel, ResourceEats, Task, TaskId};

    fn mk_task(id: u64, p_us: u64, d_us: u64, aff: &[usize]) -> Task {
        let mut builder = Task::builder(TaskId::new(id))
            .processing_time(Duration::from_micros(p_us))
            .deadline(Time::from_micros(d_us));
        if !aff.is_empty() {
            builder = builder.affinity(
                aff.iter()
                    .map(|&k| ProcessorId::new(k))
                    .collect::<AffinitySet>(),
            );
        } else {
            builder = builder.affinity(AffinitySet::all(8));
        }
        builder.build()
    }

    fn free_meter() -> SchedulingMeter {
        SchedulingMeter::new(HostParams::free(), Duration::ZERO)
    }

    fn run(
        tasks: &[Task],
        comm: &CommModel,
        workers: usize,
        window: usize,
        backtracks: u32,
        meter: &mut SchedulingMeter,
    ) -> SearchOutcome {
        let batch: Batch = tasks.iter().cloned().collect();
        let initial = vec![Time::ZERO; workers];
        let input = PhaseInput {
            batch: &batch,
            comm,
            initial_finish: &initial,
            vertex_cap: None,
            backtrack_limit: None,
            resources: &ResourceEats::new(),
            provenance: false,
        };
        myopic_phase(
            &input,
            window,
            100,
            backtracks,
            meter,
            &mut PhaseScratch::new(),
        )
    }

    #[test]
    fn empty_batch_is_leaf() {
        let out = run(&[], &CommModel::free(), 2, 7, 5, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
    }

    #[test]
    fn schedules_feasible_batch_completely() {
        let tasks: Vec<Task> = (0..10).map(|i| mk_task(i, 100, 100_000, &[])).collect();
        let out = run(&tasks, &CommModel::free(), 4, 7, 5, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert_eq!(out.assignments.len(), 10);
        for a in &out.assignments {
            assert!(tasks[a.task].meets_deadline(a.completion));
        }
    }

    #[test]
    fn window_limits_consideration_but_not_correctness() {
        // Even with window 1 (fully myopic) all feasible tasks get placed.
        let tasks: Vec<Task> = (0..8).map(|i| mk_task(i, 100, 50_000, &[])).collect();
        let out = run(&tasks, &CommModel::free(), 2, 1, 0, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf);
        assert_eq!(out.assignments.len(), 8);
    }

    #[test]
    fn infeasible_tasks_are_skipped_not_fatal() {
        let tasks = vec![
            mk_task(0, 100, 50, &[]), // can never fit
            mk_task(1, 100, 100_000, &[]),
        ];
        let out = run(&tasks, &CommModel::free(), 1, 7, 2, &mut free_meter());
        assert_eq!(out.termination, Termination::DeadEnd);
        assert_eq!(out.assignments.len(), 1);
        assert_eq!(out.assignments[0].task, 1);
        assert!(out.stats.level_skips >= 1);
    }

    #[test]
    fn backtracking_recovers_from_a_greedy_trap() {
        // Task 0 (tightest deadline) fits anywhere; task 1 only fits on P0
        // and only first. Greedy min-H puts task 0 on P0 (identical
        // completion, lowest index); backtracking must flip it to P1.
        let comm = CommModel::constant(Duration::from_micros(10_000));
        let tasks = vec![mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])];
        let out = run(&tasks, &comm, 2, 7, 3, &mut free_meter());
        assert_eq!(out.termination, Termination::Leaf, "stats: {:?}", out.stats);
        assert!(out.stats.backtracks > 0);
        let a1 = out.assignments.iter().find(|a| a.task == 1).unwrap();
        assert_eq!(a1.processor.index(), 0);
    }

    #[test]
    fn zero_backtracks_degrades_gracefully() {
        let comm = CommModel::constant(Duration::from_micros(10_000));
        let tasks = vec![mk_task(0, 100, 150, &[0, 1]), mk_task(1, 100, 150, &[0])];
        let out = run(&tasks, &comm, 2, 7, 0, &mut free_meter());
        // without backtracking, task 1 is lost but task 0 still runs
        assert_eq!(out.termination, Termination::DeadEnd);
        assert_eq!(out.assignments.len(), 1);
    }

    #[test]
    fn respects_the_meter() {
        let tasks: Vec<Task> = (0..50).map(|i| mk_task(i, 100, 1_000_000, &[])).collect();
        let mut meter = SchedulingMeter::new(
            HostParams::new(Duration::from_micros(1)),
            Duration::from_micros(13),
        );
        let out = run(&tasks, &CommModel::free(), 2, 7, 5, &mut meter);
        assert_eq!(out.termination, Termination::QuantumExhausted);
        assert!(out.assignments.len() < 50);
        assert_eq!(out.stats.vertices_generated, meter.vertices());
    }

    #[test]
    fn prefers_urgent_tasks_via_h() {
        // Two tasks, same cost: the tighter deadline must be placed first
        // (and thus get the earlier slot) even though it appears later in
        // the input.
        let tasks = vec![mk_task(0, 100, 100_000, &[]), mk_task(1, 100, 5_000, &[])];
        let out = run(&tasks, &CommModel::free(), 1, 7, 5, &mut free_meter());
        assert_eq!(out.assignments[0].task, 1);
        assert_eq!(out.assignments[1].task, 0);
    }
}
